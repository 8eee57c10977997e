"""Tests for the memory-mapped columnar corpus store (DESIGN.md §11)."""

from __future__ import annotations

import numpy as np
import pytest

from repro import durable
from repro.analysis.itemsets import mine_frequent_itemsets
from repro.corpus.recipe import Recipe
from repro.corpus.stats import corpus_stats
from repro.errors import StorageError
from repro.runtime import CacheCorruptionWarning, cache_corruptions
from repro.runtime.curve_cache import transactions_fingerprint
from repro.storage.columnar import (
    COLUMNAR_FORMAT_VERSION,
    COLUMNAR_SUFFIX,
    ColumnarCorpus,
    ColumnarWriter,
    pack_dataset,
)
from tests.analysis.oracle import eclat


@pytest.fixture(scope="module")
def packed_path(tmp_path_factory, small_corpus):
    path = tmp_path_factory.mktemp("columnar") / f"small{COLUMNAR_SUFFIX}"
    with pack_dataset(small_corpus, path):
        pass
    return path


@pytest.fixture()
def corpus(packed_path):
    with ColumnarCorpus.open(packed_path) as opened:
        yield opened


# ---------------------------------------------------------------------------
# Round-trip
# ---------------------------------------------------------------------------


def test_roundtrip_recipes_exact(corpus, small_corpus):
    assert list(corpus.to_dataset()) == list(small_corpus)


def test_roundtrip_tiny_dataset(tmp_path, tiny_dataset):
    path = tmp_path / f"tiny{COLUMNAR_SUFFIX}"
    with pack_dataset(tiny_dataset, path) as packed:
        assert list(packed.to_dataset()) == list(tiny_dataset)


def test_region_codes_sorted(corpus, small_corpus):
    assert corpus.region_codes() == small_corpus.region_codes()


def test_cuisine_slices_match_dataset(corpus, small_corpus):
    for code in small_corpus.region_codes():
        view = small_corpus.cuisine(code)
        assert corpus.cuisine_size(code) == len(view)
        rows = corpus.cuisine_rows(code)
        got = [corpus.recipe(int(row)) for row in rows]
        assert got == list(view.recipes)


def test_transactions_match_as_id_sets(corpus, small_corpus):
    for code in small_corpus.region_codes():
        assert corpus.transactions(code) == small_corpus.cuisine(code).as_id_sets()


def test_stats_match_corpus_stats(corpus, small_corpus):
    assert corpus.stats() == corpus_stats(small_corpus)


def test_iter_recipes(corpus, small_corpus):
    assert list(corpus.iter_recipes()) == list(small_corpus)


def test_len_and_counts(corpus, small_corpus):
    assert len(corpus) == len(small_corpus)
    assert corpus.n_recipes == len(small_corpus)


def test_sizes_vector(corpus, small_corpus):
    expected = [len(r.ingredient_ids) for r in small_corpus]
    assert corpus.sizes().tolist() == expected


def test_ingredient_universe_global(corpus, small_corpus):
    expected = sorted({i for r in small_corpus for i in r.ingredient_ids})
    assert corpus.ingredient_universe().tolist() == expected


def test_ingredient_universe_cuisine(corpus, small_corpus):
    for code in small_corpus.region_codes():
        expected = sorted(
            {i for r in small_corpus.cuisine(code).recipes
             for i in r.ingredient_ids}
        )
        assert corpus.ingredient_universe(code).tolist() == expected


def test_unknown_region_raises(corpus):
    with pytest.raises(StorageError):
        corpus.cuisine_rows("XXX")


def test_pack_is_deterministic(tmp_path, tiny_dataset):
    first = tmp_path / f"a{COLUMNAR_SUFFIX}"
    second = tmp_path / f"b{COLUMNAR_SUFFIX}"
    pack_dataset(tiny_dataset, first).close()
    pack_dataset(tiny_dataset, second).close()
    assert first.read_bytes() == second.read_bytes()


def test_no_text_mode_drops_titles(tmp_path, tiny_dataset):
    path = tmp_path / f"bare{COLUMNAR_SUFFIX}"
    with pack_dataset(tiny_dataset, path, store_text=False) as packed:
        assert not packed.store_text
        recipe = packed.recipe(0)
        assert recipe.title == ""
        assert recipe.ingredient_ids == tiny_dataset.recipes[0].ingredient_ids


# ---------------------------------------------------------------------------
# Packed planes and mining
# ---------------------------------------------------------------------------


def test_packed_planes_stored_by_default(corpus, small_corpus):
    names = corpus.plane_names()
    for code in small_corpus.region_codes():
        assert f"bits:{code}" in names
        assert f"bititems:{code}" in names


def test_mining_bit_identical_to_every_algorithm(tmp_path, tiny_dataset):
    path = tmp_path / f"mine{COLUMNAR_SUFFIX}"
    with pack_dataset(tiny_dataset, path) as packed:
        for code in tiny_dataset.region_codes():
            packed_result = packed.mine(code, min_support=0.3)
            transactions = tiny_dataset.cuisine(code).as_id_sets()
            for reference in (
                mine_frequent_itemsets(transactions, min_support=0.3),
                eclat(transactions, min_support=0.3),
            ):
                assert packed_result.itemsets == reference.itemsets
                assert packed_result.n_transactions == reference.n_transactions


def test_mining_bit_identical_at_corpus_scale(corpus, small_corpus):
    for code in small_corpus.region_codes():
        packed_result = corpus.mine(code, min_support=0.05)
        reference = mine_frequent_itemsets(
            small_corpus.cuisine(code).as_id_sets(),
            min_support=0.05,
        )
        assert packed_result.itemsets == reference.itemsets
        assert packed_result.n_transactions == reference.n_transactions


def test_mining_without_stored_bitplanes_matches(tmp_path, small_corpus):
    code = small_corpus.region_codes()[0]
    path = tmp_path / f"nobits{COLUMNAR_SUFFIX}"
    with pack_dataset(small_corpus, path, bitplanes=False) as bare:
        assert not any(n.startswith("bits:") for n in bare.plane_names())
        fallback = bare.mine(code, min_support=0.05)
    with pack_dataset(
        small_corpus, tmp_path / f"bits{COLUMNAR_SUFFIX}"
    ) as stored:
        assert fallback.itemsets == stored.mine(code, min_support=0.05).itemsets


def test_packed_matches_packbits_layout(corpus, small_corpus):
    code = small_corpus.region_codes()[0]
    packed = corpus.packed(code)
    transactions = small_corpus.cuisine(code).as_id_sets()
    universe = packed.item_ids.tolist()
    dense = np.zeros((len(universe), len(transactions)), dtype=np.uint8)
    position = {item: row for row, item in enumerate(universe)}
    for column, transaction in enumerate(transactions):
        for item in transaction:
            dense[position[item], column] = 1
    assert np.array_equal(packed.matrix, np.packbits(dense, axis=1))
    assert packed.n_transactions == len(transactions)


def test_fingerprint_interop_with_object_path(corpus, small_corpus):
    for code in small_corpus.region_codes():
        object_fp = transactions_fingerprint(
            small_corpus.cuisine(code).as_id_sets()
        )
        assert corpus.transactions_fingerprint_for(code) == object_fp


# ---------------------------------------------------------------------------
# Writer validation
# ---------------------------------------------------------------------------


def test_writer_rejects_duplicate_recipe_ids(tmp_path):
    path = tmp_path / f"dup{COLUMNAR_SUFFIX}"
    with pytest.raises(StorageError, match="duplicate"):
        with ColumnarWriter(path) as writer:
            writer.add_recipes(
                [Recipe(0, "ITA", (1, 2)), Recipe(0, "KOR", (3, 4))]
            )
    assert not path.exists()


def test_writer_rejects_unsorted_ingredient_ids(tmp_path):
    path = tmp_path / f"unsorted{COLUMNAR_SUFFIX}"
    with pytest.raises(StorageError):
        with ColumnarWriter(path) as writer:
            writer.add_chunk(
                "ITA",
                lengths=np.array([2], dtype=np.int64),
                flat_ids=np.array([5, 3], dtype=np.int64),
                recipe_ids=np.array([0], dtype=np.int64),
            )
    assert not path.exists()


def test_writer_rejects_length_mismatch(tmp_path):
    path = tmp_path / f"mismatch{COLUMNAR_SUFFIX}"
    with pytest.raises(StorageError):
        with ColumnarWriter(path) as writer:
            writer.add_chunk(
                "ITA",
                lengths=np.array([3], dtype=np.int64),
                flat_ids=np.array([1, 2], dtype=np.int64),
                recipe_ids=np.array([0], dtype=np.int64),
            )


def test_writer_rejects_negative_ids(tmp_path):
    path = tmp_path / f"negative{COLUMNAR_SUFFIX}"
    with pytest.raises(StorageError):
        with ColumnarWriter(path) as writer:
            writer.add_chunk(
                "ITA",
                lengths=np.array([1], dtype=np.int64),
                flat_ids=np.array([-1], dtype=np.int64),
                recipe_ids=np.array([0], dtype=np.int64),
            )


def test_writer_abort_leaves_no_file(tmp_path):
    path = tmp_path / f"aborted{COLUMNAR_SUFFIX}"
    writer = ColumnarWriter(path)
    writer.add_recipes([Recipe(0, "ITA", (1, 2))])
    writer.abort()
    assert not path.exists()
    assert not list(tmp_path.iterdir())


def test_writer_temp_files_cleaned_on_success(tmp_path, tiny_dataset):
    path = tmp_path / f"clean{COLUMNAR_SUFFIX}"
    pack_dataset(tiny_dataset, path).close()
    assert [entry.name for entry in tmp_path.iterdir()] == [path.name]


# ---------------------------------------------------------------------------
# Corruption quarantine (§9 conventions)
# ---------------------------------------------------------------------------


def _pack_tiny(tmp_path, tiny_dataset):
    path = tmp_path / f"victim{COLUMNAR_SUFFIX}"
    pack_dataset(tiny_dataset, path).close()
    return path


def test_corrupt_magic_quarantined(tmp_path, tiny_dataset):
    path = _pack_tiny(tmp_path, tiny_dataset)
    raw = bytearray(path.read_bytes())
    raw[:4] = b"XXXX"
    path.write_bytes(bytes(raw))
    with pytest.warns(CacheCorruptionWarning):
        with pytest.raises(StorageError, match="quarantined"):
            ColumnarCorpus.open(path)
    assert not path.exists()
    assert path.with_suffix(path.suffix + ".bad").exists()
    events = cache_corruptions()
    assert events and events[-1].store == "ColumnarCorpus"
    assert events[-1].kind == durable.TORN


def test_torn_write_quarantined(tmp_path, tiny_dataset):
    path = _pack_tiny(tmp_path, tiny_dataset)
    raw = path.read_bytes()
    path.write_bytes(raw[: len(raw) // 2])
    with pytest.warns(CacheCorruptionWarning):
        with pytest.raises(StorageError):
            ColumnarCorpus.open(path)
    assert not path.exists()
    assert path.with_suffix(path.suffix + ".bad").exists()
    assert cache_corruptions()[-1].store == "ColumnarCorpus"


def test_footer_checksum_mismatch_quarantined(
    tmp_path, tiny_dataset):
    path = _pack_tiny(tmp_path, tiny_dataset)
    raw = bytearray(path.read_bytes())
    # Flip a byte inside the JSON footer (between the planes and the
    # trailer) so the trailer's footer digest no longer matches.
    raw[-60] ^= 0xFF
    path.write_bytes(bytes(raw))
    with pytest.warns(CacheCorruptionWarning):
        with pytest.raises(StorageError):
            ColumnarCorpus.open(path)
    assert path.with_suffix(path.suffix + ".bad").exists()


def test_verify_catches_plane_bitrot(tmp_path, tiny_dataset):
    path = _pack_tiny(tmp_path, tiny_dataset)
    raw = bytearray(path.read_bytes())
    # Flip a byte in the first plane, past the magic: the footer still
    # parses, so only verify=True catches it.
    raw[len(b"RPCOL") + 70] ^= 0xFF
    path.write_bytes(bytes(raw))
    with pytest.warns(CacheCorruptionWarning):
        with pytest.raises(StorageError, match="checksum"):
            ColumnarCorpus.open(path, verify=True)
    assert path.with_suffix(path.suffix + ".bad").exists()
    assert cache_corruptions()[-1].kind == "checksum-mismatch"


def test_missing_file_raises_without_quarantine(tmp_path):
    with pytest.raises(StorageError):
        ColumnarCorpus.open(tmp_path / f"absent{COLUMNAR_SUFFIX}")
    assert cache_corruptions() == ()


def test_format_version_mismatch_quarantined(
    tmp_path, tiny_dataset):
    assert COLUMNAR_FORMAT_VERSION == 1
    path = _pack_tiny(tmp_path, tiny_dataset)
    raw = path.read_bytes()
    mutated = raw.replace(b'"version":1', b'"version":9')
    assert mutated != raw
    # Re-stamp the trailer's footer digest so only the version differs.
    import hashlib
    import struct

    offset, length = struct.unpack("<QQ", mutated[-48:-32])
    footer = mutated[offset : offset + length]
    mutated = mutated[:-32] + hashlib.sha256(footer).digest()
    path.write_bytes(mutated)
    with pytest.warns(CacheCorruptionWarning):
        with pytest.raises(StorageError, match="version"):
            ColumnarCorpus.open(path)
    assert path.with_suffix(path.suffix + ".bad").exists()


# ---------------------------------------------------------------------------
# Disk stats
# ---------------------------------------------------------------------------


def test_disk_stats_accounts_every_plane(corpus):
    disk = corpus.disk_stats()
    assert disk.n_recipes == corpus.n_recipes
    assert disk.n_planes == len(corpus.plane_names())
    assert {plane.name for plane in disk.planes} == set(corpus.plane_names())
    assert disk.total_bytes == corpus.path.stat().st_size
    assert sum(plane.nbytes for plane in disk.planes) <= disk.total_bytes
