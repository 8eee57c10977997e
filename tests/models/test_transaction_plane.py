"""Contract of the transaction plane (DESIGN.md §7).

Every engine hands its recipe pool to the fingerprint, the run cache and
the miner as one :class:`~repro.transactions.TransactionPlane`.  The
contract tested here:

* **content** — a run's plane materializes to exactly the frozensets
  the engines produced before runs carried planes (digests recorded
  then), for both engines, every paper model, ``duplicate_policy=
  "allow"``, short rows, CM-V and the empty pool;
* **keys and mining** — the plane fingerprints and mines exactly like
  its materialized rows, at ingredient and category level, and the
  curve keys recorded before the change still come out;
* **pickling** — a plane round-trips as its arrays, so run-cache
  entries hold no ``frozenset``;
* **no sets on the fig4 path** — ingredient-level ``ensemble_curves``
  over a curve cache never iterates a plane.
"""

from __future__ import annotations

import hashlib
import json
import pickle

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.analysis.itemsets import CATEGORY_INDEX, mine_frequent_itemsets
from repro.config import MiningConfig
from repro.lexicon.categories import Category
from repro.models.batched import run_batched
from repro.models.ensemble import _category_transactions, ensemble_curves
from repro.models.extensions.variable_size import VariableSizeCopyMutate
from repro.models.params import CuisineSpec, ModelParams
from repro.models.registry import create_model
from repro.rng import ensure_rng, rng_from_seed, spawn_seeds
from repro.runtime import CurveCache, RunCache, execute_runs, fingerprint_many
from repro.runtime.curve_cache import transactions_fingerprint
from repro.transactions import TransactionPlane, _pack_rows
from tests.analysis.oracle import eclat

SUPPORT = 0.05

CASES = {
    "CM-R": ("CM-R", {}),
    "CM-C": ("CM-C", {}),
    "CM-M": ("CM-M", {}),
    "NM": ("NM", {}),
    "allow/CM-R": ("CM-R", {"mutations": 8, "duplicate_policy": "allow"}),
    "allow/CM-C": ("CM-C", {"mutations": 8, "duplicate_policy": "allow"}),
    "short/NM": ("NM", {"initial_pool_size": 5}),
    "short/CM-R": ("CM-R", {"initial_pool_size": 3}),
}

#: ``case: (content digest, transactions fingerprint)`` of seed-5 runs,
#: recorded from the frozenset lists runs carried before planes.
RECORDED = {
    "batched/CM-R": (
        "5a454c145ed2555892d18ac40fc2fa54b1e2beb442cbdd80a4fe24b390ac6adb",
        "22199da0c40c380215ec22f4f08c63892c28c4e4cae721c1d6944ff1c3a352c8",
    ),
    "batched/CM-C": (
        "9705dd52f6ea531f2d486211068a41e0bf2556b5def9a90760a466a9f47876d9",
        "394597119814cc9053b5b25ccac90c136c751b1897b6579393710b9b214c5b7c",
    ),
    "batched/CM-M": (
        "8168071c058cf4701ac35dbbf2a485633d714a071af668b9608542a1c8bbe028",
        "4f3d201d14d1bc8ec03f20771fde9b2d81a46e9e66d4dd0a67d860f2450ff55d",
    ),
    "batched/NM": (
        "7ff12c81a0206a48d12bf45c91df95e21081865601bb7ccba0202828196a2b7e",
        "f5abb5f7002b6953b48d34b85b41200015db7c18377255d9cfbb41b44f979593",
    ),
    "batched/allow/CM-R": (
        "17850b3448dc060b4abbd4252de7beb1d678fdfdf1e4c60d17ea8a7dafe56f5b",
        "92598ce42686e4df9d3a12b9705ca89fc555c47582fa43d1e39704022d0a1233",
    ),
    "batched/allow/CM-C": (
        "ed12529943b06b6600450552969cdeafc4c68c99362d0ce93565974f8fba4abf",
        "d095ab141828a153e9de785ea0faed6d55aaa0d7ece862f3a2680bbddc4dc6d1",
    ),
    "batched/short/NM": (
        "b124ee45d6626d57f7b1994c03707352b3319d383ec5f9503c0a46c202ba89aa",
        "5061121d94d2a5ced8c7c3de5c36c0447e3bf5c98822a4b63f727daf31cae9f1",
    ),
    "batched/short/CM-R": (
        "853b435934143e8d99c49ac571d8c94c099bdefa0716a2c63a2d4347e53f06bd",
        "22b6ef1962e1d7ddc1eba55ffb5f7746f2d27a4643d878bc8bb9181c86326f8a",
    ),
    "reference/CM-R": (
        "76c94825da9e2f25f201ae27fee0406e8890c1883bf4c0589d02e66ab3354d07",
        "21bfa1ce12a2ebd65ea4b90a389a88ea48fb6a4fa25b96a4958a98e37b68586c",
    ),
    "reference/CM-C": (
        "9aebf45482ce1762eef04d7a774ef37ff90a6ce395ea6c417df89c217ba2962a",
        "031653ff16e7a9537f59f802d808a29bcf959ad0bb0b6ab7a219609f219ed30d",
    ),
    "reference/CM-M": (
        "288c41579182bceb3437161a1f19027de04efb83db6a8b962fa0ec81fef07b21",
        "fe2ad36330f93911db91075243a549355f50e64526fd2ad5ba112e9d835a1f7a",
    ),
    "reference/NM": (
        "e6770fa35fd85201d2268af3d78a3ab25102b7be612e53dc9aaa5f17febc015a",
        "cd2cfdbbfe66aed3ec72984beb32e36c1c63ed3d6ad9c180867a02bcf70d7062",
    ),
    "reference/allow/CM-R": (
        "a2279eff6ad6850895be45c1b39cde2800cf0c83424937128968ad42e250ab31",
        "e144a0cb7e51751e34d60011cee14edec93868ee6f7be10d1cb75f1c5f89b577",
    ),
    "reference/allow/CM-C": (
        "e9d4d74787de44e6d1747e670f1943d30a53a992e0271a1437f45ebbedf587da",
        "dc2092b55e9cee05c2b42aa687fc2657958ceece647aa9cdc60e09b76c73cbe2",
    ),
    "reference/short/NM": (
        "83df6e0ee20e5e738cac25a3ed76c9da83789b77607cc2d9171a958b18943be7",
        "637f807695abe453ba99a72fdd48522596df5e8102e9e2f0f96f77b7bf3a03fd",
    ),
    "reference/short/CM-R": (
        "0d6917e9ddf924d12f80fce09bbc332f4feb5b42bb7a74f042a88f8605adc93c",
        "3eac0499d300fffd0e7e277179aed9a6fb60d8dd9582d7741699ec153911d8df",
    ),
    "reference/CM-V": (
        "5dcf6484c2981461e0f14a9625ad88ba7e840cf3fab06145a624f58a8c8f99b5",
        "2cc5916e34798e7d205863cebfb729fe87332721807943ccc5df62c9a79f0434",
    ),
}


def _spec() -> CuisineSpec:
    categories = list(Category)[:4]
    return CuisineSpec(
        region_code="TST",
        ingredient_ids=tuple(range(100, 190, 3)),
        categories=tuple(categories[i % 4] for i in range(30)),
        avg_recipe_size=8.0,
        n_recipes=120,
        phi=0.4,
    )


def _run(case: str):
    engine, _, name = case.partition("/")
    if name == "CM-V":
        return VariableSizeCopyMutate().run(_spec(), seed=5)
    model_name, overrides = CASES[name]
    model = create_model(
        model_name, params=ModelParams(engine=engine, **overrides)
    )
    return model.run(_spec(), seed=5)


def _content_digest(transactions) -> str:
    payload = [sorted(t) for t in transactions]
    return hashlib.sha256(json.dumps(payload).encode()).hexdigest()


@pytest.fixture(scope="module")
def runs():
    return {case: _run(case) for case in RECORDED}


# ----------------------------------------------------------------------
# Content
# ----------------------------------------------------------------------


@pytest.mark.parametrize("case", sorted(RECORDED))
def test_plane_materializes_recorded_content(runs, case):
    plane = runs[case].transactions
    assert type(plane) is TransactionPlane
    content, _fingerprint = RECORDED[case]
    assert _content_digest(plane.materialize()) == content


@pytest.mark.parametrize("case", sorted(RECORDED))
def test_plane_rows_are_duplicate_free(runs, case):
    plane = runs[case].transactions
    lengths, flat = plane.csr()
    row_of = np.repeat(np.arange(len(plane)), lengths)
    pairs = np.unique(row_of * plane.ids.size + flat.astype(np.int64))
    assert pairs.size == flat.size
    assert lengths.tolist() == [len(t) for t in plane]
    assert (np.diff(plane.ids) > 0).all()


def test_cases_cover_short_and_collapsed_rows(runs):
    for case in ("batched/short/NM", "batched/allow/CM-R",
                 "batched/allow/CM-C", "reference/CM-V"):
        assert runs[case].transactions.lengths is not None, case
    # A skip-policy batched run wraps the engine's matrix: full rows,
    # no per-row lengths.
    assert runs["batched/CM-R"].transactions.lengths is None


def test_empty_pool():
    plane = TransactionPlane.of([])
    assert len(plane) == 0 and plane == [] and plane.materialize() == []
    assert transactions_fingerprint(plane) == transactions_fingerprint([])
    result = mine_frequent_itemsets(plane, SUPPORT)
    assert result.itemsets == () and result.n_transactions == 0
    empty_rows = TransactionPlane.of([set(), []])
    assert empty_rows == [frozenset(), frozenset()]
    assert mine_frequent_itemsets(empty_rows, SUPPORT).n_transactions == 2


def test_generic_rows_are_deduplicated():
    plane = TransactionPlane.of([[5, 1, 5], (9,), iter([1, 1])])
    assert plane == [frozenset({1, 5}), frozenset({9}), frozenset({1})]
    assert plane.ids.tolist() == [1, 5, 9]


def test_unsorted_id_table_is_reindexed():
    positions = np.array([[0, 1], [2, 2]], dtype=np.int32)
    plane = TransactionPlane.from_positions(
        positions, None, [30, 10, 20], distinct=False
    )
    assert plane.ids.tolist() == [10, 20, 30]
    assert plane == [frozenset({30, 10}), frozenset({20})]


def _pack_rows_with_unique(n_rows, row_of, positions, ids):
    """``_pack_rows`` deduplicating keys with ``np.unique``, as it once did
    (its matrix narrow where the id table fits, as planes now are)."""
    span = max(int(ids.size), 1)
    keys = np.unique(row_of.astype(np.int64) * span + positions)
    row_of = keys // span
    lengths = np.bincount(row_of, minlength=n_rows)
    width = int(lengths.max()) if n_rows else 0
    starts = np.cumsum(lengths) - lengths
    columns = np.arange(keys.size) - starts[row_of]
    matrix = np.zeros(
        (n_rows, width), dtype=np.uint16 if ids.size <= 1 << 16 else np.int32
    )
    matrix[row_of, columns] = keys - row_of * span
    full = bool((lengths == width).all())
    return TransactionPlane(matrix, None if full else lengths, ids)


def _entries_case(n_rows, n_ids, entries):
    """``_pack_rows`` arguments for ``(row, position)`` ``entries``."""
    row_of = np.array([row for row, _ in entries], dtype=np.int64)
    positions = np.array([position for _, position in entries], dtype=np.intp)
    return n_rows, row_of, positions, np.arange(n_ids, dtype=np.int64) * 3 + 1


@st.composite
def _row_entries(draw):
    """Random ``(row, position)`` entries, repeats likely."""
    n_rows = draw(st.integers(0, 6))
    n_ids = draw(st.integers(0, 8))
    entry = st.tuples(
        st.integers(0, max(n_rows - 1, 0)), st.integers(0, max(n_ids - 1, 0))
    )
    entries = draw(st.lists(entry, max_size=30)) if n_rows and n_ids else []
    return _entries_case(n_rows, n_ids, entries)


def _plane_arrays(plane):
    lengths = None if plane.lengths is None else plane.lengths.tolist()
    return plane.positions.dtype, plane.positions.tolist(), lengths, plane.ids.tolist()


@settings(max_examples=200, deadline=None)
@given(_row_entries())
@example(_entries_case(2, 3, []))
@example(_entries_case(2, 3, [(0, 0)]))
@example(_entries_case(2, 3, [(1, 2)] * 3))
def test_pack_rows_matches_unique_keys(case):
    assert _plane_arrays(_pack_rows(*case)) == _plane_arrays(
        _pack_rows_with_unique(*case)
    )


# ----------------------------------------------------------------------
# Keys and mining
# ----------------------------------------------------------------------


@pytest.mark.parametrize("case", sorted(RECORDED))
def test_plane_fingerprint_matches_recorded_and_materialized(runs, case):
    plane = runs[case].transactions
    _content, fingerprint = RECORDED[case]
    assert transactions_fingerprint(plane) == fingerprint
    assert transactions_fingerprint(plane.materialize()) == fingerprint


@pytest.mark.parametrize("case", sorted(RECORDED))
def test_plane_mines_like_oracle(runs, case):
    plane = runs[case].transactions
    expected = eclat(plane.materialize(), SUPPORT)
    mined = mine_frequent_itemsets(plane, SUPPORT)
    assert mined.itemsets == expected.itemsets
    assert mined.n_transactions == expected.n_transactions


@pytest.mark.parametrize("case", sorted(RECORDED))
def test_category_plane_mines_like_oracle(runs, case):
    run = runs[case]
    spec = _spec()
    category_of = dict(zip(spec.ingredient_ids, spec.categories))
    expected_rows = [
        frozenset(CATEGORY_INDEX[category_of[i]] for i in transaction)
        for transaction in run.transactions.materialize()
    ]
    plane = _category_transactions(run, spec)
    assert plane == expected_rows
    assert transactions_fingerprint(plane) == transactions_fingerprint(
        expected_rows
    )
    mined = mine_frequent_itemsets(plane, SUPPORT)
    assert mined.itemsets == eclat(expected_rows, SUPPORT).itemsets


# ----------------------------------------------------------------------
# Pickling
# ----------------------------------------------------------------------


@pytest.mark.parametrize("case", sorted(RECORDED))
def test_pickle_round_trip_returns_equal_plane(runs, case):
    plane = runs[case].transactions
    restored = pickle.loads(pickle.dumps(plane))
    assert type(restored) is TransactionPlane
    assert restored == plane
    assert restored.positions.dtype == np.uint16
    assert transactions_fingerprint(restored) == transactions_fingerprint(
        plane
    )


def test_batched_planes_are_uint16_views_pickled_in_place():
    """A batched cell's planes are uint16 views of its one recipe
    tensor, and protocol 5 hands out that memory, not a copy of it."""
    rngs = [rng_from_seed(seed) for seed in (3, 5, 8)]
    planes = [
        run.transactions
        for run in run_batched(create_model("CM-M"), _spec(), rngs)
    ]
    tensor = planes[0].positions.base
    assert tensor is not None and tensor.dtype == np.uint16
    for plane in planes:
        assert plane.positions.dtype == np.uint16
        assert plane.positions.base is tensor
        buffers = []
        pickle.dumps(plane, protocol=5, buffer_callback=buffers.append)
        handed = [np.frombuffer(buffer.raw(), np.uint8) for buffer in buffers]
        assert any(np.shares_memory(data, plane.positions) for data in handed)


def test_run_cache_entries_hold_no_frozenset(tmp_path):
    cache = RunCache(tmp_path)
    seeds = spawn_seeds(ensure_rng(3), 3)
    execute_runs(create_model("CM-R"), _spec(), seeds, cache=cache)
    entries = sorted(tmp_path.glob("*.run.pkl"))
    assert len(entries) == 1  # the batched cell's one entry
    for entry in entries:
        payload = entry.read_bytes()
        assert b"frozenset" not in payload
        assert b"TransactionPlane" in payload


# ----------------------------------------------------------------------
# No sets on the fig4 path
# ----------------------------------------------------------------------


def test_ingredient_curves_never_iterate_a_plane(monkeypatch, tmp_path):
    model = create_model("CM-M")
    seeds = spawn_seeds(ensure_rng(4), 4)
    runs = execute_runs(model, _spec(), seeds)
    keys = fingerprint_many(model, _spec(), seeds)
    cells = [(runs[:2], "CM-M", keys[:2]), (runs[2:], "CM-M", keys[2:])]
    calls = []

    def spy(self):
        calls.append(self)
        raise AssertionError("a plane was iterated")

    monkeypatch.setattr(TransactionPlane, "__iter__", spy)
    cache = CurveCache(tmp_path)
    mining = MiningConfig(min_support=SUPPORT)
    cold = ensemble_curves(cells, mining=mining, curve_cache=cache)
    warm = ensemble_curves(cells, mining=mining, curve_cache=cache)
    assert calls == []
    assert cache.stats.hits == 2  # one entry per cell
    for first, second in zip(cold, warm):
        assert np.array_equal(first.frequencies, second.frequencies)
