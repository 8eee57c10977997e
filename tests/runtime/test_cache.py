"""Tests for the on-disk run cache."""

from __future__ import annotations

import copy
import dataclasses
import gc

import numpy as np
import pytest

from repro import durable
from repro.config import MiningConfig
from repro.errors import ModelError, ParameterError, RunCacheError
from repro.experiments.fig4 import CellCurve
from repro.lexicon.categories import Category
from repro.models.ensemble import ensemble_curve, run_ensemble
from repro.models.params import CuisineSpec
from repro.models.registry import create_model
from repro.rng import ensure_rng, spawn_seeds
from repro.runtime import (
    CacheCorruptionWarning,
    CacheWriteFailureWarning,
    RunCache,
    RuntimeConfig,
    cache_corruptions,
    cache_write_failures,
    cell_curve_key,
    execute_runs,
    execute_sweep,
    fingerprint_many,
    item_key,
    plan_grid,
    run_fingerprint,
)
from repro.runtime import cache as cache_module


def _signature(runs):
    return [(run.transactions, run.trace) for run in runs]


def _write_failure_warnings(caught) -> list:
    return [
        w for w in caught if issubclass(w.category, CacheWriteFailureWarning)
    ]


def test_cold_cache_misses_then_stores(tiny_spec, tmp_path):
    """A batched cell is one work item, so one lookup and one entry."""
    cache = RunCache(tmp_path)
    model = create_model("CM-R")
    seeds = spawn_seeds(ensure_rng(1), 4)
    execute_runs(model, tiny_spec, seeds, cache=cache)
    assert cache.stats.misses == 1
    assert cache.stats.hits == 0
    assert cache.stats.stores == 1
    assert len(cache) == 1
    keys = fingerprint_many(model, tiny_spec, seeds)
    assert cache.path_for(item_key(keys)).exists()


def test_reference_cell_stores_one_entry_per_run(tiny_spec, tmp_path):
    """A reference cell is one work item per seed, each its own entry."""
    cache = RunCache(tmp_path)
    model = create_model("CM-R", engine="reference")
    seeds = spawn_seeds(ensure_rng(1), 4)
    execute_runs(model, tiny_spec, seeds, cache=cache)
    assert (cache.stats.misses, cache.stats.stores, len(cache)) == (4, 4, 4)


def test_warm_cache_serves_identical_runs(tiny_spec, tmp_path):
    cache = RunCache(tmp_path)
    model = create_model("CM-R")
    seeds = spawn_seeds(ensure_rng(1), 4)
    first = execute_runs(model, tiny_spec, seeds, cache=cache)
    second = execute_runs(model, tiny_spec, seeds, cache=cache)
    assert cache.stats.hits == 1
    assert cache.stats.stores == 1  # nothing re-stored
    assert _signature(first) == _signature(second)


def test_partial_hit_executes_only_misses(tiny_spec, tmp_path):
    """A multi-item (reference) cell is partly served, item by item."""
    cache = RunCache(tmp_path)
    model = create_model("CM-R", engine="reference")
    seeds = spawn_seeds(ensure_rng(1), 4)
    execute_runs(model, tiny_spec, seeds[:2], cache=cache)
    runs = execute_runs(model, tiny_spec, seeds, cache=cache)
    assert cache.stats.hits == 2
    assert cache.stats.stores == 4
    assert _signature(runs) == _signature(
        execute_runs(model, tiny_spec, seeds)
    )


def test_cache_is_shared_across_backends(tiny_spec, tmp_path):
    model = create_model("CM-M")
    seeds = spawn_seeds(ensure_rng(9), 4)
    process_cfg = RuntimeConfig(
        backend="process", jobs=2, cache_dir=tmp_path
    )
    populated = execute_runs(model, tiny_spec, seeds, runtime=process_cfg)

    cache = RunCache(tmp_path)
    served = execute_runs(model, tiny_spec, seeds, cache=cache)
    assert cache.stats.hits == 1 and cache.stats.misses == 0
    assert _signature(served) == _signature(populated)


def test_distinct_inputs_do_not_collide(tiny_spec, tmp_path):
    seed = spawn_seeds(ensure_rng(1), 1)[0]
    fingerprints = {
        run_fingerprint(create_model("CM-R"), tiny_spec, seed),
        run_fingerprint(create_model("CM-C"), tiny_spec, seed),
        run_fingerprint(create_model("CM-R"), tiny_spec, seed + 1),
        run_fingerprint(
            create_model("CM-R"), tiny_spec, seed, record_history=True
        ),
        run_fingerprint(
            create_model("CM-R", params=create_model("CM-R")
                         .params.with_mutations(9)),
            tiny_spec, seed,
        ),
    }
    assert len(fingerprints) == 5


def test_fingerprint_covers_non_param_model_state(tiny_spec):
    """Regression: behavioral knobs stored as plain attributes (e.g.
    NullModel.sample_from) must reach the cache key, or the two
    ablation variants would silently share cached runs."""
    from repro.models.null_model import NullModel

    seed = spawn_seeds(ensure_rng(1), 1)[0]
    assert run_fingerprint(
        NullModel(sample_from="pool"), tiny_spec, seed
    ) != run_fingerprint(NullModel(sample_from="universe"), tiny_spec, seed)


def test_fingerprint_is_stable_for_equal_inputs(tiny_spec):
    seed = 424242
    assert run_fingerprint(
        create_model("NM"), tiny_spec, seed
    ) == run_fingerprint(create_model("NM"), tiny_spec, seed)


class _PlainFitness:
    """A user FitnessStrategy that is not a dataclass."""

    def __init__(self, bias: float):
        self.bias = bias

    def assign(self, ingredient_ids, rng):
        import numpy as np

        return np.full(len(ingredient_ids), self.bias)


def test_fingerprint_stable_for_non_dataclass_attributes(tiny_spec):
    """Regression: plain-object attributes must key on class + state,
    not repr() (whose default embeds the memory address, which made
    every identical config miss the cache)."""
    seed = 7
    a = run_fingerprint(
        create_model("CM-R", fitness=_PlainFitness(0.5)), tiny_spec, seed
    )
    b = run_fingerprint(
        create_model("CM-R", fitness=_PlainFitness(0.5)), tiny_spec, seed
    )
    c = run_fingerprint(
        create_model("CM-R", fitness=_PlainFitness(0.9)), tiny_spec, seed
    )
    assert a == b
    assert a != c


def test_fingerprint_handles_array_valued_attributes(tiny_spec):
    """Regression: a strategy holding a numpy array must fingerprint
    (tolist), not crash on the scalar-only ``.item()`` branch."""
    import numpy as np

    class _ArrayFitness:
        def __init__(self):
            self.scores = np.array([0.1, 0.9])

        def assign(self, ingredient_ids, rng):
            return np.full(len(ingredient_ids), 0.5)

    seed = 7
    a = run_fingerprint(
        create_model("CM-R", fitness=_ArrayFitness()), tiny_spec, seed
    )
    b = run_fingerprint(
        create_model("CM-R", fitness=_ArrayFitness()), tiny_spec, seed
    )
    assert a == b


def test_fingerprint_many_matches_single(tiny_spec):
    from repro.runtime import fingerprint_many

    model = create_model("CM-R")
    seeds = spawn_seeds(ensure_rng(3), 4)
    batch = fingerprint_many(model, tiny_spec, seeds)
    assert batch == [
        run_fingerprint(model, tiny_spec, seed) for seed in seeds
    ]
    assert len(set(batch)) == len(batch)


#: A fixed tiny cell for the key pins below; its keys were recorded
#: at CACHE_FORMAT_VERSION 7 and CURVE_FORMAT_VERSION 3.
PIN_SPEC = CuisineSpec(
    region_code="PIN",
    ingredient_ids=(2, 3, 5, 7, 11, 13),
    categories=(Category.VEGETABLE, Category.SPICE, Category.DAIRY) * 2,
    avg_recipe_size=3.0,
    n_recipes=12,
    phi=0.5,
)
PIN_SEEDS = (0, 1, 2**40 + 7)


def test_run_keys_are_pinned():
    # Every cached run and curve is found by these keys; a change to
    # the canonical encoding that is not a deliberate format bump
    # loses them all.  The curve-key scheme itself is pinned in
    # test_curve_cache.py.
    keys = fingerprint_many(create_model("CM-C"), PIN_SPEC, PIN_SEEDS)
    assert keys[0] == (
        "96248111fd488121fbbca5a432c24e6d2b20e801005216ed8d06db58073766dd"
    )
    assert item_key(keys) == (
        "1a4be8b6f613c05eb4b4ad4293e762cad4587237763fbc01b6967ccc843f55d8"
    )
    assert cell_curve_key(keys, MiningConfig(min_support=0.05)) == (
        "c9a2c95f19492fa69b6706a97eded8f6a837f588161897f5795a105f3b216a70"
    )


def test_run_keys_follow_the_spec_value_not_its_object():
    """A spec's encoding is computed once per spec object and reused;
    equal specs must still share keys and changed specs never."""
    model = create_model("CM-C")

    def keyed(spec):
        return fingerprint_many(model, spec, PIN_SEEDS)

    pinned = keyed(PIN_SPEC)
    assert keyed(PIN_SPEC) == pinned  # the reused encoding
    assert keyed(dataclasses.replace(PIN_SPEC)) == pinned
    assert keyed(copy.deepcopy(PIN_SPEC)) == pinned
    assert keyed(PIN_SPEC.scaled(13)) != pinned
    recategorized = dataclasses.replace(
        PIN_SPEC, categories=(Category.MEAT,) * PIN_SPEC.n_ingredients
    )
    assert keyed(recategorized) != pinned
    # Short-lived specs free their ids for the next one; a reused id
    # must never serve the dead spec's encoding.
    fresh = [keyed(PIN_SPEC.scaled(n))[0] for n in range(20, 60)]
    assert len(set(fresh)) == len(fresh)


def test_spec_encodings_leave_with_their_spec():
    before = len(cache_module._SPEC_ENCODINGS)
    spec = PIN_SPEC.scaled(99)
    fingerprint_many(create_model("CM-R"), spec, [1])
    assert len(cache_module._SPEC_ENCODINGS) == before + 1
    del spec
    gc.collect()
    assert len(cache_module._SPEC_ENCODINGS) == before


def test_cache_write_failure_does_not_discard_results(tiny_spec, tmp_path,
                                                      monkeypatch):
    """A failing cache.put must degrade, not abort the ensemble."""
    cache = RunCache(tmp_path)

    def broken_put(key, run):
        raise RunCacheError("disk full")

    monkeypatch.setattr(cache, "put", broken_put)
    model = create_model("CM-R")
    seeds = spawn_seeds(ensure_rng(1), 3)
    with pytest.warns(CacheWriteFailureWarning) as caught:
        runs = execute_runs(model, tiny_spec, seeds, cache=cache)
    assert len(_write_failure_warnings(caught)) == 1
    (failure,) = cache_write_failures()
    assert (failure.store, failure.error, failure.detail) == (
        "RunCache", "RunCacheError", "disk full"
    )
    assert len(runs) == 3 and all(run is not None for run in runs)
    assert _signature(runs) == _signature(
        execute_runs(model, tiny_spec, seeds)
    )


def test_cache_write_failure_inside_reduced_item_keeps_curves(
    tiny_spec, tmp_path, monkeypatch
):
    """A failing put inside a reduced item must not lose the cell's curve.

    ``put`` is patched on the class, so the cache the item constructs to
    write its runs through is the one that fails.
    """
    calls = []

    def broken_put(self, key, run):
        calls.append(key)
        raise RunCacheError("disk full")

    monkeypatch.setattr(RunCache, "put", broken_put)
    plan = plan_grid([create_model("CM-R")], [tiny_spec], n_runs=3, seed=1)
    reducer = CellCurve(mining=MiningConfig())
    with pytest.warns(CacheWriteFailureWarning) as caught:
        result = execute_sweep(
            plan, runtime=RuntimeConfig(cache_dir=tmp_path), reduce=reducer
        )
    assert calls  # the write-through really failed
    assert [event.key for event in cache_write_failures()] == calls
    assert len(_write_failure_warnings(caught)) == 1
    assert len(RunCache(tmp_path)) == 0
    expected = ensemble_curve(execute_sweep(plan).cells[0].runs, "CM-R")
    curve = result.cells[0].reduction
    assert np.array_equal(curve.frequencies, expected.frequencies)
    assert result.executed == 3


def test_corrupt_entry_is_a_miss_and_recomputed(tiny_spec, tmp_path):
    cache = RunCache(tmp_path)
    model = create_model("CM-R")
    seeds = spawn_seeds(ensure_rng(1), 2)
    clean = execute_runs(model, tiny_spec, seeds, cache=cache)

    for path in tmp_path.glob("*.run.pkl"):
        path.write_bytes(b"not a pickle")
    with pytest.warns(CacheCorruptionWarning):
        recovered = execute_runs(model, tiny_spec, seeds, cache=cache)
    assert _signature(recovered) == _signature(clean)
    # the corrupt files were replaced with good entries
    rewarmed = execute_runs(model, tiny_spec, seeds, cache=cache)
    assert _signature(rewarmed) == _signature(clean)


def test_run_ensemble_uses_cache_dir_from_runtime(tiny_spec, tmp_path):
    model = create_model("CM-R")
    config = RuntimeConfig(cache_dir=tmp_path)
    first = run_ensemble(model, tiny_spec, n_runs=3, seed=2, runtime=config)
    assert len(RunCache(tmp_path)) == 1
    second = run_ensemble(model, tiny_spec, n_runs=3, seed=2, runtime=config)
    assert _signature(first.runs) == _signature(second.runs)


def test_cache_rejects_file_path(tmp_path):
    target = tmp_path / "occupied"
    target.write_text("hello")
    with pytest.raises(RunCacheError):
        RunCache(target)


def test_cache_clear(tiny_spec, tmp_path):
    cache = RunCache(tmp_path)
    model = create_model("CM-R", engine="reference")
    execute_runs(model, tiny_spec, spawn_seeds(ensure_rng(1), 3), cache=cache)
    assert cache.clear() == 3
    assert len(cache) == 0


def test_cache_stats_hit_rate():
    from repro.runtime import CacheStats

    stats = CacheStats()
    assert stats.hit_rate() == 0.0
    stats.hits, stats.misses = 3, 1
    assert stats.hit_rate() == pytest.approx(0.75)


def test_engine_distinguishes_cache_keys(tiny_spec):
    """Reference and batched runs must never share a cache entry."""
    seed = spawn_seeds(ensure_rng(1), 1)[0]
    reference = run_fingerprint(
        create_model("CM-R", engine="reference"), tiny_spec, seed
    )
    batched = run_fingerprint(
        create_model("CM-R", engine="batched"), tiny_spec, seed
    )
    assert reference != batched
    # Per-request engine override is keyed too, and a request override
    # matching the params engine keys identically.
    overridden = run_fingerprint(
        create_model("CM-R", engine="batched"), tiny_spec, seed,
        engine="reference",
    )
    assert overridden != batched
    assert run_fingerprint(
        create_model("CM-R", engine="batched"), tiny_spec, seed,
        engine="batched",
    ) == batched


def test_cached_reference_runs_not_served_to_batched(tiny_spec, tmp_path):
    """End to end: switching engines misses instead of replaying."""
    cache = RunCache(tmp_path)
    seeds = spawn_seeds(ensure_rng(2), 3)
    execute_runs(
        create_model("CM-R", engine="reference"), tiny_spec, seeds,
        cache=cache,
    )
    assert cache.stats.stores == 3
    execute_runs(
        create_model("CM-R", engine="batched"), tiny_spec, seeds,
        cache=cache,
    )
    assert cache.stats.hits == 0
    assert cache.stats.stores == 4


def test_cached_reference_runs_not_served_to_vectorized(tiny_spec, tmp_path):
    """End to end: a request for the retired ``"vectorized"`` engine is
    refused instead of replaying cached reference runs."""
    cache = RunCache(tmp_path)
    seeds = spawn_seeds(ensure_rng(2), 3)
    execute_runs(
        create_model("CM-R", engine="reference"), tiny_spec, seeds,
        cache=cache,
    )
    assert cache.stats.stores == 3
    with pytest.raises(ModelError, match="unknown engine"):
        execute_runs(
            create_model("CM-R", engine="reference"), tiny_spec, seeds,
            cache=cache, engine="vectorized",
        )
    with pytest.raises(ParameterError):
        create_model("CM-R", engine="vectorized")
    assert cache.stats.hits == 0
    assert cache.stats.stores == 3


def test_prune_older_than_removes_only_stale_entries(tiny_spec, tmp_path):
    import os
    import time

    cache = RunCache(tmp_path)
    model = create_model("CM-R", engine="reference")
    seeds = spawn_seeds(ensure_rng(1), 4)
    execute_runs(model, tiny_spec, seeds, cache=cache)
    paths = sorted(tmp_path.glob("*.run.pkl"))
    assert len(paths) == 4

    now = time.time()
    stale = now - 10 * 86400
    for path in paths[:2]:
        os.utime(path, (stale, stale))
    removed = cache.prune_older_than(7 * 86400, now=now)
    assert removed == 2
    assert len(cache) == 2
    # Survivors still serve hits.
    runs = execute_runs(model, tiny_spec, seeds, cache=cache)
    assert len(runs) == 4
    assert cache.stats.hits == 2


def test_prune_rejects_negative_age(tmp_path):
    cache = RunCache(tmp_path)
    with pytest.raises(RunCacheError):
        cache.prune_older_than(-1)


def test_prune_empty_cache_is_noop(tmp_path):
    assert RunCache(tmp_path).prune_older_than(0) == 0


def test_bit_flip_in_array_data_is_a_recorded_miss(tiny_spec, tmp_path):
    """One flipped byte inside a cached run's array data must not load.

    A pickle loads happily with a damaged numpy buffer and would hand
    back a run whose transactions differ from the cached one; the
    checksum frame turns the damage into a recorded miss instead.
    """
    import numpy as np

    from repro.transactions import _narrow

    cache = RunCache(tmp_path)
    model = create_model("CM-R")
    seed = spawn_seeds(ensure_rng(1), 1)[0]
    (run,) = execute_runs(model, tiny_spec, [seed], cache=cache)
    key = item_key([run_fingerprint(model, tiny_spec, seed)])
    path = cache.path_for(key)
    raw = bytearray(path.read_bytes())
    positions = _narrow(np.asarray(run.transactions.positions)).tobytes()
    start = raw.find(positions)
    assert start > 0 and len(positions) > 2
    raw[start + len(positions) // 2] ^= 0x01
    path.write_bytes(bytes(raw))

    with pytest.warns(CacheCorruptionWarning):
        assert cache.get(key) is None
    (event,) = cache_corruptions()
    assert event.kind == "checksum-mismatch"
    assert event.action == "removed"
    assert not path.exists()


def test_corruption_warns_once_per_store_and_kind(tmp_path):
    cache = RunCache(tmp_path)
    for key in ("a", "b"):
        cache.put(key, "x")
        cache.path_for(key).write_bytes(b"junk")
    with pytest.warns(CacheCorruptionWarning) as caught:
        assert cache.get("a") is None
        # Same (store, kind) again: recorded, but no second warning.
        assert cache.get("b") is None
    warned = [w for w in caught if w.category is CacheCorruptionWarning]
    assert len(warned) == 1 and "RunCache" in str(warned[0].message)
    assert len(cache_corruptions()) == 2


def test_run_cache_corrupt_entry_event_and_orphan_sweep(tmp_path):
    cache = RunCache(tmp_path)
    path = cache.path_for("deadbeef")
    path.write_bytes(b"not a pickle")
    with pytest.warns(CacheCorruptionWarning):
        assert cache.get("deadbeef") is None
    assert not path.exists()  # still evicted, as before
    events = cache_corruptions()
    assert len(events) == 1
    assert events[0].store == "RunCache"
    assert events[0].kind == durable.TORN
    assert events[0].action == "removed"

    # Crash-window temp: the same name put() would have used mid-write.
    orphan = durable.tmp_path_for(path)
    orphan.write_bytes(b"half an entry")
    assert cache.orphan_tmp_paths() == [orphan]
    assert cache.clear() == 1  # just the orphan; real entry already gone
    assert cache.orphan_tmp_paths() == []


def test_run_cache_prune_removes_aged_orphan_tmp(tmp_path):
    cache = RunCache(tmp_path)
    orphan = durable.tmp_path_for(cache.path_for("cafe"))
    orphan.write_bytes(b"x")
    assert cache.prune_older_than(3600.0) == 0  # too young
    assert orphan.exists()
    assert cache.prune_older_than(0.0) == 1
    assert not orphan.exists()


def test_unpicklable_payload_is_a_cache_error_and_leaves_no_temp(tmp_path):
    """Pickle raises a bare ``TypeError`` for a lock; ``put`` maps it to
    :class:`RunCacheError` like any other write failure."""
    import threading

    cache = RunCache(tmp_path)
    with pytest.raises(RunCacheError, match="pickle"):
        cache.put("ab" * 32, [threading.Lock()])
    assert list(tmp_path.iterdir()) == []
    assert cache.stats.stores == 0


def test_sweep_with_unpicklable_runs_still_returns_them(
    tiny_spec, tmp_path, monkeypatch
):
    """A run that cannot be pickled fails its cache write, and the sweep
    keeps the computed runs instead of raising."""
    import dataclasses
    import threading

    from repro.runtime import runner

    real = runner._execute_work

    def with_lock(item):
        return [
            dataclasses.replace(run, history=threading.Lock())
            for run in real(item)
        ]

    monkeypatch.setattr(runner, "_execute_work", with_lock)
    plan = plan_grid([create_model("CM-R")], [tiny_spec], n_runs=3, seed=4)
    with pytest.warns(CacheWriteFailureWarning) as caught:
        result = execute_sweep(plan, runtime=RuntimeConfig(cache_dir=tmp_path))
    assert result.executed == 3 and len(result.cells[0].runs) == 3
    assert list(tmp_path.iterdir()) == []  # no entry, no temp
    # The one failed write is recorded, with its cause, and warns once.
    (failure,) = cache_write_failures()
    assert (failure.store, failure.error) == ("RunCache", "TypeError")
    assert len(_write_failure_warnings(caught)) == 1
    monkeypatch.undo()
    assert _signature(result.cells[0].runs) == _signature(
        execute_sweep(plan).cells[0].runs
    )


def _frame_parts(data: bytes) -> tuple[int, list[int]]:
    """Offset of the first buffer and the buffer sizes of one frame."""
    import struct

    _magic, _version, count, meta_size, _digest = struct.unpack_from(
        "<8sIIQ32s", data
    )
    sizes = list(struct.unpack_from(f"<{count}Q", data, 56))
    return 56 + 8 * count + meta_size, sizes


def _truncate_in_buffer(path, cache, key, runs):
    data = path.read_bytes()
    start, sizes = _frame_parts(data)
    path.write_bytes(data[:start + sizes[0] // 2])


def _flip_in_buffer(path, cache, key, runs):
    data = bytearray(path.read_bytes())
    start, sizes = _frame_parts(bytes(data))
    data[start + sizes[0] // 2] ^= 0x01
    path.write_bytes(bytes(data))


def _flip_in_size_table(path, cache, key, runs):
    data = bytearray(path.read_bytes())
    data[56] ^= 0x01
    path.write_bytes(bytes(data))


def _old_frame(path, cache, key, runs):
    """An entry in the previous frame layout (one in-band pickle)."""
    import hashlib
    import pickle
    import struct

    blob = pickle.dumps(tuple(runs), protocol=pickle.HIGHEST_PROTOCOL)
    path.write_bytes(struct.pack(
        "<8sIQ32s", b"RPFRAME\x01", 6, len(blob), hashlib.sha256(blob).digest()
    ) + blob)


def _short_tuple(path, cache, key, runs):
    cache.put(key, runs[:-1])


@pytest.mark.parametrize(
    ("damage", "kind"),
    [
        (_truncate_in_buffer, durable.TORN),
        (_flip_in_buffer, durable.CHECKSUM_MISMATCH),
        (_flip_in_size_table, durable.TORN),
        (_old_frame, durable.FORMAT_VERSION),
        (_short_tuple, durable.FORMAT_VERSION),
    ],
    ids=["truncated-buffer", "flipped-buffer", "flipped-size-table",
         "old-frame", "short-tuple"],
)
def test_damaged_item_entry_is_one_recorded_miss_then_recomputed(
    tiny_spec, tmp_path, damage, kind
):
    cache = RunCache(tmp_path)
    model = create_model("CM-R")
    seeds = spawn_seeds(ensure_rng(3), 3)
    clean = execute_runs(model, tiny_spec, seeds, cache=cache)
    key = item_key(fingerprint_many(model, tiny_spec, seeds))
    path = cache.path_for(key)
    damage(path, cache, key, clean)

    with pytest.warns(CacheCorruptionWarning):
        recovered = execute_runs(model, tiny_spec, seeds, cache=cache)
    (event,) = cache_corruptions()
    assert (event.store, event.kind, event.action) == (
        "RunCache", kind, "removed"
    )
    assert _signature(recovered) == _signature(clean)
    # The recompute wrote a good entry back, which now serves whole.
    hits = cache.stats.hits
    assert _signature(
        execute_runs(model, tiny_spec, seeds, cache=cache)
    ) == _signature(clean)
    assert cache.stats.hits == hits + 1
