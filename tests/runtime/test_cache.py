"""Tests for the on-disk run cache."""

from __future__ import annotations

import pytest

from repro.errors import ModelError, ParameterError, RunCacheError
from repro.models.ensemble import run_ensemble
from repro.models.registry import create_model
from repro.rng import ensure_rng, spawn_seeds
from repro.runtime import (
    CacheCorruptionWarning,
    RunCache,
    RuntimeConfig,
    execute_runs,
    run_fingerprint,
)


def _signature(runs):
    return [(run.transactions, run.trace) for run in runs]


def test_cold_cache_misses_then_stores(tiny_spec, tmp_path):
    cache = RunCache(tmp_path)
    model = create_model("CM-R")
    seeds = spawn_seeds(ensure_rng(1), 4)
    execute_runs(model, tiny_spec, seeds, cache=cache)
    assert cache.stats.misses == 4
    assert cache.stats.hits == 0
    assert cache.stats.stores == 4
    assert len(cache) == 4


def test_warm_cache_serves_identical_runs(tiny_spec, tmp_path):
    cache = RunCache(tmp_path)
    model = create_model("CM-R")
    seeds = spawn_seeds(ensure_rng(1), 4)
    first = execute_runs(model, tiny_spec, seeds, cache=cache)
    second = execute_runs(model, tiny_spec, seeds, cache=cache)
    assert cache.stats.hits == 4
    assert cache.stats.stores == 4  # nothing re-stored
    assert _signature(first) == _signature(second)


def test_partial_hit_executes_only_misses(tiny_spec, tmp_path):
    cache = RunCache(tmp_path)
    model = create_model("CM-R")
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
    assert cache.stats.hits == 4 and cache.stats.misses == 0
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


def test_cache_write_failure_does_not_discard_results(tiny_spec, tmp_path,
                                                      monkeypatch):
    """A failing cache.put must degrade, not abort the ensemble."""
    cache = RunCache(tmp_path)

    def broken_put(key, run):
        raise RunCacheError("disk full")

    monkeypatch.setattr(cache, "put", broken_put)
    model = create_model("CM-R")
    seeds = spawn_seeds(ensure_rng(1), 3)
    runs = execute_runs(model, tiny_spec, seeds, cache=cache)
    assert len(runs) == 3 and all(run is not None for run in runs)
    assert _signature(runs) == _signature(
        execute_runs(model, tiny_spec, seeds)
    )


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
    assert len(RunCache(tmp_path)) == 3
    second = run_ensemble(model, tiny_spec, n_runs=3, seed=2, runtime=config)
    assert _signature(first.runs) == _signature(second.runs)


def test_cache_rejects_file_path(tmp_path):
    target = tmp_path / "occupied"
    target.write_text("hello")
    with pytest.raises(RunCacheError):
        RunCache(target)


def test_cache_clear(tiny_spec, tmp_path):
    cache = RunCache(tmp_path)
    model = create_model("CM-R")
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
    assert cache.stats.stores == 6


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
    model = create_model("CM-R")
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

    from repro.runtime import cache_corruptions
    from repro.transactions import _narrow

    cache = RunCache(tmp_path)
    model = create_model("CM-R")
    seed = spawn_seeds(ensure_rng(1), 1)[0]
    (run,) = execute_runs(model, tiny_spec, [seed], cache=cache)
    key = run_fingerprint(model, tiny_spec, seed)
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
