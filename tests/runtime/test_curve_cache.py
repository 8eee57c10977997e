"""Tests for the mined-curve cache (key schemes, hit/miss, coexistence)."""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.analysis.invariants import combination_curve
from repro.analysis.itemsets import CATEGORY_INDEX, mine_frequencies
from repro.analysis.rank_frequency import RankFrequencyCurve, average_curves
from repro.config import MiningConfig
from repro.errors import ModelError, RunCacheError
from repro.experiments.fig4 import CellCurve
from repro.lexicon.categories import Category
from repro.models import ensemble
from repro.models.ensemble import ensemble_curve
from repro.models.params import ModelParams
from repro.models.registry import create_model
from repro.rng import ensure_rng, spawn_seeds
from repro.runtime import (
    CacheCorruptionWarning,
    CacheWriteFailureWarning,
    CurveCache,
    RunCache,
    RuntimeConfig,
    cache_corruptions,
    cache_write_failures,
    cell_curve_key,
    curve_key,
    execute_runs,
    execute_sweep,
    fingerprint_many,
    plan_grid,
    transactions_fingerprint,
)

TXNS = [frozenset({1, 2, 3}), frozenset({2, 3}), frozenset({1})]
MINING = MiningConfig(min_support=0.05)


def test_fingerprint_ignores_repeated_items():
    # Repeats within a transaction do not change what is mined, so they
    # must not change the key either.
    assert transactions_fingerprint([[1, 2, 2]]) == transactions_fingerprint(
        [{1, 2}]
    )
    assert transactions_fingerprint([(3, 1, 3), [2, 2]]) == (
        transactions_fingerprint([{1, 3}, {2}])
    )


def test_curve_keys_are_pinned():
    # The fingerprint was recorded before runs carried transaction
    # planes; the key was recorded at CURVE_FORMAT_VERSION 3.  A change
    # to either that is not a deliberate format bump loses every
    # cached curve.
    pool = [{1, 2, 3}, {2, 5}, {7}, {3, 1}, set()]
    fingerprint = transactions_fingerprint(pool)
    assert fingerprint == (
        "963329927f268de11ad00d166f3092f63bcf9c8c62403352400c467b97356fc6"
    )
    assert curve_key(fingerprint, MINING) == (
        "6930da1b74e6d379b6717ecaddd865a544128b2519bcaf70b695a0277f617076"
    )


def test_fingerprint_is_content_addressed():
    same = transactions_fingerprint([{3, 2, 1}, {3, 2}, {1}])
    assert transactions_fingerprint(TXNS) == same  # item order irrelevant
    reordered = transactions_fingerprint([TXNS[1], TXNS[0], TXNS[2]])
    assert reordered != transactions_fingerprint(TXNS)  # txn order matters
    assert transactions_fingerprint([]) != transactions_fingerprint([set()])


def test_curve_key_covers_mining_config_and_kind():
    fp = transactions_fingerprint(TXNS)
    base = curve_key(fp, MINING)
    assert curve_key(fp, MINING) == base
    assert curve_key(fp, MiningConfig(min_support=0.1)) != base
    assert curve_key(fp, MiningConfig(max_size=2)) != base
    assert curve_key(fp, MINING, level="category") != base
    assert curve_key(fp, MINING, kind="mining") != base
    other_fp = transactions_fingerprint([{9}])
    assert curve_key(other_fp, MINING) != base


def test_hit_miss_store_roundtrip(tmp_path):
    cache = CurveCache(tmp_path)
    key = curve_key(transactions_fingerprint(TXNS), MINING)
    assert cache.get(key) is None
    assert cache.stats.misses == 1
    frequencies = np.array([0.9, 0.5, 0.5])
    cache.put(key, frequencies)
    loaded = cache.get(key)
    assert np.array_equal(loaded, frequencies)
    assert cache.stats.hits == 1 and cache.stats.stores == 1


def test_changed_fingerprint_or_config_misses(tmp_path):
    cache = CurveCache(tmp_path)
    fp = transactions_fingerprint(TXNS)
    cache.put(curve_key(fp, MINING), np.array([1.0]))
    # Different transactions -> miss.
    assert cache.get(
        curve_key(transactions_fingerprint([{4}]), MINING)
    ) is None
    # Different mining config -> miss.
    assert cache.get(
        curve_key(fp, MiningConfig(min_support=0.2))
    ) is None


def test_shares_directory_with_run_cache(tmp_path):
    run_cache = RunCache(tmp_path)
    curve_cache = CurveCache(tmp_path)
    run_cache.put("a" * 64, {"fake": "run"})
    curve_cache.put("a" * 64, np.array([1.0]))
    # Same key, different stores: no collision, independent counts.
    assert len(run_cache) == 1
    assert len(curve_cache) == 1
    assert curve_cache.clear() == 1
    assert len(run_cache) == 1  # clearing curves leaves runs intact


def test_corrupt_entry_is_evicted(tmp_path):
    cache = CurveCache(tmp_path)
    key = "b" * 64
    cache.put(key, np.array([1.0]))
    cache.path_for(key).write_bytes(b"not a pickle")
    with pytest.warns(CacheCorruptionWarning):
        assert cache.get(key) is None
    assert not cache.path_for(key).exists()


def test_prune_only_touches_curves(tmp_path):
    run_cache = RunCache(tmp_path)
    curve_cache = CurveCache(tmp_path)
    run_cache.put("c" * 64, {"fake": "run"})
    curve_cache.put("c" * 64, np.array([1.0]))
    assert curve_cache.prune_older_than(0.0, now=1e12) == 1
    assert len(run_cache) == 1


def test_not_a_directory(tmp_path):
    path = tmp_path / "file"
    path.write_text("x")
    with pytest.raises(RunCacheError):
        CurveCache(path)


def test_bare_pickle_store_is_unusable(tmp_path):
    # The base class declares no suffix; instantiating it directly
    # would glob-and-clear every sibling store's entries.
    from repro.runtime import PickleStore

    with pytest.raises(RunCacheError, match="suffix"):
        PickleStore(tmp_path)


# ---------------------------------------------------------------------------
# Model curves: one entry per cell, keyed by run keys, never by content
# ---------------------------------------------------------------------------


def test_cell_curve_key_never_aliases_a_content_key():
    # Same hex string, same config: a cell of one run key and a content
    # fingerprint land under different fields, so the two schemes
    # cannot collide.
    digest = "d" * 64
    assert cell_curve_key([digest], MINING) != curve_key(digest, MINING)
    assert cell_curve_key([digest], MINING) == cell_curve_key([digest], MINING)
    # The key covers the cell's runs in order.
    other = "e" * 64
    assert cell_curve_key([digest, other], MINING) != cell_curve_key(
        [other, digest], MINING
    )
    assert cell_curve_key([digest, other], MINING) != cell_curve_key(
        [digest], MINING
    )


def _bump_stream_version(monkeypatch):
    monkeypatch.setattr("repro.models.base.BATCHED_STREAM_VERSION", 2)
    return {}


#: One change to each input of a model curve's key, as keyword overrides
#: of ``_model_curve_key`` (built lazily: the stream version needs a
#: patch in place while the keys are computed).
KEY_CHANGES = {
    "model parameter": lambda _patch: {
        "model": create_model("CM-R", params=ModelParams(mutations=3))
    },
    "seed": lambda _patch: {"seed": 4},
    "spec": lambda _patch: {"spec_change": {"phi": 0.5}},
    "engine": lambda _patch: {"engine": "reference"},
    "stream version": _bump_stream_version,
    "min_support": lambda _patch: {"mining": MiningConfig(min_support=0.1)},
    "max_size": lambda _patch: {
        "mining": MiningConfig(min_support=0.05, max_size=2)
    },
    "level": lambda _patch: {"level": "category"},
    "kind": lambda _patch: {"kind": "mining"},
}


def _model_curve_key(
    spec, model=None, seed=3, spec_change=None, engine=None,
    mining=MINING, level="ingredient", kind="frequencies",
):
    """The curve key of a cell of two CM-R runs, from its run keys alone."""
    model = model or create_model("CM-R")
    if spec_change:
        spec = dataclasses.replace(spec, **spec_change)
    seeds = spawn_seeds(ensure_rng(seed), 2)
    return cell_curve_key(
        fingerprint_many(model, spec, seeds, engine=engine), mining,
        level=level, kind=kind,
    )


@pytest.mark.parametrize("change", sorted(KEY_CHANGES))
def test_model_curve_misses_when_any_key_input_changes(
    change, tiny_spec, tmp_path, monkeypatch
):
    model = create_model("CM-R")
    seeds = spawn_seeds(ensure_rng(3), 2)
    runs = execute_runs(model, tiny_spec, seeds)
    cache = CurveCache(tmp_path)
    ensemble_curve(
        runs, "CM-R", mining=MINING,
        keys=fingerprint_many(model, tiny_spec, seeds), curve_cache=cache,
    )
    warm = _model_curve_key(tiny_spec)
    assert cache.get(warm) is not None
    changed = _model_curve_key(
        tiny_spec, **KEY_CHANGES[change](monkeypatch)
    )
    assert changed != warm
    assert cache.get(changed) is None


def test_process_sweep_curves_hit_on_a_serial_rerun(
    tiny_spec, tmp_path, monkeypatch
):
    plan = plan_grid(
        [create_model("CM-R"), create_model("NM")], [tiny_spec],
        n_runs=3, seed=8,
    )
    reducer = CellCurve(mining=MINING, cache_dir=str(tmp_path))
    cold = execute_sweep(
        plan,
        runtime=RuntimeConfig(backend="process", jobs=2, cache_dir=tmp_path),
        reduce=reducer,
    )
    # Every cell's curves sit in one entry under its run keys, whoever
    # mined them.
    cache = CurveCache(tmp_path)
    assert len(cache) == plan.n_cells
    for cell in plan.cells:
        keys = fingerprint_many(cell.model, cell.spec, cell.seeds)
        assert cache.get(cell_curve_key(keys, MINING)) is not None

    def _explode(*_args, **_kwargs):
        raise AssertionError("a serial rerun must not mine")

    monkeypatch.setattr(ensemble, "mine_frequencies", _explode)
    warm = execute_sweep(
        plan, runtime=RuntimeConfig(cache_dir=tmp_path), reduce=reducer
    )
    for first, second in zip(cold.cells, warm.cells):
        assert np.array_equal(
            first.reduction.frequencies, second.reduction.frequencies
        )


def test_cell_entry_of_the_wrong_shape_is_one_recorded_miss(tiny_spec, tmp_path):
    """A cell entry holding fewer curves than the cell has runs is
    evicted as a ``format-version`` corruption and the cell re-mined,
    bit-identically."""
    model = create_model("CM-R")
    seeds = spawn_seeds(ensure_rng(3), 3)
    runs = execute_runs(model, tiny_spec, seeds)
    keys = fingerprint_many(model, tiny_spec, seeds)
    cache = CurveCache(tmp_path)
    clean = ensemble_curve(
        runs, "CM-R", mining=MINING, keys=keys, curve_cache=cache
    )
    key = cell_curve_key(keys, MINING)
    cache.put(key, cache.get(key)[:-1])
    with pytest.warns(CacheCorruptionWarning):
        again = ensemble_curve(
            runs, "CM-R", mining=MINING, keys=keys, curve_cache=cache
        )
    (event,) = cache_corruptions()
    assert (event.store, event.kind) == ("CurveCache", "format-version")
    assert np.array_equal(clean.frequencies, again.frequencies)
    assert len(cache.get(key)) == len(runs)  # the re-mined cell's entry


def _out_of_order(entry):
    return (entry[0][::-1].copy(),) + entry[1:]


def _with_value(value):
    def plant(entry):
        first = entry[0].copy()
        first[0] = value
        return (first,) + entry[1:]

    return plant


@pytest.mark.parametrize(
    "plant",
    [_out_of_order, _with_value(np.nan), _with_value(np.inf)],
    ids=["out of rank order", "nan", "inf"],
)
def test_cell_entry_with_values_no_miner_writes_is_one_recorded_miss(
    plant, tiny_spec, tmp_path
):
    """An entry of the right shape whose values are out of rank order
    or not finite is quarantined as a ``format-version`` corruption and
    the cell re-mined, bit-identically to a cold run; it never reaches
    the averaging as a crash."""
    model = create_model("CM-R")
    seeds = spawn_seeds(ensure_rng(3), 3)
    runs = execute_runs(model, tiny_spec, seeds)
    keys = fingerprint_many(model, tiny_spec, seeds)
    cache = CurveCache(tmp_path)
    cold = ensemble_curve(
        runs, "CM-R", mining=MINING, keys=keys, curve_cache=cache
    )
    key = cell_curve_key(keys, MINING)
    entry = cache.get(key)
    planted = plant(entry)
    # The fault is real: the planted run is no descending finite curve.
    bad = planted[0]
    assert not np.isfinite(bad).all() or (np.diff(bad) > 1e-12).any()
    cache.put(key, planted)
    with pytest.warns(CacheCorruptionWarning):
        again = ensemble_curve(
            runs, "CM-R", mining=MINING, keys=keys, curve_cache=cache
        )
    (event,) = cache_corruptions()
    assert (event.store, event.kind) == ("CurveCache", "format-version")
    assert (event.path, event.action) == (str(cache.path_for(key)), "removed")
    assert again.frequencies.tobytes() == cold.frequencies.tobytes()
    # The re-mined cell wrote its entry back, equal to the cold one.
    assert all(
        a.tobytes() == b.tobytes() for a, b in zip(cache.get(key), entry)
    )


def _recategorized(spec, categories):
    return dataclasses.replace(
        spec,
        categories=tuple(
            categories[i % len(categories)]
            for i in range(spec.n_ingredients)
        ),
    )


def test_category_curves_follow_the_spec_that_keys_them(tiny_spec, tmp_path):
    """The id -> category mapping comes from the spec, which the run key
    covers: specs differing only in categories evolve the same CM-R
    runs, yet neither's category curves serve the other."""
    model = create_model("CM-R")
    seeds = spawn_seeds(ensure_rng(6), 3)
    one = _recategorized(tiny_spec, [Category.SPICE])
    four = _recategorized(tiny_spec, list(Category)[:4])
    runs = execute_runs(model, one, seeds)
    assert [run.transactions for run in execute_runs(model, four, seeds)] == [
        run.transactions for run in runs
    ]
    cache = CurveCache(tmp_path)
    ensemble_curve(
        runs, "CM-R", level="category",
        keys=fingerprint_many(model, one, seeds), spec=one,
        curve_cache=cache,
    )
    assert cache.stats.misses == 1
    curve = ensemble_curve(
        runs, "CM-R", level="category",
        keys=fingerprint_many(model, four, seeds), spec=four,
        curve_cache=cache,
    )
    assert cache.stats.hits == 0 and cache.stats.misses == 2

    # The curve is the four-category one, mined from the spec's mapping.
    category_of = dict(zip(four.ingredient_ids, four.categories))
    planes = [
        [
            {CATEGORY_INDEX[category_of[item]] for item in row}
            for row in run.transactions
        ]
        for run in runs
    ]
    expected = average_curves(
        [
            RankFrequencyCurve(f"CM-R#{index}", frequencies)
            for index, frequencies in enumerate(
                mine_frequencies(planes, min_support=MINING.min_support)
            )
        ],
        "CM-R",
    )
    assert np.array_equal(curve.frequencies, expected.frequencies)


def test_category_level_rejects_ingredients_outside_the_spec(tiny_spec):
    runs = execute_runs(
        create_model("CM-R"), tiny_spec, spawn_seeds(ensure_rng(1), 1)
    )
    narrow = dataclasses.replace(
        tiny_spec,
        ingredient_ids=tiny_spec.ingredient_ids[:10],
        categories=tiny_spec.categories[:10],
    )
    with pytest.raises(ModelError, match="not in the TST spec"):
        ensemble_curve(runs, "CM-R", level="category", spec=narrow)


def _failing_put(calls):
    def put(self, key, payload):
        calls.append(key)
        raise RunCacheError("disk full")

    return put


def test_failed_model_curve_put_is_recorded_and_keeps_the_curve(
    tiny_spec, tmp_path, monkeypatch
):
    """A model cell's curve-cache write fails: the curve is still
    returned, bit-identical, and the failure is one recorded event with
    one warning."""
    model = create_model("CM-R")
    seeds = spawn_seeds(ensure_rng(3), 3)
    runs = execute_runs(model, tiny_spec, seeds)
    keys = fingerprint_many(model, tiny_spec, seeds)
    calls = []
    monkeypatch.setattr(CurveCache, "put", _failing_put(calls))
    with pytest.warns(CacheWriteFailureWarning) as caught:
        curve = ensemble_curve(
            runs, "CM-R", mining=MINING, keys=keys,
            curve_cache=CurveCache(tmp_path),
        )
    assert calls == [cell_curve_key(keys, MINING)]  # the put really failed
    (failure,) = cache_write_failures()
    assert (failure.store, failure.key, failure.error) == (
        "CurveCache", calls[0], "RunCacheError"
    )
    assert sum(
        issubclass(w.category, CacheWriteFailureWarning) for w in caught
    ) == 1
    assert len(CurveCache(tmp_path)) == 0
    expected = ensemble_curve(runs, "CM-R", mining=MINING)
    assert np.array_equal(curve.frequencies, expected.frequencies)


def test_failed_empirical_curve_put_is_recorded_and_keeps_the_curve(
    small_corpus, lexicon, tmp_path, monkeypatch
):
    """The empirical path's curve-cache write fails: the mined curve is
    still returned and the failure is one recorded event."""
    calls = []
    monkeypatch.setattr(CurveCache, "put", _failing_put(calls))
    with pytest.warns(CacheWriteFailureWarning):
        curve, _ = combination_curve(
            small_corpus, "KOR", lexicon, mining=MINING,
            curve_cache=CurveCache(tmp_path),
        )
    (failure,) = cache_write_failures()
    assert calls == [failure.key] and failure.store == "CurveCache"
    assert len(CurveCache(tmp_path)) == 0
    expected, _ = combination_curve(small_corpus, "KOR", lexicon, mining=MINING)
    assert np.array_equal(curve.frequencies, expected.frequencies)
