"""Tests for ensemble running and aggregation."""

from __future__ import annotations

import pickle

import numpy as np
import pytest

from repro.config import MiningConfig
from repro.errors import ModelError
from repro.lexicon.categories import Category
from repro.models.copy_mutate import CopyMutateRandom
from repro.models.ensemble import (
    CurveMiningTask,
    ensemble_curve,
    mine_curve_task,
    run_ensemble,
)
from repro.models.params import CuisineSpec
from repro.rng import ensure_rng, spawn_seeds
from repro.runtime import (
    CurveCache,
    RuntimeConfig,
    execute_runs,
    fingerprint_many,
)
from repro.transactions import TransactionPlane
from tests.analysis.oracle import eclat as oracle_eclat


def _spec(n_recipes=80):
    return CuisineSpec(
        region_code="TST",
        ingredient_ids=tuple(range(30)),
        categories=tuple([Category.SPICE] * 30),
        avg_recipe_size=5.0,
        n_recipes=n_recipes,
        phi=30 / n_recipes,
    )


def test_run_ensemble_counts():
    result = run_ensemble(CopyMutateRandom(), _spec(), n_runs=4, seed=0)
    assert result.n_runs == 4
    assert result.model_name == "CM-R"
    assert result.region_code == "TST"
    assert all(run.n_recipes == 80 for run in result.runs)


def test_runs_are_independent():
    result = run_ensemble(CopyMutateRandom(), _spec(), n_runs=3, seed=0)
    assert result.runs[0].transactions != result.runs[1].transactions


def test_ensemble_deterministic():
    a = run_ensemble(CopyMutateRandom(), _spec(), n_runs=3, seed=5)
    b = run_ensemble(CopyMutateRandom(), _spec(), n_runs=3, seed=5)
    assert [r.transactions for r in a.runs] == [r.transactions for r in b.runs]


def test_ingredient_curve_aggregated():
    result = run_ensemble(
        CopyMutateRandom(), _spec(), n_runs=4, seed=1,
        mining=MiningConfig(min_support=0.05),
    )
    curve = result.ingredient_curve
    assert curve.label == "CM-R"
    assert len(curve) > 0
    assert (curve.frequencies <= 1.0).all()


def _keyed_runs(n_runs, seed, spec=None):
    """``n_runs`` CM-R runs on ``spec`` and their run-cache keys."""
    model, spec = CopyMutateRandom(), spec or _spec()
    seeds = spawn_seeds(ensure_rng(seed), n_runs)
    runs = tuple(execute_runs(model, spec, seeds))
    return runs, fingerprint_many(model, spec, seeds)


def test_category_curve_requires_spec():
    # Categories come from the cell's spec, which the run key covers.
    runs, _keys = _keyed_runs(2, 1)
    with pytest.raises(ModelError):
        ensemble_curve(runs, "CM-R", level="category")


def test_category_curve_with_lexicon(lexicon):
    # Use ids within the standard lexicon's range.
    spec = CuisineSpec(
        region_code="TST",
        ingredient_ids=tuple(range(30)),
        categories=tuple(lexicon.category_of(i) for i in range(30)),
        avg_recipe_size=5.0,
        n_recipes=60,
        phi=0.5,
    )
    result = run_ensemble(
        CopyMutateRandom(), spec, n_runs=2, seed=2,
        include_category_level=True,
    )
    assert result.category_curve is not None
    assert len(result.category_curve) > 0


def test_invalid_run_count():
    with pytest.raises(ModelError):
        run_ensemble(CopyMutateRandom(), _spec(), n_runs=0)


def test_ensemble_curve_requires_runs():
    with pytest.raises(ModelError):
        ensemble_curve([], "x")


# ---------------------------------------------------------------------------
# Picklable process mining + the mined-curve cache (DESIGN.md §6)
# ---------------------------------------------------------------------------


def test_curve_mining_task_is_picklable():
    task = CurveMiningTask(
        transactions=(
            TransactionPlane.of([{1, 2}, {2}]),
            TransactionPlane.of([{3}, {3, 4}, {4}]),
        ),
        mining=MiningConfig(min_support=0.1),
        labels=("CM-R#0", "CM-R#1"),
    )
    clone = pickle.loads(pickle.dumps(task))
    curves = mine_curve_task(clone)
    assert [curve.label for curve in curves] == ["CM-R#0", "CM-R#1"]
    assert all(len(curve) > 0 for curve in curves)


def _oracle_frequencies(runs, min_support, max_size=None):
    """Stand-in for the stacked miner: each run mined by the oracle."""
    return [
        np.array(oracle_eclat(run, min_support, max_size).frequencies())
        for run in runs
    ]


def _oracle_curve(runs, monkeypatch):
    """The serial ensemble curve with every run mined by the test oracle."""
    with monkeypatch.context() as patch:
        patch.setattr(
            "repro.models.ensemble.mine_frequencies", _oracle_frequencies
        )
        return ensemble_curve(
            runs, "CM-R", mining=MiningConfig(min_support=0.05)
        )


@pytest.mark.parametrize("baseline_miner", ["eclat", "bitset"])
def test_ensemble_curve_bit_identical_across_backends(
    baseline_miner, monkeypatch
):
    # The serial baseline is mined by the oracle ("eclat") or by the
    # production miner ("bitset"); the fanned-out curves always run the
    # production miner and must match either baseline bit for bit.
    runs = run_ensemble(CopyMutateRandom(), _spec(), n_runs=4, seed=9).runs
    mining = MiningConfig(min_support=0.05)
    if baseline_miner == "eclat":
        serial = _oracle_curve(runs, monkeypatch)
    else:
        serial = ensemble_curve(runs, "CM-R", mining=mining)
    parallel = ensemble_curve(
        runs, "CM-R", mining=mining,
        runtime=RuntimeConfig(backend="process", jobs=2),
    )
    assert np.array_equal(serial.frequencies, parallel.frequencies)


def test_bitset_curve_equals_pure_python_curve(monkeypatch):
    runs = run_ensemble(CopyMutateRandom(), _spec(), n_runs=3, seed=11).runs
    oracle = _oracle_curve(runs, monkeypatch)
    bitset = ensemble_curve(
        runs, "CM-R", mining=MiningConfig(min_support=0.05)
    )
    assert len(bitset) > 0
    assert np.array_equal(oracle.frequencies, bitset.frequencies)


def test_warm_curve_cache_skips_mining_entirely(tmp_path, monkeypatch):
    runs, keys = _keyed_runs(3, 4)
    runtime = RuntimeConfig(cache_dir=tmp_path)
    cold = ensemble_curve(runs, "CM-R", keys=keys, runtime=runtime)

    def _no_mining(*_args, **_kwargs):
        raise AssertionError("warm path must not mine")

    monkeypatch.setattr(
        "repro.models.ensemble.mine_frequencies", _no_mining
    )
    cache = CurveCache(tmp_path)
    warm = ensemble_curve(
        runs, "CM-R", keys=keys, runtime=runtime, curve_cache=cache
    )
    assert np.array_equal(cold.frequencies, warm.frequencies)
    assert cache.stats.hits == 3 and cache.stats.misses == 0


def test_runs_without_keys_are_not_curve_cached(tmp_path):
    runs, _keys = _keyed_runs(2, 4)
    cache = CurveCache(tmp_path)
    ensemble_curve(runs, "CM-R", curve_cache=cache)
    ensemble_curve(runs, "CM-R", curve_cache=cache)
    assert len(cache) == 0
    assert cache.stats.hits == cache.stats.misses == 0


def test_keys_must_align_with_runs():
    runs, keys = _keyed_runs(2, 4)
    with pytest.raises(ModelError):
        ensemble_curve(runs, "CM-R", keys=keys[:1])


def test_run_ensemble_curves_warm_from_its_run_keys(tmp_path, monkeypatch):
    # run_ensemble keys its curves by the same run keys as its runs.
    runtime = RuntimeConfig(cache_dir=tmp_path)
    cold = run_ensemble(
        CopyMutateRandom(), _spec(), n_runs=2, seed=3, runtime=runtime
    )
    assert len(CurveCache(tmp_path)) == 2
    monkeypatch.setattr(
        "repro.models.ensemble.mine_frequencies",
        lambda *_args, **_kwargs: pytest.fail("warm ensemble mined"),
    )
    warm = run_ensemble(
        CopyMutateRandom(), _spec(), n_runs=2, seed=3, runtime=runtime
    )
    assert np.array_equal(
        cold.ingredient_curve.frequencies, warm.ingredient_curve.frequencies
    )


def test_curve_cache_invalidated_by_mining_config(tmp_path):
    runs, keys = _keyed_runs(2, 4)
    runtime = RuntimeConfig(cache_dir=tmp_path)
    ensemble_curve(runs, "CM-R", keys=keys, runtime=runtime)
    cache = CurveCache(tmp_path)
    ensemble_curve(
        runs, "CM-R", mining=MiningConfig(min_support=0.2), keys=keys,
        runtime=runtime, curve_cache=cache,
    )
    assert cache.stats.hits == 0 and cache.stats.misses == 2


def test_curve_cache_invalidated_by_different_runs(tmp_path):
    runtime = RuntimeConfig(cache_dir=tmp_path)
    runs_a, keys_a = _keyed_runs(2, 1)
    ensemble_curve(runs_a, "CM-R", keys=keys_a, runtime=runtime)
    runs_b, keys_b = _keyed_runs(2, 2)
    cache = CurveCache(tmp_path)
    ensemble_curve(
        runs_b, "CM-R", keys=keys_b, runtime=runtime, curve_cache=cache
    )
    assert cache.stats.hits == 0 and cache.stats.misses == 2


def test_cached_curve_label_independent(tmp_path):
    # Run keys name runs, not labels: the same runs aggregated under
    # another label reuse the cached frequencies (labels are reattached
    # on load).
    runs, keys = _keyed_runs(2, 6)
    runtime = RuntimeConfig(cache_dir=tmp_path)
    first = ensemble_curve(runs, "label-a", keys=keys, runtime=runtime)
    cache = CurveCache(tmp_path)
    second = ensemble_curve(
        runs, "label-b", keys=keys, runtime=runtime, curve_cache=cache
    )
    assert cache.stats.hits == 2
    assert second.label == "label-b"
    assert np.array_equal(first.frequencies, second.frequencies)
