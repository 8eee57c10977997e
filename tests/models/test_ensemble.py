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
from repro.runtime import CurveCache, RuntimeConfig
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


def test_category_curve_requires_lexicon():
    with pytest.raises(ModelError):
        run_ensemble(
            CopyMutateRandom(), _spec(), n_runs=2, seed=1,
            include_category_level=True,
        )


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
        lexicon=lexicon, include_category_level=True,
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
    runs = run_ensemble(CopyMutateRandom(), _spec(), n_runs=3, seed=4).runs
    runtime = RuntimeConfig(cache_dir=tmp_path)
    cold = ensemble_curve(runs, "CM-R", runtime=runtime)

    def _no_mining(*_args, **_kwargs):
        raise AssertionError("warm path must not mine")

    monkeypatch.setattr(
        "repro.models.ensemble.mine_frequencies", _no_mining
    )
    cache = CurveCache(tmp_path)
    warm = ensemble_curve(runs, "CM-R", runtime=runtime, curve_cache=cache)
    assert np.array_equal(cold.frequencies, warm.frequencies)
    assert cache.stats.hits == 3 and cache.stats.misses == 0


def test_curve_cache_invalidated_by_mining_config(tmp_path):
    runs = run_ensemble(CopyMutateRandom(), _spec(), n_runs=2, seed=4).runs
    runtime = RuntimeConfig(cache_dir=tmp_path)
    ensemble_curve(runs, "CM-R", runtime=runtime)
    cache = CurveCache(tmp_path)
    ensemble_curve(
        runs, "CM-R", mining=MiningConfig(min_support=0.2),
        runtime=runtime, curve_cache=cache,
    )
    assert cache.stats.hits == 0 and cache.stats.misses == 2


def test_curve_cache_invalidated_by_different_runs(tmp_path):
    runtime = RuntimeConfig(cache_dir=tmp_path)
    runs_a = run_ensemble(CopyMutateRandom(), _spec(), n_runs=2, seed=1).runs
    ensemble_curve(runs_a, "CM-R", runtime=runtime)
    runs_b = run_ensemble(CopyMutateRandom(), _spec(), n_runs=2, seed=2).runs
    cache = CurveCache(tmp_path)
    ensemble_curve(runs_b, "CM-R", runtime=runtime, curve_cache=cache)
    assert cache.stats.hits == 0 and cache.stats.misses == 2


def test_cached_curve_label_independent(tmp_path):
    # Content addressing: the same runs aggregated under another label
    # reuse the cached frequencies (labels are reattached on load).
    runs = run_ensemble(CopyMutateRandom(), _spec(), n_runs=2, seed=6).runs
    runtime = RuntimeConfig(cache_dir=tmp_path)
    first = ensemble_curve(runs, "label-a", runtime=runtime)
    cache = CurveCache(tmp_path)
    second = ensemble_curve(runs, "label-b", runtime=runtime, curve_cache=cache)
    assert cache.stats.hits == 2
    assert second.label == "label-b"
    assert np.array_equal(first.frequencies, second.frequencies)
