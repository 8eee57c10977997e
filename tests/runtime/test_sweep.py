"""Tests for the sweep planner (:mod:`repro.runtime.sweep`).

The contract under test: a grid sweep — every cell's work items in one
backend pass — produces bit-identical per-cell results to the serial
per-cell path for a fixed master seed, and cache-warm sweeps never
touch the worker pool.
"""

from __future__ import annotations

import weakref

import numpy as np
import pytest

from repro.config import MiningConfig
from repro.errors import ExecutionError
from repro.experiments.base import ExperimentContext
from repro.experiments.fig4 import CellCurve, run_fig4
from repro.lexicon.categories import Category
from repro.models import ensemble
from repro.models.ensemble import ensemble_curves, run_ensemble
from repro.models.null_model import NullModel
from repro.models.params import CuisineSpec
from repro.models.registry import PAPER_MODELS, create_model
from repro.rng import ensure_rng, spawn_seeds
from repro.runtime import (
    BACKENDS,
    RunCache,
    RuntimeConfig,
    execute_runs,
    execute_sweep,
    fingerprint_many,
    item_key,
    plan_cells,
    plan_grid,
    select_regions,
)
from repro.runtime import runner

_CATEGORIES = (Category.VEGETABLE, Category.SPICE, Category.DAIRY)


@pytest.fixture(scope="module")
def other_spec() -> CuisineSpec:
    """A second tiny cuisine so grids have a real cuisine axis."""
    return CuisineSpec(
        region_code="TS2",
        ingredient_ids=tuple(range(100, 124)),
        categories=tuple(_CATEGORIES[i % 3] for i in range(24)),
        avg_recipe_size=3.0,
        n_recipes=30,
        phi=0.8,
    )


def _signature(runs):
    return [
        (run.transactions, run.final_pool_size, run.initial_recipes, run.trace)
        for run in runs
    ]


# ---------------------------------------------------------------------------
# Planning
# ---------------------------------------------------------------------------


def test_plan_grid_expands_cuisine_major(tiny_spec, other_spec):
    models = [create_model("CM-R"), create_model("NM")]
    plan = plan_grid(models, [tiny_spec, other_spec], n_runs=3, seed=5)
    assert plan.n_cells == 4
    assert plan.total_runs == 12
    assert [(c.region_code, c.model_name) for c in plan.cells] == [
        ("TST", "CM-R"), ("TST", "NM"), ("TS2", "CM-R"), ("TS2", "NM"),
    ]
    assert all(cell.n_runs == 3 for cell in plan.cells)


def test_plan_seeds_replay_the_serial_per_cell_draws(tiny_spec, other_spec):
    """Planned seeds == the draws a serial per-cell loop would make."""
    models = [create_model("CM-R"), create_model("NM")]
    plan = plan_grid(models, [tiny_spec, other_spec], n_runs=4, seed=11)
    reference_root = ensure_rng(11)
    for cell in plan.cells:
        assert list(cell.seeds) == spawn_seeds(reference_root, 4)


def test_plan_cells_advances_a_passed_generator_identically(tiny_spec):
    """Passing a live generator consumes it exactly like per-cell calls."""
    model = create_model("CM-R")
    planned_root = ensure_rng(9)
    plan_cells([(model, tiny_spec)] * 3, n_runs=2, seed=planned_root)
    serial_root = ensure_rng(9)
    for _ in range(3):
        spawn_seeds(serial_root, 2)
    assert planned_root.integers(0, 2**31) == serial_root.integers(0, 2**31)


def test_plan_requests_are_flat_and_cell_major(
    tiny_spec, other_spec, monkeypatch
):
    """The cell is the unit of dispatch: one item per batched cell, or
    one per seed on the reference engine, in plan order."""
    dispatched = []
    execute_work = runner._execute_work

    def spy(item):
        dispatched.append(item)
        return execute_work(item)

    monkeypatch.setattr(runner, "_execute_work", spy)
    for engine in ("batched", "reference"):
        dispatched.clear()
        plan = plan_grid(
            [create_model("CM-R")], [tiny_spec, other_spec], n_runs=2,
            seed=1, record_history=True, engine=engine,
        )
        execute_sweep(plan)
        assert all(item.record_history for item in dispatched)
        if engine == "batched":
            assert [(item.spec.region_code, item.seeds)
                    for item in dispatched] == [
                ("TST", plan.cells[0].seeds), ("TS2", plan.cells[1].seeds),
            ]
        else:
            assert [(item.spec.region_code, item.seed)
                    for item in dispatched] == [
                (cell.region_code, seed)
                for cell in plan.cells for seed in cell.seeds
            ]


def test_plan_validation(tiny_spec):
    with pytest.raises(ExecutionError):
        plan_cells([(create_model("CM-R"), tiny_spec)], n_runs=0, seed=1)
    with pytest.raises(ExecutionError):
        plan_grid([], [tiny_spec], n_runs=2, seed=1)
    with pytest.raises(ExecutionError):
        plan_grid([create_model("CM-R")], [], n_runs=2, seed=1)


def test_select_regions():
    available = ("ITA", "KOR", "MEX")
    assert select_regions(available) == available
    assert select_regions(available, ("MEX", "ITA")) == ("MEX", "ITA")
    with pytest.raises(ExecutionError):
        select_regions(available, ("ITA", "ATLANTIS"))
    with pytest.raises(ExecutionError):  # duplicates would plan twin cells
        select_regions(available, ("ITA", "KOR", "ITA"))


# ---------------------------------------------------------------------------
# Dispatch/merge round-trip vs the per-cell path
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "config",
    (
        RuntimeConfig(),
        RuntimeConfig(backend="process", jobs=2),
    ),
    ids=lambda config: config.backend,
)
def test_sweep_bit_identical_to_per_cell_execute_runs(
    tiny_spec, other_spec, config
):
    models = [create_model(name) for name in ("CM-R", "CM-C", "NM")]
    specs = [tiny_spec, other_spec]
    plan = plan_grid(models, specs, n_runs=4, seed=17)
    result = execute_sweep(plan, runtime=config)

    reference_root = ensure_rng(17)
    for cell_runs in result.cells:
        reference = execute_runs(
            cell_runs.cell.model,
            cell_runs.cell.spec,
            spawn_seeds(reference_root, 4),
        )
        assert _signature(cell_runs.runs) == _signature(reference)
    assert result.executed == plan.total_runs
    assert result.cached == 0


def test_sweep_runs_for_and_positional_access(tiny_spec, other_spec):
    models = [create_model("CM-R"), NullModel(sample_from="pool"),
              NullModel(sample_from="universe")]
    plan = plan_grid(models, [tiny_spec, other_spec], n_runs=2, seed=3)
    result = execute_sweep(plan)
    assert len(result.runs_for("CM-R", "TS2")) == 2
    with pytest.raises(ExecutionError):
        result.runs_for("CM-R", "NOPE")
    with pytest.raises(ExecutionError):  # two NM cells per cuisine
        result.runs_for("NM", "TST")
    assert result.cells[1].cell.model.sample_from == "pool"
    assert result.cells[2].cell.model.sample_from == "universe"


def test_sweep_record_history(tiny_spec):
    plan = plan_grid(
        [create_model("CM-R")], [tiny_spec], n_runs=2, seed=2,
        record_history=True,
    )
    result = execute_sweep(plan)
    for run in result.cells[0].runs:
        assert run.history is not None
        assert run.history[-1][1] == tiny_spec.n_recipes


# ---------------------------------------------------------------------------
# Cache integration
# ---------------------------------------------------------------------------


def test_cache_warm_sweep_skips_worker_execution(
    tiny_spec, other_spec, tmp_path, monkeypatch
):
    plan = plan_grid(
        [create_model("CM-R"), create_model("NM")],
        [tiny_spec, other_spec],
        n_runs=3,
        seed=23,
    )
    cache = RunCache(tmp_path)
    cold = execute_sweep(plan, cache=cache)
    assert cold.executed == plan.total_runs and cold.cached == 0

    # A warm sweep must not even construct an executor.
    import repro.runtime.runner as runner_module

    def explode(config):
        raise AssertionError("warm sweep dispatched to the backend")

    monkeypatch.setattr(runner_module, "get_executor", explode)
    warm = execute_sweep(plan, cache=RunCache(tmp_path))
    assert warm.executed == 0
    assert warm.cached == plan.total_runs
    for cold_cell, warm_cell in zip(cold.cells, warm.cells):
        assert _signature(cold_cell.runs) == _signature(warm_cell.runs)
        assert warm_cell.cached == warm_cell.cell.n_runs
        assert warm_cell.executed == 0


def test_sweep_reuses_per_cell_cache_entries(tiny_spec, other_spec, tmp_path):
    """execute_runs and execute_sweep share one fingerprint space."""
    model = create_model("CM-R")
    plan = plan_grid([model], [tiny_spec, other_spec], n_runs=2, seed=31)
    # Warm only the first cell through the per-ensemble path.
    execute_runs(
        model, tiny_spec, plan.cells[0].seeds, cache=RunCache(tmp_path)
    )
    result = execute_sweep(plan, runtime=RuntimeConfig(cache_dir=tmp_path))
    assert result.cells[0].cached == 2
    assert result.cells[1].cached == 0
    assert result.executed == 2


def test_sweep_cache_dir_via_runtime_config(tiny_spec, tmp_path):
    plan = plan_grid([create_model("NM")], [tiny_spec], n_runs=2, seed=41)
    first = execute_sweep(plan, runtime=RuntimeConfig(cache_dir=tmp_path))
    second = execute_sweep(plan, runtime=RuntimeConfig(cache_dir=tmp_path))
    assert first.executed == 2
    assert second.cached == 2 and second.executed == 0


# ---------------------------------------------------------------------------
# Reduced sweeps: each cell finished where it ran
# ---------------------------------------------------------------------------


def _runtime(backend: str, cache_dir) -> RuntimeConfig:
    """Two workers on the process backend."""
    return RuntimeConfig(backend=backend, jobs=2, cache_dir=cache_dir)


def _assert_curves(result, expected):
    assert len(result.cells) == len(expected)
    for cell_runs, curve in zip(result.cells, expected):
        assert cell_runs.runs == ()
        assert cell_runs.reduction.label == curve.label
        assert np.array_equal(cell_runs.reduction.frequencies, curve.frequencies)


def _explode(*_args, **_kwargs):
    raise AssertionError("a warm reduced sweep must not simulate or mine")


@pytest.mark.parametrize("backend", BACKENDS)
def test_reduced_sweep_equals_sweep_then_ensemble_curves(
    backend, tiny_spec, other_spec, tmp_path, monkeypatch
):
    """Cold, warm and partly cached reduced sweeps give the curves of a
    plain sweep mined by ensemble_curves, bit for bit, and write the
    run-cache entries a plain sweep writes."""
    plan = plan_grid(
        [create_model("CM-R"), create_model("NM")], [tiny_spec, other_spec],
        n_runs=4, seed=29,
    )
    mining = MiningConfig()
    plain_dir = tmp_path / "plain"
    plain = execute_sweep(plan, cache=RunCache(plain_dir))
    expected = ensemble_curves(
        [(cell_runs.runs, cell_runs.model_name) for cell_runs in plain.cells],
        mining=mining,
    )

    # Cold: every cell simulated, cached and mined in its own task.
    reduced_dir = tmp_path / "reduced"
    reducer = CellCurve(mining=mining, cache_dir=str(reduced_dir))
    runtime = _runtime(backend, reduced_dir)
    cold = execute_sweep(plan, runtime=runtime, reduce=reducer)
    _assert_curves(cold, expected)
    assert (cold.executed, cold.cached) == (plan.total_runs, 0)
    plain_names = sorted(path.name for path in plain_dir.glob("*.run.pkl"))
    assert len(plain_names) == plan.n_cells  # one entry per batched cell
    assert sorted(
        path.name for path in reduced_dir.glob("*.run.pkl")
    ) == plain_names
    plain_cache, reduced_cache = RunCache(plain_dir), RunCache(reduced_dir)
    for name in plain_names:
        key = name[: -len(".run.pkl")]
        assert _signature(reduced_cache.get(key)) == _signature(
            plain_cache.get(key)
        )

    # Warm: served and reduced in the caller; nothing simulates or mines.
    with monkeypatch.context() as patched:
        patched.setattr(runner, "execute_batch", _explode)
        patched.setattr(ensemble, "mine_frequencies", _explode)
        warm = execute_sweep(plan, runtime=runtime, reduce=reducer)
    _assert_curves(warm, expected)
    assert (warm.executed, warm.cached) == (0, plan.total_runs)

    # Partly cached: every other cell's entry gone, no curves cached.
    partial_dir = tmp_path / "partial"
    execute_sweep(plan, cache=RunCache(partial_dir))
    for cell in plan.cells[::2]:
        keys = fingerprint_many(cell.model, cell.spec, cell.seeds)
        RunCache(partial_dir).path_for(item_key(keys)).unlink()
    assert not list(partial_dir.glob("*.curve.pkl"))
    partial = execute_sweep(
        plan, runtime=_runtime(backend, partial_dir),
        reduce=CellCurve(mining=mining, cache_dir=str(partial_dir)),
    )
    _assert_curves(partial, expected)
    assert [cell_runs.cached for cell_runs in partial.cells] == [0, 4, 0, 4]
    assert len(RunCache(partial_dir)) == plan.n_cells


@pytest.mark.parametrize("backend", BACKENDS)
def test_reduced_sweep_serves_a_reference_cell_item_by_item(
    backend, tiny_spec, tmp_path
):
    """A reference cell is one item per run: with half its entries
    cached, its task runs the other half and reduces the whole cell to
    the curve of a plain sweep, bit for bit."""
    plan = plan_grid(
        [create_model("CM-R"), create_model("NM")], [tiny_spec],
        n_runs=4, seed=31, engine="reference",
    )
    mining = MiningConfig()
    expected = ensemble_curves(
        [
            (cell_runs.runs, cell_runs.model_name)
            for cell_runs in execute_sweep(plan).cells
        ],
        mining=mining,
    )
    execute_sweep(plan, cache=RunCache(tmp_path))
    assert len(RunCache(tmp_path)) == plan.total_runs
    for cell in plan.cells:
        keys = fingerprint_many(
            cell.model, cell.spec, cell.seeds, engine="reference"
        )
        for key in keys[::2]:
            RunCache(tmp_path).path_for(item_key([key])).unlink()
    partial = execute_sweep(
        plan, runtime=_runtime(backend, tmp_path),
        reduce=CellCurve(mining=mining, cache_dir=str(tmp_path)),
    )
    _assert_curves(partial, expected)
    assert [cell_runs.cached for cell_runs in partial.cells] == [2, 2]
    assert len(RunCache(tmp_path)) == plan.total_runs


class _OneCellAlive:
    """A reducer that fails if an earlier cell's runs are still alive."""

    def __init__(self):
        self.earlier: list[weakref.ref] = []
        self.cells = 0

    def assert_earlier_dead(self):
        alive = sum(ref() is not None for ref in self.earlier)
        assert alive == 0, f"{alive} runs of earlier cells are alive"

    def __call__(self, cell, runs, keys):
        self.assert_earlier_dead()
        self.earlier.extend(weakref.ref(run) for run in runs)
        self.cells += 1
        return len(runs)


def test_serial_reduced_sweep_holds_one_cell_of_runs(
    tiny_spec, other_spec, tmp_path, monkeypatch
):
    """Cold and warm, a cell's runs are dead before the next cell is
    read from the cache or reduced."""
    plan = plan_grid(
        [create_model("CM-R"), create_model("NM")], [tiny_spec, other_spec],
        n_runs=3, seed=37,
    )
    runtime = RuntimeConfig(cache_dir=tmp_path)
    get = RunCache.get

    def checked_get(self, key, n_runs=None):
        reducer.assert_earlier_dead()
        return get(self, key, n_runs)

    monkeypatch.setattr(RunCache, "get", checked_get)
    for expected_cached in (0, plan.total_runs):
        reducer = _OneCellAlive()
        result = execute_sweep(plan, runtime=runtime, reduce=reducer)
        assert reducer.cells == plan.n_cells
        assert result.cached == expected_cached
        assert [cell_runs.reduction for cell_runs in result.cells] == [3] * 4
        assert all(ref() is None for ref in reducer.earlier)


# ---------------------------------------------------------------------------
# Acceptance: fig4 through the sweep == the serial per-cell reference
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def fig4_context(lexicon, small_corpus) -> ExperimentContext:
    return ExperimentContext(
        lexicon=lexicon, dataset=small_corpus, scale=0.06, seed=5,
        ensemble_runs=2,
    )


def test_fig4_sweep_equals_per_cell_reference(fig4_context):
    """run_fig4's merged ensembles == a serial per-cell run_ensemble loop."""
    codes = ("ITA", "KOR")
    result = run_fig4(fig4_context, region_codes=codes)

    reference_root = ensure_rng(fig4_context.seed)
    for code in codes:
        spec = CuisineSpec.from_view(
            fig4_context.dataset.cuisine(code), fig4_context.lexicon
        )
        for name in PAPER_MODELS:
            reference = run_ensemble(
                create_model(name), spec,
                n_runs=fig4_context.ensemble_runs,
                seed=reference_root,
                mining=fig4_context.mining,
            )
            produced = result.evaluations[code].model_curves[name]
            assert np.array_equal(
                produced.frequencies, reference.ingredient_curve.frequencies
            ), f"{name} on {code} diverged from the per-cell path"


def test_fig4_process_backend_bit_identical(fig4_context):
    serial = run_fig4(fig4_context, region_codes=("ITA", "KOR"))
    process = run_fig4(
        fig4_context.with_runtime(
            RuntimeConfig(backend="process", jobs=2)
        ),
        region_codes=("ITA", "KOR"),
    )
    assert serial.evaluations.keys() == process.evaluations.keys()
    for code, evaluation in serial.evaluations.items():
        other = process.evaluations[code]
        assert evaluation.distances == other.distances
        assert evaluation.best_model == other.best_model
        for name, curve in evaluation.model_curves.items():
            assert np.array_equal(
                curve.frequencies, other.model_curves[name].frequencies
            )
