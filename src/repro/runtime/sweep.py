"""Sweeps over the full (model × cuisine × seed) run grid.

:func:`~repro.runtime.runner.execute_runs` runs one (model, cuisine)
ensemble — a one-cell sweep; experiment drivers that walked a grid one
ensemble at a time would leave most cores idle between cells — a
25-cell wait on the slowest ensemble, repeated 25 times.  The sweep
planner removes that barrier:

1. **plan** — expand an ordered grid of (model, cuisine) cells into
   per-cell seed streams, drawing every seed up front from one root
   generator (:func:`plan_cells` / :func:`plan_grid`);
2. **dispatch** — the cell is the unit of dispatch: each cell becomes
   its work items (one batched pass, or one request per seed on other
   engines), and every cell's items go through a *single* executor map
   in plan order, so workers drain the whole grid instead of one
   ensemble at a time (:func:`execute_sweep`);
3. **merge** — collect each cell's items back into its run tuple
   (:class:`CellRuns` inside :class:`SweepResult`), or, given a
   per-cell reducer, into the cell's reduction.

A reduced sweep (``execute_sweep(..., reduce=...)``) finishes each cell
where it runs: one task per uncached cell runs the cell's uncached
items, writes each through to the run cache and returns only
``reduce(cell, runs, keys)``, where ``keys`` are the cell's run-cache
keys; a fully cached cell is reduced in the caller right after its
lookups.  All tasks still share the one fan-out, but
no cell's runs outlive the cell, and workers send back reductions
instead of runs.  The grid drivers reduce each cell to its averaged
curve this way (:class:`repro.experiments.fig4.CellCurve`), caching
the cell's per-run curves as one entry keyed by its run keys.

Determinism: the planner draws seeds cell by cell, in cell order, from
the root generator — exactly the draws a serial loop of per-cell
``run_ensemble``/``execute_runs`` calls makes.  Since each run is a pure
function of ``(model, spec, seed)`` and executors preserve order, a
sweep is bit-identical to the per-cell path for a fixed master
seed, on every backend (see DESIGN.md §5).

The on-disk run cache is consulted per work item (a batched cell is
one item and one entry), so a warm cell costs zero worker time and a
sweep interrupted halfway resumes where it stopped — which is what
bounds a crash to the cells in flight (DESIGN.md §9).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, Iterable, Sequence

from repro.errors import ExecutionError
from repro.rng import SeedLike, ensure_rng, spawn_seeds
from repro.runtime.cache import RunCache
from repro.runtime.config import RuntimeConfig
from repro.runtime.runner import _plan_cell, dispatch_reduced, dispatch_work

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.models.base import CulinaryEvolutionModel, EvolutionRun
    from repro.models.params import CuisineSpec

__all__ = [
    "CellRuns",
    "SweepCell",
    "SweepPlan",
    "SweepResult",
    "execute_sweep",
    "plan_cells",
    "plan_grid",
    "select_regions",
]


def select_regions(
    available: Sequence[str], requested: Sequence[str] | None = None
) -> tuple[str, ...]:
    """Resolve a sweep's cuisine selection against a corpus.

    ``None`` selects every available cuisine, in corpus order; an
    explicit request keeps *its* order (it defines the seed-draw order
    of the plan) and is validated eagerly so typos fail before any
    corpus generation or model work.

    Raises:
        ExecutionError: If a requested code is not in ``available``, or
            appears more than once (a duplicate would plan two
            identical grid cells, making the merged result ambiguous).
    """
    if requested is None:
        return tuple(available)
    known = set(available)
    unknown = [code for code in requested if code not in known]
    if unknown:
        raise ExecutionError(
            f"unknown region codes {unknown} for this corpus; "
            f"available: {tuple(available)}"
        )
    if len(set(requested)) != len(tuple(requested)):
        duplicates = sorted(
            {code for code in requested if list(requested).count(code) > 1}
        )
        raise ExecutionError(f"duplicate region codes requested: {duplicates}")
    return tuple(requested)


@dataclass(frozen=True)
class SweepCell:
    """One (model, cuisine) cell of a planned sweep.

    Attributes:
        model: The configured evolution model for this cell.
        spec: Cuisine inputs.
        seeds: The cell's per-run integer seeds, already drawn by the
            planner (order defines run order within the cell).
    """

    model: "CulinaryEvolutionModel"
    spec: "CuisineSpec"
    seeds: tuple[int, ...]

    @property
    def model_name(self) -> str:
        return self.model.name

    @property
    def region_code(self) -> str:
        return self.spec.region_code

    @property
    def n_runs(self) -> int:
        return len(self.seeds)


@dataclass(frozen=True)
class SweepPlan:
    """An ordered grid of cells with all per-run seeds pre-drawn.

    Attributes:
        cells: Cells in plan order — the order their seeds were drawn
            from the root generator, and the order results come back.
        record_history: Forwarded to every run.
        engine: Per-run engine override forwarded to every run
            (``"reference"`` or ``"batched"``; ``None``: each cell's
            model decides via ``params.engine``).
            Carried on the plan so one grid can be re-executed on
            another engine without rebuilding the models, and so the
            cache keys of a sweep cover the engine its runs actually
            used.  Under ``"batched"`` each uncached cell executes
            as one stacked pass (DESIGN.md §7); models without
            batched support (CM-V) run on reference.
    """

    cells: tuple[SweepCell, ...]
    record_history: bool = False
    engine: str | None = None

    @property
    def n_cells(self) -> int:
        return len(self.cells)

    @property
    def total_runs(self) -> int:
        return sum(cell.n_runs for cell in self.cells)


def plan_cells(
    cells: Iterable[tuple["CulinaryEvolutionModel", "CuisineSpec"]],
    n_runs: int,
    seed: SeedLike = None,
    record_history: bool = False,
    engine: str | None = None,
) -> SweepPlan:
    """Draw per-run seeds for an ordered sequence of (model, spec) cells.

    Seeds are drawn cell by cell, in the given order, from one root
    generator — the exact draws a serial loop of per-cell
    :func:`~repro.models.ensemble.run_ensemble` calls over the same
    order makes, which is what keeps a sweep bit-identical to
    the per-cell path.

    Args:
        cells: (model, spec) pairs in seed-draw order.
        n_runs: Runs per cell (paper: 100).
        seed: Root seed or generator; a passed generator is advanced
            exactly as the per-cell path would advance it.
        record_history: Forwarded to every run.
        engine: Per-run engine override forwarded to every run
            (``"reference"`` or ``"batched"``; see :class:`SweepPlan`).

    Raises:
        ExecutionError: If ``n_runs < 1``.
    """
    if n_runs < 1:
        raise ExecutionError(f"n_runs must be >= 1, got {n_runs}")
    root = ensure_rng(seed)
    return SweepPlan(
        cells=tuple(
            SweepCell(
                model=model, spec=spec,
                seeds=tuple(spawn_seeds(root, n_runs)),
            )
            for model, spec in cells
        ),
        record_history=record_history,
        engine=engine,
    )


def plan_grid(
    models: Sequence["CulinaryEvolutionModel"],
    specs: Sequence["CuisineSpec"],
    n_runs: int,
    seed: SeedLike = None,
    record_history: bool = False,
    engine: str | None = None,
) -> SweepPlan:
    """Plan the full cuisine-major (model × cuisine) grid.

    Cells are expanded cuisine-outer, model-inner — the nested-loop
    order of the experiment drivers (``for cuisine: for model:``) — so
    the plan's seed draws replay the drivers' serial draws exactly.

    Args:
        models: Model instances, one per grid column.
        specs: Cuisine specs, one per grid row.
        n_runs: Runs per (model, cuisine) cell.
        seed: Root seed or generator.
        record_history: Forwarded to every run.
        engine: Per-run engine override forwarded to every run
            (``"reference"`` or ``"batched"``; see :class:`SweepPlan`).

    Raises:
        ExecutionError: On an empty model or cuisine axis.
    """
    if not models or not specs:
        raise ExecutionError(
            f"sweep grid needs at least one model and one cuisine, got "
            f"{len(models)} models x {len(specs)} cuisines"
        )
    return plan_cells(
        ((model, spec) for spec in specs for model in models),
        n_runs=n_runs,
        seed=seed,
        record_history=record_history,
        engine=engine,
    )


@dataclass(frozen=True)
class CellRuns:
    """One cell's merged results.

    Attributes:
        cell: The planned cell.
        runs: Completed runs aligned with ``cell.seeds``; empty when the
            sweep reduced its cells.
        cached: How many of the cell's runs were served from the cache.
        reduction: ``reduce(cell, runs, keys)`` when the sweep was given
            a reducer, else ``None``.
        keys: The runs' run-cache keys aligned with ``cell.seeds``, or
            ``None`` when the sweep ran without a cache or reduced its
            cells (the reducer got them).  They also key the runs'
            mined curves (:class:`~repro.models.ensemble.EnsembleCell`).
    """

    cell: SweepCell
    runs: tuple["EvolutionRun", ...]
    cached: int = 0
    reduction: Any = None
    keys: tuple[str, ...] | None = None

    @property
    def model_name(self) -> str:
        return self.cell.model_name

    @property
    def region_code(self) -> str:
        return self.cell.region_code

    @property
    def executed(self) -> int:
        return self.cell.n_runs - self.cached


@dataclass(frozen=True)
class SweepResult:
    """Merged results and execution stats of one sweep.

    Attributes:
        cells: Per-cell results, in plan order.
        executed: Runs dispatched to the backend.
        cached: Runs served from the on-disk cache.
        elapsed_seconds: Wall time of the whole sweep (lookups included).
        backend: Backend name the sweep ran on.
        jobs: Effective worker count.
    """

    cells: tuple[CellRuns, ...]
    executed: int
    cached: int
    elapsed_seconds: float
    backend: str
    jobs: int

    @property
    def total_runs(self) -> int:
        return self.executed + self.cached

    def runs_for(
        self, model_name: str, region_code: str
    ) -> tuple["EvolutionRun", ...]:
        """The runs of the unique cell matching (model name, cuisine).

        Raises:
            ExecutionError: See :meth:`_cell_for`.
        """
        return self._cell_for(model_name, region_code).runs

    def reduction_for(self, model_name: str, region_code: str) -> Any:
        """The reduction of the unique cell matching (model name, cuisine).

        Raises:
            ExecutionError: See :meth:`_cell_for`.
        """
        return self._cell_for(model_name, region_code).reduction

    def _cell_for(self, model_name: str, region_code: str) -> CellRuns:
        """The unique cell matching (model name, cuisine).

        Raises:
            ExecutionError: If no cell matches, or several do (two cells
                may share a registry name — e.g. two ``NM`` configs in a
                sampling ablation; address those positionally via
                ``cells`` instead).
        """
        matches = [
            cell_runs
            for cell_runs in self.cells
            if cell_runs.model_name == model_name
            and cell_runs.region_code == region_code
        ]
        if not matches:
            raise ExecutionError(
                f"no sweep cell for model {model_name!r} on "
                f"region {region_code!r}"
            )
        if len(matches) > 1:
            raise ExecutionError(
                f"{len(matches)} sweep cells match model {model_name!r} on "
                f"region {region_code!r}; access result.cells positionally"
            )
        return matches[0]


def execute_sweep(
    plan: SweepPlan,
    runtime: RuntimeConfig | None = None,
    cache: RunCache | None = None,
    reduce: Callable[
        [SweepCell, tuple["EvolutionRun", ...], tuple[str, ...] | None], Any
    ] | None = None,
) -> SweepResult:
    """Execute a planned sweep as one pass over the backend.

    Each cell becomes its work items — one batched pass when its engine
    resolves to ``"batched"``, else one request per seed — and every
    cell's items go through one executor map in plan order, so many
    small cells saturate the worker pool that a per-cell loop would
    repeatedly drain.  When a cache is configured (explicitly, or via
    ``runtime.cache_dir``), cached work items are served from disk,
    each whole, and only the others are dispatched; fresh items are
    written back so later sweeps — any backend, any process — reuse
    them.

    With ``reduce``, each cell is finished where it runs
    (:func:`~repro.runtime.runner.dispatch_reduced`): one task per
    uncached cell runs its uncached items, writes them through to the
    cache and returns ``reduce(cell, runs, keys)``; a fully cached cell
    is reduced in the caller right after its lookups.  Every cell is
    still in the one fan-out, but the result holds each cell's
    reduction instead of its runs, so no cell's runs outlive it.

    Args:
        plan: The planned grid (see :func:`plan_cells` / :func:`plan_grid`).
        runtime: Backend/jobs/cache selection; ``None`` = serial.
        cache: Explicit cache instance (overrides ``runtime.cache_dir``;
            useful for inspecting hit/miss stats).
        reduce: Optional per-cell reduction ``(cell, runs, keys) ->
            value``, given the cell's runs and their run-cache keys in
            seed order (``keys`` is ``None`` without a cache).  It must
            be module-level with picklable state for the process and
            distributed backends.

    Returns:
        A :class:`SweepResult` with per-cell runs, or per-cell
        reductions, in plan order.
    """
    config = runtime if runtime is not None else RuntimeConfig()
    if cache is None and config.cache_dir is not None:
        cache = RunCache(config.cache_dir)

    start = time.perf_counter()
    cell_work = [
        _plan_cell(
            cell.model, cell.spec, cell.seeds, plan.record_history,
            plan.engine, keyed=cache is not None,
        )
        for cell in plan.cells
    ]
    if reduce is not None:
        cells = [
            CellRuns(cell=cell, runs=(), cached=cached, reduction=value)
            for cell, (value, cached) in zip(
                plan.cells,
                dispatch_reduced(
                    list(zip(plan.cells, cell_work)), reduce, config, cache
                ),
            )
        ]
    else:
        done = iter(
            dispatch_work(
                [pair for work in cell_work for pair in work], config, cache
            )
        )
        cells = []
        for cell, work in zip(plan.cells, cell_work):
            parts = [next(done) for _ in work]
            cells.append(
                CellRuns(
                    cell=cell,
                    runs=tuple(run for runs, _ in parts for run in runs),
                    cached=sum(cached for _, cached in parts),
                    keys=None if cache is None else tuple(
                        key for _, keys in work for key in keys
                    ),
                )
            )
    cached = sum(cell_runs.cached for cell_runs in cells)
    return SweepResult(
        cells=tuple(cells),
        executed=plan.total_runs - cached,
        cached=cached,
        elapsed_seconds=time.perf_counter() - start,
        backend=config.backend,
        jobs=config.resolve_jobs(),
    )
