"""Ensemble running and aggregation (Sec. V, last step).

"For normalization purposes, we create 100 such sets of random
copy-mutate recipes and study the aggregated statistics."  This module
runs a model repeatedly with independent seeds and aggregates the
per-run rank-frequency curves of frequent combinations.  Each run is
mined on its own terms (its own support count and its own curve), but
the runs of a (model, cuisine) cell are mined together in one stacked
pass (:func:`~repro.analysis.itemsets.mine_frequencies`), one task per
cell, and cached together as one curve-cache entry keyed by the cell's
run keys.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from repro.analysis.itemsets import CATEGORY_INDEX, mine_frequencies
from repro.analysis.rank_frequency import RankFrequencyCurve, average_frequencies
from repro.config import DEFAULT_MINING, MiningConfig, PAPER
from repro.errors import ModelError, RunCacheError
from repro.models.base import CulinaryEvolutionModel, EvolutionRun
from repro.models.params import CuisineSpec
from repro.rng import SeedLike, ensure_rng, spawn_seeds
from repro.runtime import (
    CurveCache,
    RuntimeConfig,
    execute_runs,
    fingerprint_many,
    cell_curve_key,
    parallel_map,
)
from repro.runtime import events
# Kept bound for perfbench/tracing.py, which wraps this name to time
# plane fingerprinting.  Model curves are keyed by run key and never
# fingerprint a plane, so that span reads 0.
from repro.runtime.curve_cache import transactions_fingerprint  # noqa: F401
from repro.transactions import TransactionPlane

__all__ = [
    "CurveMiningTask",
    "EnsembleCell",
    "EnsembleResult",
    "aggregate_ensemble",
    "ensemble_curve",
    "ensemble_curves",
    "mine_curve_task",
    "run_ensemble",
]


@dataclass(frozen=True)
class EnsembleResult:
    """Runs plus aggregated curves for one (model, cuisine) pair.

    Attributes:
        model_name: The model's registry name.
        region_code: Cuisine simulated.
        runs: Individual simulation runs.
        ingredient_curve: Rank-aligned mean curve of frequent ingredient
            combinations over runs.
        category_curve: Same at the category level, when requested.
    """

    model_name: str
    region_code: str
    runs: tuple[EvolutionRun, ...]
    ingredient_curve: RankFrequencyCurve
    category_curve: RankFrequencyCurve | None = None

    @property
    def n_runs(self) -> int:
        return len(self.runs)


def _category_transactions(
    run: EvolutionRun, spec: CuisineSpec
) -> TransactionPlane:
    """The run's plane with every ingredient replaced by the index of
    the category ``spec`` gives it (rows deduplicated), through one
    position lookup array.

    The mapping is read from the spec the run evolved, which its run
    key covers, so a run-keyed category curve changes key whenever the
    categories change.

    Raises:
        ModelError: If the run holds an ingredient the spec does not
            list (an island run that adopted a donor's ingredient).
    """
    plane = run.transactions
    category_of = dict(zip(spec.ingredient_ids, spec.categories))
    try:
        lookup = np.array(
            [CATEGORY_INDEX[category_of[i]] for i in plane.ids.tolist()],
            dtype=np.int64,
        )
    except KeyError as exc:
        raise ModelError(
            f"ingredient {exc.args[0]} of a {run.model_name} run is not in "
            f"the {spec.region_code} spec, so it has no category"
        ) from None
    return plane.remap(lookup, np.arange(len(CATEGORY_INDEX), dtype=np.int64))


class EnsembleCell(NamedTuple):
    """One cell of runs to aggregate into one averaged curve.

    Plain ``(runs, label)``, ``(runs, label, keys)`` and ``(runs,
    label, keys, spec)`` tuples are accepted wherever a cell is.

    Attributes:
        runs: The cell's runs, in run order.
        label: Label of the averaged curve.
        keys: The runs' run-cache keys
            (:func:`~repro.runtime.cache.fingerprint_many`), aligned
            with ``runs``.  The cell's curves are cached as one entry
            under :func:`~repro.runtime.curve_cache.cell_curve_key` of
            these keys; a cell without keys is not curve-cached.
        spec: The cuisine spec the runs evolved; required at category
            level, where it maps ingredients to categories.
    """

    runs: Sequence[EvolutionRun]
    label: str
    keys: Sequence[str] | None = None
    spec: CuisineSpec | None = None


@dataclass(frozen=True)
class CurveMiningTask:
    """One cell's mining work, as a pure, picklable payload.

    Everything :func:`mine_curve_task` needs crosses the process
    boundary inside this dataclass — no closure state — which is what
    keeps :func:`ensemble_curves`' fan-out on the true ``process``
    backend instead of degrading to a serial map.

    Attributes:
        transactions: The cell's runs to mine, one plane per run (level
            conversion already applied by the caller); they cross
            process boundaries as their arrays.
        mining: Support/size configuration.
    """

    transactions: tuple[TransactionPlane, ...]
    mining: MiningConfig


def mine_curve_task(task: CurveMiningTask) -> list[np.ndarray]:
    """Mine one cell's runs in one stacked pass into per-run frequency
    arrays, in descending order.

    Module-level by design: the process backend pickles this function by
    reference and the task by value (see
    :func:`~repro.runtime.runner.parallel_map`).
    """
    return mine_frequencies(
        task.transactions,
        min_support=task.mining.min_support,
        max_size=task.mining.max_size,
    )


def ensemble_curves(
    cells: Sequence[EnsembleCell | tuple],
    mining: MiningConfig = DEFAULT_MINING,
    level: str = "ingredient",
    runtime: RuntimeConfig | None = None,
    curve_cache: CurveCache | None = None,
) -> list[RankFrequencyCurve]:
    """Aggregate many cells into one averaged curve each, mining them in
    one pass.

    The grid-mining entry point: a figure-4 style grid of
    (model × cuisine) cells used to pay one executor fan-out *per
    cell* — pool startup, probe, teardown, many times over.  Here each
    uncached cell becomes one :class:`CurveMiningTask`, mined in one
    stacked pass (:func:`~repro.analysis.itemsets.mine_frequencies`),
    and every cell's task goes through a single order-preserving
    :func:`~repro.runtime.runner.parallel_map` call, so one pool
    serves the whole grid; each cell's
    per-run arrays are then averaged locally, as arrays
    (:func:`~repro.analysis.rank_frequency.average_frequencies`).
    Results are bit-identical to calling :func:`ensemble_curve` per
    cell, and to mining each run on its own: the stacked pass keeps
    runs apart, tasks are pure, the map preserves order, and averaging
    happens per cell either way.

    When a curve cache is available (explicitly, or built from
    ``runtime.cache_dir``), each cell's per-run frequencies are one
    entry, served from disk whole when present and written back when
    mined, keyed by the cell's run-cache keys, the level and the mining
    config (:func:`~repro.runtime.curve_cache.cell_curve_key`).  The
    run keys name every input that decides the runs, so no plane is
    read to key the curves, and a warm grid performs zero mining calls
    (DESIGN.md §6).  A cell without keys is mined every time.

    Args:
        cells: :class:`EnsembleCell` values (or plain tuples in its
            field order); output order follows input.
        mining: Support/size configuration (shared).
        level: ``"ingredient"`` or ``"category"``; the category level
            needs every cell's ``spec``.
        runtime: Fan-out backend/jobs/cache; ``None`` = serial.
        curve_cache: Explicit mined-curve cache (overrides
            ``runtime.cache_dir``).

    Returns:
        One averaged curve per cell, aligned with ``cells``.
    """
    cells = [EnsembleCell(*cell) for cell in cells]
    for cell in cells:
        if not cell.runs:
            raise ModelError("cannot aggregate zero runs")
        if cell.keys is not None and len(cell.keys) != len(cell.runs):
            raise ModelError(
                f"cell {cell.label!r} has {len(cell.runs)} runs but "
                f"{len(cell.keys)} run keys"
            )
        if level == "category" and cell.spec is None:
            raise ModelError(
                "category-level aggregation requires each cell's spec"
            )
    config = runtime if runtime is not None else RuntimeConfig()
    if curve_cache is None and config.cache_dir is not None:
        curve_cache = CurveCache(config.cache_dir)

    # Per cell: its curve key and its per-run frequency arrays, served
    # whole or mined whole.  Only cells left to mine are converted to
    # their level.
    keys: list[str | None] = [None] * len(cells)
    curves: list[Sequence[np.ndarray] | None] = [None] * len(cells)
    for position, cell in enumerate(cells):
        if curve_cache is None or cell.keys is None:
            continue
        keys[position] = cell_curve_key(cell.keys, mining, level=level)
        curves[position] = curve_cache.get(
            keys[position], valid=_frequencies_of(len(cell.runs))
        )
    pending = [position for position, found in enumerate(curves) if found is None]

    if pending:
        tasks = [
            CurveMiningTask(
                transactions=tuple(
                    run.transactions if level == "ingredient"
                    else _category_transactions(run, cells[position].spec)
                    for run in cells[position].runs
                ),
                mining=mining,
            )
            for position in pending
        ]
        mined = parallel_map(mine_curve_task, tasks, runtime=config)
        for position, cell_curves in zip(pending, mined):
            curves[position] = cell_curves
            if curve_cache is not None and keys[position] is not None:
                # Same policy as the run cache: a write failure must
                # never discard mined results; record it and stop
                # writing instead.
                try:
                    curve_cache.put(keys[position], tuple(cell_curves))
                except RunCacheError as exc:
                    events.record(events.CacheWriteFailure.of(
                        curve_cache, keys[position], exc
                    ))
                    curve_cache = None

    return [
        RankFrequencyCurve(cell.label, average_frequencies(cell_curves))
        for cell, cell_curves in zip(cells, curves)
    ]


def _frequencies_of(n_runs: int):
    """Whether a curve-cache payload is ``n_runs`` curves: 1-D float64
    arrays of finite frequencies, each in descending rank order (within
    :class:`~repro.analysis.rank_frequency.RankFrequencyCurve`'s
    tolerance).

    An entry of another shape or with values no miner writes (layout
    drift, damaged file) is evicted as corrupt and the cell re-mined,
    not a crash.  The values are checked in one pass over the whole
    cell.
    """
    def valid(payload: object) -> bool:
        if not (
            isinstance(payload, tuple)
            and len(payload) == n_runs
            and all(
                isinstance(frequencies, np.ndarray)
                and frequencies.ndim == 1
                and frequencies.dtype == np.float64
                for frequencies in payload
            )
        ):
            return False
        values = np.concatenate(payload)
        steps = np.diff(values)
        # A step from one run's last rank to the next run's first is
        # no rank order.
        starts = np.cumsum([len(frequencies) for frequencies in payload])
        starts = starts[(starts > 0) & (starts < values.size)]
        steps[starts - 1] = 0.0
        return bool(np.isfinite(values).all() and (steps <= 1e-12).all())

    return valid


def ensemble_curve(
    runs: Sequence[EvolutionRun],
    label: str,
    mining: MiningConfig = DEFAULT_MINING,
    level: str = "ingredient",
    keys: Sequence[str] | None = None,
    spec: CuisineSpec | None = None,
    runtime: RuntimeConfig | None = None,
    curve_cache: CurveCache | None = None,
) -> RankFrequencyCurve:
    """Aggregate runs into one rank-frequency curve at the given level.

    The single-cell case of :func:`ensemble_curves` (one
    :class:`EnsembleCell` of ``runs``, ``label``, ``keys`` and
    ``spec``): an uncached cell is one :class:`CurveMiningTask`,
    mined in one stacked pass by the module-level
    :func:`mine_curve_task` through
    :func:`~repro.runtime.runner.parallel_map`, so the averaged curve
    is identical on every backend.  One cell is one task, so a process
    backend gains no parallelism here; grid callers with many cells
    should call :func:`ensemble_curves` directly, which spreads one
    task per cell over one fan-out.
    """
    return ensemble_curves(
        [EnsembleCell(runs, label, keys, spec)],
        mining=mining,
        level=level,
        runtime=runtime,
        curve_cache=curve_cache,
    )[0]


def aggregate_ensemble(
    model_name: str,
    spec: CuisineSpec,
    runs: Sequence[EvolutionRun],
    keys: Sequence[str] | None = None,
    mining: MiningConfig = DEFAULT_MINING,
    include_category_level: bool = False,
    runtime: RuntimeConfig | None = None,
    curve_cache: CurveCache | None = None,
) -> EnsembleResult:
    """Aggregate completed runs into an :class:`EnsembleResult`.

    This is the mining/averaging half of :func:`run_ensemble`, split out
    so callers that already hold the runs — a grid sweep merging
    :class:`~repro.runtime.sweep.SweepResult` cells, a cache replay —
    produce byte-identical ensembles to the run-and-aggregate path.
    Per-run mining respects the ``runtime`` fan-out (order-preserving,
    so results do not depend on the backend) and the mined-curve cache
    (explicit, or built from ``runtime.cache_dir``), which it uses when
    given the runs' run-cache ``keys``.
    """
    if not runs:
        raise ModelError("cannot aggregate an ensemble of zero runs")
    runs = tuple(runs)
    ingredient_curve = ensemble_curve(
        runs, model_name, mining=mining, level="ingredient", keys=keys,
        runtime=runtime, curve_cache=curve_cache,
    )
    category_curve = None
    if include_category_level:
        category_curve = ensemble_curve(
            runs, model_name, mining=mining, level="category", keys=keys,
            spec=spec, runtime=runtime, curve_cache=curve_cache,
        )
    return EnsembleResult(
        model_name=model_name,
        region_code=spec.region_code,
        runs=runs,
        ingredient_curve=ingredient_curve,
        category_curve=category_curve,
    )


def run_ensemble(
    model: CulinaryEvolutionModel,
    spec: CuisineSpec,
    n_runs: int = PAPER.model_ensemble_runs,
    seed: SeedLike = None,
    mining: MiningConfig = DEFAULT_MINING,
    include_category_level: bool = False,
    runtime: RuntimeConfig | None = None,
    engine: str | None = None,
) -> EnsembleResult:
    """Run ``model`` ``n_runs`` times and aggregate (Sec. V).

    Args:
        model: A configured evolution model.
        spec: Cuisine inputs.
        n_runs: Independent runs (paper: 100).
        seed: Root seed; children are spawned per run.
        mining: Support threshold configuration (paper: 0.05).
        include_category_level: Also aggregate category combinations,
            categorized by ``spec``.
        runtime: Execution backend/jobs/cache for the runs and their
            mined curves (:mod:`repro.runtime`); ``None`` executes
            serially with no cache.  Results are bit-identical across
            backends for a fixed ``seed``.
        engine: Per-run engine override (``"reference"`` or
            ``"batched"``; ``None`` keeps the model's
            ``params.engine``).  The whole ensemble is one same-cell
            group, so an engine that resolves to ``"batched"`` — the
            four paper models; CM-V resolves to reference — executes
            the ensemble as one stacked pass, cached as one entry,
            instead of ``n_runs`` dispatches (DESIGN.md §7).

    Returns:
        An :class:`EnsembleResult`.
    """
    if n_runs < 1:
        raise ModelError(f"n_runs must be >= 1, got {n_runs}")
    root = ensure_rng(seed)
    seeds = spawn_seeds(root, n_runs)
    runs = tuple(
        execute_runs(model, spec, seeds, runtime=runtime, engine=engine)
    )
    # The run cache keys these runs the same way (same model, spec,
    # seeds and engine); the curve cache reuses those keys.
    keys = (
        fingerprint_many(model, spec, seeds, engine=engine)
        if runtime is not None and runtime.cache_dir is not None
        else None
    )
    return aggregate_ensemble(
        model.name,
        spec,
        runs,
        keys=keys,
        mining=mining,
        include_category_level=include_category_level,
        runtime=runtime,
    )
