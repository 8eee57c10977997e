"""Ensemble running and aggregation (Sec. V, last step).

"For normalization purposes, we create 100 such sets of random
copy-mutate recipes and study the aggregated statistics."  This module
runs a model repeatedly with independent seeds and aggregates the
per-run rank-frequency curves of frequent combinations.  Each run is
mined on its own terms (its own support count, its own curve and
curve-cache entry), but all uncached runs of a (model, cuisine) cell
are mined together in one stacked pass
(:func:`~repro.analysis.itemsets.mine_frequencies`), one task per cell.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.analysis.itemsets import CATEGORY_INDEX, mine_frequencies
from repro.analysis.rank_frequency import RankFrequencyCurve, average_curves
from repro.config import DEFAULT_MINING, MiningConfig, PAPER
from repro.errors import ModelError, RunCacheError
from repro.lexicon.lexicon import Lexicon
from repro.models.base import CulinaryEvolutionModel, EvolutionRun
from repro.models.params import CuisineSpec
from repro.rng import SeedLike, ensure_rng, spawn_seeds
from repro.runtime import (
    CurveCache,
    RuntimeConfig,
    curve_key,
    execute_runs,
    parallel_map,
    transactions_fingerprint,
)
from repro.transactions import TransactionPlane

__all__ = [
    "CurveMiningTask",
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
    run: EvolutionRun, lexicon: Lexicon
) -> TransactionPlane:
    """The run's plane with every ingredient replaced by its category
    index (rows deduplicated), through one position lookup array."""
    plane = run.transactions
    id_to_category = lexicon.id_to_category_array()
    lookup = np.array(
        [CATEGORY_INDEX[id_to_category[i]] for i in plane.ids.tolist()],
        dtype=np.int64,
    )
    return plane.remap(lookup, np.arange(len(CATEGORY_INDEX), dtype=np.int64))


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
        labels: Per-run curve labels (``"<model>#<index>"``), aligned
            with ``transactions``.
    """

    transactions: tuple[TransactionPlane, ...]
    mining: MiningConfig
    labels: tuple[str, ...]


def mine_curve_task(task: CurveMiningTask) -> list[RankFrequencyCurve]:
    """Mine one cell's runs in one stacked pass into per-run curves.

    Module-level by design: the process backend pickles this function by
    reference and the task by value (see
    :func:`~repro.runtime.runner.parallel_map`).
    """
    frequencies = mine_frequencies(
        task.transactions,
        min_support=task.mining.min_support,
        max_size=task.mining.max_size,
    )
    return [
        RankFrequencyCurve(label, values)
        for label, values in zip(task.labels, frequencies)
    ]


def ensemble_curves(
    cells: list[tuple[tuple[EvolutionRun, ...] | list[EvolutionRun], str]],
    mining: MiningConfig = DEFAULT_MINING,
    level: str = "ingredient",
    lexicon: Lexicon | None = None,
    runtime: RuntimeConfig | None = None,
    curve_cache: CurveCache | None = None,
) -> list[RankFrequencyCurve]:
    """Aggregate many ``(runs, label)`` cells, mining them in one pass.

    The grid-mining entry point: a figure-4 style grid of
    (model × cuisine) cells used to pay one executor fan-out *per
    cell* — pool startup, probe, teardown, many times over.  Here each
    cell's uncached runs become one :class:`CurveMiningTask`, mined in
    one stacked pass (:func:`~repro.analysis.itemsets.mine_frequencies`),
    and every cell's task goes through a single order-preserving
    :func:`~repro.runtime.runner.parallel_map` call, so one pool (or
    one distributed spool session) serves the whole grid; the per-cell
    averages are then assembled locally.  Results are bit-identical to
    calling :func:`ensemble_curve` per cell, and to mining each run on
    its own: the stacked pass keeps runs apart, tasks are pure, the
    map preserves order, and averaging happens per cell either way.

    When a curve cache is available (explicitly, or built from
    ``runtime.cache_dir``), each run's mined frequencies are served
    from disk when present and written back when mined, keyed by the
    exact transaction content plus the mining config — a warm grid
    performs zero mining calls (DESIGN.md §6).

    Args:
        cells: ``(runs, label)`` pairs; output order follows input.
        mining: Support/size configuration (shared).
        level: ``"ingredient"`` or ``"category"``.
        lexicon: Required for ``level="category"``.
        runtime: Fan-out backend/jobs/cache; ``None`` = serial.
        curve_cache: Explicit mined-curve cache (overrides
            ``runtime.cache_dir``).

    Returns:
        One averaged curve per cell, aligned with ``cells``.
    """
    for runs, _label in cells:
        if not runs:
            raise ModelError("cannot aggregate zero runs")
    if level == "category" and lexicon is None:
        raise ModelError("category-level aggregation requires a lexicon")
    config = runtime if runtime is not None else RuntimeConfig()
    if curve_cache is None and config.cache_dir is not None:
        curve_cache = CurveCache(config.cache_dir)

    # Flatten to per-run units tagged with their cell: (cell, index,
    # plane).  All cache and mining bookkeeping below works on this flat
    # list; cells only reappear at averaging time.  No step builds a
    # Python set: fingerprinting and mining read the planes' arrays.
    flat: list[tuple[int, int, TransactionPlane]] = []
    for cell, (runs, _label) in enumerate(cells):
        for index, run in enumerate(runs):
            transactions = (
                run.transactions
                if level == "ingredient"
                else _category_transactions(run, lexicon)  # type: ignore[arg-type]
            )
            flat.append((cell, index, transactions))

    curves: list[RankFrequencyCurve | None] = [None] * len(flat)
    keys: list[str] | None = None
    pending = list(range(len(flat)))
    if curve_cache is not None:
        keys = [
            curve_key(
                transactions_fingerprint(transactions), mining, level=level
            )
            for _cell, _index, transactions in flat
        ]
        pending = []
        for position, key in enumerate(keys):
            cell, index, _transactions = flat[position]
            frequencies = curve_cache.get(key)
            # Guard the payload type: an entry that unpickles to the
            # wrong shape (layout drift, damaged file) is a miss to
            # re-mine, not a crash.
            if (
                isinstance(frequencies, np.ndarray)
                and frequencies.ndim == 1
            ):
                curves[position] = RankFrequencyCurve(
                    f"{cells[cell][1]}#{index}", frequencies
                )
            else:
                pending.append(position)

    if pending:
        # One task per cell: a cell's uncached runs are mined together
        # in one stacked pass, while cache keys stay per run.
        groups: dict[int, list[int]] = {}
        for position in pending:
            groups.setdefault(flat[position][0], []).append(position)
        tasks = [
            CurveMiningTask(
                transactions=tuple(flat[position][2] for position in group),
                mining=mining,
                labels=tuple(
                    f"{cells[cell][1]}#{flat[position][1]}"
                    for position in group
                ),
            )
            for cell, group in groups.items()
        ]
        mined = parallel_map(mine_curve_task, tasks, runtime=config)
        for group, cell_curves in zip(groups.values(), mined):
            for position, curve in zip(group, cell_curves):
                curves[position] = curve
                if curve_cache is not None and keys is not None:
                    # Same policy as the run cache: a write failure
                    # must never discard mined results; stop writing
                    # instead.
                    try:
                        curve_cache.put(keys[position], curve.frequencies)
                    except RunCacheError:
                        curve_cache = None

    averaged: list[RankFrequencyCurve] = []
    cursor = 0
    for runs, label in cells:
        cell_curves = curves[cursor:cursor + len(runs)]
        cursor += len(runs)
        averaged.append(
            average_curves(cell_curves, label)  # type: ignore[arg-type]
        )
    return averaged


def ensemble_curve(
    runs: tuple[EvolutionRun, ...] | list[EvolutionRun],
    label: str,
    mining: MiningConfig = DEFAULT_MINING,
    level: str = "ingredient",
    lexicon: Lexicon | None = None,
    runtime: RuntimeConfig | None = None,
    curve_cache: CurveCache | None = None,
) -> RankFrequencyCurve:
    """Aggregate runs into one rank-frequency curve at the given level.

    The single-cell case of :func:`ensemble_curves` (one ``(runs,
    label)`` pair): the uncached runs are one :class:`CurveMiningTask`,
    mined in one stacked pass by the module-level
    :func:`mine_curve_task` through
    :func:`~repro.runtime.runner.parallel_map`, so the averaged curve
    is identical on every backend.  One cell is one task, so a process
    backend gains no parallelism here; grid callers with many cells
    should call :func:`ensemble_curves` directly, which spreads one
    task per cell over one fan-out.
    """
    return ensemble_curves(
        [(runs, label)],
        mining=mining,
        level=level,
        lexicon=lexicon,
        runtime=runtime,
        curve_cache=curve_cache,
    )[0]


def aggregate_ensemble(
    model_name: str,
    region_code: str,
    runs: tuple[EvolutionRun, ...] | list[EvolutionRun],
    mining: MiningConfig = DEFAULT_MINING,
    lexicon: Lexicon | None = None,
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
    (explicit, or built from ``runtime.cache_dir``).
    """
    if not runs:
        raise ModelError("cannot aggregate an ensemble of zero runs")
    runs = tuple(runs)
    ingredient_curve = ensemble_curve(
        runs, model_name, mining=mining, level="ingredient", runtime=runtime,
        curve_cache=curve_cache,
    )
    category_curve = None
    if include_category_level:
        category_curve = ensemble_curve(
            runs, model_name, mining=mining, level="category",
            lexicon=lexicon, runtime=runtime, curve_cache=curve_cache,
        )
    return EnsembleResult(
        model_name=model_name,
        region_code=region_code,
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
    lexicon: Lexicon | None = None,
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
        lexicon: Needed only when ``include_category_level``.
        include_category_level: Also aggregate category combinations.
        runtime: Execution backend/jobs/cache for the runs
            (:mod:`repro.runtime`); ``None`` executes serially with no
            cache.  Results are bit-identical across backends for a
            fixed ``seed``.
        engine: Per-run engine override (``"reference"`` or
            ``"batched"``; ``None`` keeps the model's
            ``params.engine``).  The whole ensemble is one same-cell
            group, so an engine that resolves to ``"batched"`` — the
            four paper models; CM-V resolves to reference — executes
            the uncached runs as one stacked pass instead of
            ``n_runs`` dispatches (DESIGN.md §7).

    Returns:
        An :class:`EnsembleResult`.
    """
    if n_runs < 1:
        raise ModelError(f"n_runs must be >= 1, got {n_runs}")
    root = ensure_rng(seed)
    runs = tuple(
        execute_runs(
            model, spec, spawn_seeds(root, n_runs), runtime=runtime,
            engine=engine,
        )
    )
    return aggregate_ensemble(
        model.name,
        spec.region_code,
        runs,
        mining=mining,
        lexicon=lexicon,
        include_category_level=include_category_level,
        runtime=runtime,
    )
