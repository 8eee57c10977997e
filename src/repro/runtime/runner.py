"""Run execution: deterministic fan-out of model runs over a backend.

This is the seam between the *what* (a model, a cuisine spec, a list of
per-run integer seeds from :func:`repro.rng.spawn_seeds`) and the *how*
(which executor backend, how many workers, whether a run cache sits in
front).  Determinism is structural rather than incidental:

1. the parent draws every per-run seed up front, in one place, from the
   master generator — so the master stream advances identically no
   matter the backend;
2. each worker rebuilds its generator from its integer seed alone via
   :func:`repro.rng.rng_from_seed` — so a run's result is a pure
   function of ``(model, spec, seed)``;
3. executors preserve input order — so the assembled ensemble is
   bit-identical across serial, process and distributed execution.
"""

from __future__ import annotations

import pickle
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Iterable, Sequence, TypeVar

from repro.errors import RunCacheError
from repro.rng import rng_from_seed
from repro.runtime import events
from repro.runtime.cache import (
    RunCache,
    fingerprint_many,
    item_key,
    run_fingerprint,
)
from repro.runtime.config import RuntimeConfig
from repro.runtime.executor import _CannotCross, get_executor

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.models.base import CulinaryEvolutionModel, EvolutionRun
    from repro.models.params import CuisineSpec

__all__ = [
    "ArchipelagoRequest",
    "BatchRequest",
    "RunRequest",
    "execute_archipelago",
    "execute_batch",
    "execute_request",
    "execute_runs",
    "parallel_map",
]

T = TypeVar("T")
R = TypeVar("R")


def _pickling_blocker(fn: Callable, probe_item: object) -> str | None:
    """Why this map cannot cross a process boundary, or ``None`` if it can.

    Probes the callable and the first work item (maps are near-always
    homogeneous), so both closure callables *and* module-level callables
    over unpicklable payloads run serially instead of blowing up inside
    the pool.
    """
    try:
        pickle.dumps(fn)
    except Exception as exc:  # pickle raises a zoo of types here
        return f"callable does not pickle ({type(exc).__name__}: {exc})"
    try:
        pickle.dumps(probe_item)
    except Exception as exc:
        return f"work item does not pickle ({type(exc).__name__}: {exc})"
    return None


@dataclass(frozen=True)
class RunRequest:
    """One simulation to execute: a pure, picklable work item.

    Attributes:
        model: The configured evolution model (frozen params/fitness).
        spec: Cuisine inputs.
        seed: Integer child seed from :func:`repro.rng.spawn_seeds`.
        record_history: Forwarded to ``model.run``.
        engine: Per-run engine override forwarded to ``model.run``
            (``"reference"`` or ``"batched"``; ``None`` uses the
            model's ``params.engine``).  The cache
            key covers the resolved engine either way.
    """

    model: "CulinaryEvolutionModel"
    spec: "CuisineSpec"
    seed: int
    record_history: bool = False
    engine: str | None = None

    def fingerprint(self) -> str:
        """Cache key for this request's complete inputs."""
        return run_fingerprint(
            self.model, self.spec, self.seed, self.record_history,
            self.engine,
        )


def _is_island_member(model: "CulinaryEvolutionModel") -> bool:
    """Duck-typed check for :class:`~repro.models.islands.IslandMemberModel`.

    Kept attribute-based so the runtime never imports the models layer
    at module scope.
    """
    return (
        getattr(model, "simulation", None) is not None
        and getattr(model, "member_index", None) is not None
    )


def execute_request(request: RunRequest) -> "EvolutionRun":
    """Execute one run (module-level so the process backend can pickle it).

    Regular models receive their seed through the usual
    :func:`repro.rng.rng_from_seed` boundary.  Island members receive
    the raw integer instead: their request seed *is* the archipelago
    master seed (:func:`repro.models.islands.island_seed_streams`), so
    a dispatched member run stays bit-identical to a direct
    ``member.run(spec, seed=master)`` call with the same integer.
    """
    seed = (
        request.seed
        if _is_island_member(request.model)
        else rng_from_seed(request.seed)
    )
    return request.model.run(
        request.spec,
        seed=seed,
        record_history=request.record_history,
        engine=request.engine,
    )


@dataclass(frozen=True)
class BatchRequest:
    """One cell's runs executed as one batched pass.

    The batched engine's unit of work (DESIGN.md §7): the planner turns
    a cell whose engine resolves to ``"batched"`` into one batch, so its
    seeds share the model, spec, history flag and engine override and
    advance through :func:`repro.models.batched.run_batched` in one set
    of stacked arrays instead of ``len(seeds)`` per-run dispatches.  It
    is one run-cache entry, served whole or run whole.  Like
    :class:`RunRequest` it is a pure, picklable payload — a batch can
    cross a process boundary whole.

    Attributes:
        model: The configured evolution model (shared by every run).
        spec: Cuisine inputs (shared).
        seeds: Integer child seeds, one per run; result order follows
            seed order.
        record_history: Forwarded to the batch.
        engine: The cell's engine override, carried for provenance
            (the planner already proved it resolves to ``"batched"``).
    """

    model: "CulinaryEvolutionModel"
    spec: "CuisineSpec"
    seeds: tuple[int, ...]
    record_history: bool = False
    engine: str | None = None


def execute_batch(batch: BatchRequest) -> list["EvolutionRun"]:
    """Execute a batch of runs in one stacked pass, in seed order.

    Module-level so the process backend can pickle it.  Each run of the
    result is bit-identical to what :func:`execute_request` would have
    produced for the same seed — batch composition never leaks into
    per-run results.
    """
    from repro.models.batched import run_batched

    return run_batched(
        batch.model,
        batch.spec,
        [rng_from_seed(seed) for seed in batch.seeds],
        record_history=batch.record_history,
    )


@dataclass(frozen=True)
class ArchipelagoRequest:
    """The island members of one archipelago execution, run once.

    The island engine's unit of work (DESIGN.md §10): every member of
    an :class:`~repro.models.islands.IslandSimulation` is an
    independently cacheable run, but they are all produced by *one*
    archipelago execution for a given master seed.
    :func:`~repro.models.islands.run_island_ensemble` plans one such
    item per master seed, so the simulation runs once, not once per
    member.  It is one run-cache entry holding every requested member's
    run, so solo runs of its members never serve it.  Like the other
    work items it is a pure, picklable payload.

    Attributes:
        simulation: The archipelago to execute.
        members: Member indices to return, in result order.
        seed: The integer master seed of the execution.
        record_history: Forwarded to the simulation.
    """

    simulation: "object"
    members: tuple[int, ...]
    seed: int
    record_history: bool = False


def execute_archipelago(request: ArchipelagoRequest) -> list["EvolutionRun"]:
    """Execute one archipelago, returning the requested members' runs.

    Module-level so the process backend can pickle it.  The raw integer
    master seed passes straight through — the same seed a solo
    :func:`execute_request` hands an island member and a direct
    ``IslandSimulation.run(seed=master)`` uses — so archipelago, solo and
    direct member runs are all bit-identical.
    """
    return request.simulation.run_members(
        list(request.members),
        seed=request.seed,
        record_history=request.record_history,
    )


def _execute_work(
    item: "RunRequest | BatchRequest | ArchipelagoRequest",
) -> list["EvolutionRun"]:
    """Execute one work item — single run, batch or archipelago — as a
    run list.

    The uniform shape lets one order-preserving ``executor.map`` carry
    a mixed sequence of singles and groups.
    """
    if isinstance(item, BatchRequest):
        return execute_batch(item)
    if isinstance(item, ArchipelagoRequest):
        return execute_archipelago(item)
    return [execute_request(item)]


def _plan_cell(
    model: "CulinaryEvolutionModel",
    spec: "CuisineSpec",
    seeds: Sequence[int],
    record_history: bool = False,
    engine: str | None = None,
    keyed: bool = False,
) -> list[tuple["RunRequest | BatchRequest", tuple[str, ...] | None]]:
    """Turn one (model, cuisine) cell into its work items.

    A cell whose engine resolves to ``"batched"`` is one
    :class:`BatchRequest` (one stacked pass, DESIGN.md §7); any other
    cell is one :class:`RunRequest` per seed.  Each item comes paired
    with the cache keys of its runs, in seed order, when ``keyed``
    (one canonicalization for the whole cell — only the seed varies),
    else with ``None``.
    """
    keys = (
        tuple(fingerprint_many(model, spec, seeds, record_history, engine))
        if keyed else None
    )
    if model.resolve_engine(engine) == "batched":
        batch = BatchRequest(
            model=model, spec=spec, seeds=tuple(seeds),
            record_history=record_history, engine=engine,
        )
        return [(batch, keys)] if seeds else []
    return [
        (
            RunRequest(model=model, spec=spec, seed=seed,
                       record_history=record_history, engine=engine),
            None if keys is None else (keys[position],),
        )
        for position, seed in enumerate(seeds)
    ]


@dataclass(frozen=True)
class _CacheThroughWork:
    """A work item bundled with its cache destination and run keys.

    The distributed backend's unit of dispatch: the worker that computes
    the runs also writes them into the shared
    :class:`~repro.runtime.cache.RunCache` as the item's one entry,
    making the cache directory the result rendezvous — an interrupted
    sweep resumes from whatever any worker finished, even if the
    coordinator never saw it.
    """

    item: "RunRequest | BatchRequest | ArchipelagoRequest"
    cache_dir: str
    keys: tuple[str, ...]


def _execute_work_write_through(
    work: _CacheThroughWork,
) -> list["EvolutionRun"]:
    """Execute one work item and write its runs straight into the cache.

    Module-level so the distributed workers can pickle it.  A cache
    write failure on the worker is tolerated — results still travel
    back through the spool; the cache is the resumability layer, not
    the only channel.  Re-executed attempts (a reclaimed task) simply
    overwrite with bit-identical payloads: runs are pure functions of
    their request, and cache puts are atomic.
    """
    runs = _execute_work(work.item)
    _write_through(work.cache_dir, work.keys, runs)
    return runs


def _write_through(
    cache_dir: str, keys: Sequence[str], runs: Sequence["EvolutionRun"]
) -> None:
    """Write one item's fresh runs, as its one entry, into the cache at
    ``cache_dir``, where they ran.

    A write failure is tolerated: the runs (or what they reduce to)
    still travel back to the caller; the cache is the resumability
    layer, not the only channel.
    """
    try:
        RunCache(cache_dir).put(item_key(keys), runs)
    except RunCacheError:
        pass


@dataclass(frozen=True)
class _ReducedCell:
    """One sweep cell's work and the reduction that ends it.

    The unit of dispatch of a reduced sweep (:func:`dispatch_reduced`):
    whoever executes it runs the cell's uncached items, writes each
    through to the run cache as its one entry, and returns only
    ``reduce(cell, runs, keys)``, so the cell's runs never leave the
    process that holds them.

    Attributes:
        cell: The planned cell, handed to ``reduce``.
        work: The cell's ``(item, run keys)`` pairs in run order; the
            keys are ``None`` without a cache.
        served: Per item, its cached runs or ``None`` to execute it,
            when some item was cached; ``None`` when none was.
        reduce: Module-level (picklable) ``(cell, runs, keys) -> value``.
        cache_dir: Run-cache directory to write fresh items into, or
            ``None`` without a cache.
    """

    cell: object
    work: tuple[tuple["RunRequest | BatchRequest", tuple[str, ...] | None], ...]
    served: tuple[tuple["EvolutionRun", ...] | None, ...] | None
    reduce: Callable
    cache_dir: str | None = None


def _execute_reduced(work: _ReducedCell) -> object:
    """Run a cell's uncached items, cache them, return the cell's reduction.

    Module-level so the process and distributed backends can pickle it.
    """
    served = work.served or (None,) * len(work.work)
    runs: list["EvolutionRun"] = []
    for (item, keys), item_runs in zip(work.work, served):
        if item_runs is None:
            item_runs = _execute_work(item)
            if work.cache_dir is not None:
                _write_through(work.cache_dir, keys, item_runs)
        runs.extend(item_runs)
    cell_keys = None if work.cache_dir is None else tuple(
        key for _, keys in work.work for key in keys
    )
    return work.reduce(work.cell, tuple(runs), cell_keys)


def _lookup(
    cache: RunCache, keys: Sequence[str]
) -> "tuple[EvolutionRun, ...] | None":
    """An item's cached runs, or ``None`` when it must run."""
    return cache.get(item_key(keys), len(keys))


def dispatch_work(
    work: Sequence[
        tuple["RunRequest | BatchRequest | ArchipelagoRequest",
              Sequence[str] | None]
    ],
    config: RuntimeConfig,
    cache: RunCache | None,
) -> list[tuple[list["EvolutionRun"], int]]:
    """Serve work items from cache, dispatch the rest, write fresh runs back.

    The shared core of an unreduced
    :func:`~repro.runtime.sweep.execute_sweep` (and so of
    :func:`execute_runs`) and
    :func:`~repro.models.islands.run_island_ensemble` — one place owns
    the cache policy (:func:`dispatch_reduced` applies it per cell).
    Each item arrives with the cache keys of its runs, in its run
    order, and is one cache entry (:func:`~repro.runtime.cache.item_key`):
    lookups happen up front, an item is served whole or runs whole, and
    the items left reach the backend in one order-preserving map, in
    plan order.  A cache *write* failure disables further writes rather
    than discarding computed results.

    Args:
        work: ``(item, keys)`` pairs in result order; ``keys`` may be
            ``None`` when ``cache`` is.
        config: Backend/jobs selection.
        cache: Cache instance; ``None`` disables lookups and writes.

    Returns:
        Per item: its runs in the item's run order, and how many of
        them were served from cache.
    """
    results: list = [
        None if cache is None else _lookup(cache, keys) for _, keys in work
    ]
    cached = [0 if runs is None else len(runs) for runs in results]
    pending = [index for index, runs in enumerate(results) if runs is None]

    if pending:
        executor = get_executor(config)
        # Under the distributed backend the *workers* write fresh runs
        # into the shared cache directory (the result rendezvous,
        # DESIGN.md §8) and the coordinator skips its own puts; every
        # other backend writes back here, after the map.
        write_through = config.backend == "distributed" and cache is not None
        if write_through:
            computed = executor.map(
                _execute_work_write_through,
                [
                    _CacheThroughWork(
                        item=work[index][0], cache_dir=str(cache.directory),
                        keys=tuple(work[index][1]),
                    )
                    for index in pending
                ],
            )
        else:
            computed = executor.map(
                _execute_work, [work[index][0] for index in pending]
            )
        for index, runs in zip(pending, computed):
            results[index] = runs
            if cache is not None and not write_through:
                # The cache is an optimization: a write failure (disk
                # full, permissions, unpicklable payload) must never
                # discard computed results.  Stop writing after the
                # first failure; lookups already succeeded.
                try:
                    cache.put(item_key(work[index][1]), runs)
                except RunCacheError:
                    cache = None
    return [(list(runs), count) for runs, count in zip(results, cached)]


def dispatch_reduced(
    cells: Sequence[
        tuple[object, Sequence[tuple["RunRequest | BatchRequest",
                                     Sequence[str] | None]]]
    ],
    reduce: Callable[
        [object, tuple["EvolutionRun", ...], tuple[str, ...] | None], R
    ],
    config: RuntimeConfig,
    cache: RunCache | None,
) -> list[tuple[R, int]]:
    """Finish each cell where it runs: serve, simulate, cache, reduce.

    The reduced counterpart of :func:`dispatch_work`, with the same
    cache policy, applied per cell instead of per item.  Each cell
    arrives with its work items and their keys, and each item is one
    cache entry, served whole or run whole.  A cell whose items are all
    cached is reduced here, right after its own lookups and before the
    next cell's; its runs are dropped before those lookups.  Every
    other cell becomes one :class:`_ReducedCell` carrying its items
    and, when partly cached, its cached items' runs.  Those tasks go
    through one order-preserving :func:`parallel_map` in plan order.
    A task writes each fresh item through to the cache wherever it
    runs, on every backend, and returns only the cell's reduction, so
    no plane outlives its cell and workers send back reductions, not
    runs.  The reducer also gets the cell's run keys — the very keys
    the run cache used — so it can key what it derives from the runs
    (the mined-curve cache) without canonicalizing the cell again.

    Args:
        cells: ``(cell, [(item, keys), ...])`` per cell, in plan order;
            ``keys`` may be ``None`` when ``cache`` is.
        reduce: ``(cell, runs, keys) -> value``, given the cell's runs
            and run-cache keys in run order (``keys`` is ``None``
            without a cache).  Must be module-level (and its state
            picklable) to run on a process or distributed backend;
            otherwise ``parallel_map`` runs the tasks serially.
        config: Backend/jobs selection.
        cache: Cache instance; ``None`` disables lookups and writes.

    Returns:
        Per cell: its reduction, and how many of its runs were served
        from cache.
    """
    results: list = [None] * len(cells)
    cached = [0] * len(cells)
    pending: list[int] = []
    tasks: list[_ReducedCell] = []
    for index, (cell, work) in enumerate(cells):
        work = tuple(work)
        if cache is None:
            pending.append(index)
            tasks.append(_ReducedCell(
                cell=cell, work=work, served=None, reduce=reduce,
            ))
            continue
        # ``served`` is the only reference to a cell's cached runs: the
        # previous cell's go before this cell's lookups.
        served = None
        served = tuple(_lookup(cache, keys) for _, keys in work)
        cached[index] = sum(len(runs) for runs in served if runs is not None)
        if all(runs is not None for runs in served):
            results[index] = reduce(
                cell,
                tuple(run for runs in served for run in runs),
                tuple(key for _, keys in work for key in keys),
            )
            continue
        pending.append(index)
        tasks.append(_ReducedCell(
            cell=cell, work=work,
            served=served if cached[index] else None,
            reduce=reduce, cache_dir=str(cache.directory),
        ))
    if tasks:
        for index, value in zip(
            pending, parallel_map(_execute_reduced, tasks, runtime=config)
        ):
            results[index] = value
    return list(zip(results, cached))


def execute_runs(
    model: "CulinaryEvolutionModel",
    spec: "CuisineSpec",
    seeds: Sequence[int],
    runtime: RuntimeConfig | None = None,
    record_history: bool = False,
    cache: RunCache | None = None,
    engine: str | None = None,
) -> list["EvolutionRun"]:
    """Execute one run per seed, in seed order, through the runtime.

    A one-cell :func:`~repro.runtime.sweep.execute_sweep`: the cell is
    planned and dispatched exactly as a sweep cell is.  When a cache is
    configured (explicitly, or via ``runtime.cache_dir``), cached work
    items are served from disk and only the others are dispatched to
    the backend; fresh results are written back so later invocations —
    any backend, any process — reuse them.

    Args:
        model: The configured model.
        spec: Cuisine inputs.
        seeds: Per-run integer seeds (order defines result order).
        runtime: Backend/jobs/cache selection; ``None`` = serial.
        record_history: Forwarded to every run.
        cache: Explicit cache instance (overrides ``runtime.cache_dir``;
            useful for inspecting hit/miss stats).
        engine: Per-run engine override forwarded to every run
            (``"reference"`` or ``"batched"``; default: the model's
            ``params.engine``).  An engine resolving to ``"batched"``
            executes the cell as one stacked pass, cached as one entry,
            each run identical to its solo execution (DESIGN.md §7);
            CM-V resolves to reference.

    Returns:
        Runs aligned with ``seeds``.
    """
    # Imported here: the sweep layer is built on this module.
    from repro.runtime.sweep import SweepCell, SweepPlan, execute_sweep

    plan = SweepPlan(
        cells=(SweepCell(model, spec, tuple(int(seed) for seed in seeds)),),
        record_history=record_history,
        engine=engine,
    )
    return list(execute_sweep(plan, runtime=runtime, cache=cache).cells[0].runs)


def parallel_map(
    fn: Callable[[T], R],
    items: Sequence[T] | Iterable[T],
    runtime: RuntimeConfig | None = None,
) -> list[R]:
    """Order-preserving map honoring ``process``/``distributed`` for
    picklable work.

    Module-level callables over picklable payloads — e.g. the per-cell
    mining tasks of :func:`~repro.models.ensemble.ensemble_curve` — run
    truly process-parallel under ``backend="process"`` and through the
    work queue under ``backend="distributed"``.  Work that cannot
    cross a process boundary (closure/lambda callables — probed up
    front together with the first item — or, on the process backend, a
    later item or a result that fails to pickle) runs serially
    in-process instead; a one-time
    :class:`~repro.runtime.events.BackendDegradationWarning` names the
    callable and the pickling error, and the event is recorded
    (:func:`~repro.runtime.events.backend_degradations`).  Map work
    must therefore be effect-free: a result that fails to pickle
    re-runs the whole batch serially.  An exception raised by ``fn`` itself is no
    degradation: it reaches the caller once, unchanged.

    Args:
        fn: The mapped callable.  Must be module-level (and its items
            picklable) for the process backend to apply.
        items: Work items, order defines result order on every backend.
        runtime: Backend/jobs selection; ``None`` = serial.
    """
    config = runtime if runtime is not None else RuntimeConfig()
    executor = get_executor(config)
    if executor.name == "serial":
        return executor.map(fn, items)
    items = list(items)
    reason = _pickling_blocker(fn, items[0]) if items else None
    if reason is None:
        try:
            return executor.map(fn, items)
        except _CannotCross as exc:
            reason = f"map failed to cross the process boundary ({exc})"
    events.record(events.BackendDegradation(
        callable_name=events.callable_name(fn),
        requested=config.backend,
        effective="serial",
        reason=reason,
        hint=(
            "pass a module-level function over picklable payloads to "
            f"keep {config.backend} parallelism"
        ),
    ))
    return [fn(item) for item in items]
