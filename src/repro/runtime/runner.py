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

import hashlib
import pickle
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Callable, Iterable, Sequence, TypeVar

from repro.errors import RunCacheError
from repro.rng import rng_from_seed
from repro.runtime import events
from repro.runtime.cache import RunCache, fingerprint_many, run_fingerprint
from repro.runtime.checkpoint import (
    CheckpointPolicy,
    CheckpointStore,
    RunCheckpointer,
    consume_armed_kill,
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
        checkpoint: Optional crash-consistency policy (DESIGN.md §9).
            An execution concern, not part of the run's identity:
            :meth:`fingerprint` deliberately excludes it, so
            checkpointed and plain executions of the same run share a
            cache entry.
    """

    model: "CulinaryEvolutionModel"
    spec: "CuisineSpec"
    seed: int
    record_history: bool = False
    engine: str | None = None
    checkpoint: CheckpointPolicy | None = None

    def fingerprint(self) -> str:
        """Cache key for this request's complete inputs."""
        return run_fingerprint(
            self.model, self.spec, self.seed, self.record_history,
            self.engine,
        )


def _checkpoint_key(item: "RunRequest | BatchRequest") -> str:
    """Stable snapshot key for a work item.

    Single runs key on their cache fingerprint; a batch keys on the
    digest of its runs' fingerprints in seed order — any change to the
    batch's composition (or any member's inputs) keys differently, so
    a resumed batch can never load another batch's snapshot.
    """
    if isinstance(item, BatchRequest):
        parts = fingerprint_many(
            item.model, item.spec, list(item.seeds),
            item.record_history, item.engine,
        )
        return hashlib.sha256("\n".join(parts).encode("ascii")).hexdigest()
    return item.fingerprint()


def _checkpointer_for(
    item: "RunRequest | BatchRequest",
) -> RunCheckpointer | None:
    """Build the item's checkpointer, if snapshots (or a kill) are due.

    Consumes any armed ``kill_at_step`` fault (fault injection arms it
    before the task body runs; see :func:`repro.runtime.faults.inject_fault`)
    so even an unpoliced item honors an injected mid-run kill.
    """
    kill = consume_armed_kill()
    policy = item.checkpoint
    if policy is None and kill is None:
        return None
    store = CheckpointStore(policy.directory) if policy is not None else None
    return RunCheckpointer(
        store,
        _checkpoint_key(item),
        every=policy.every if policy is not None else 0,
        kill_at_step=kill,
    )


def _is_island_member(model: "CulinaryEvolutionModel") -> bool:
    """Duck-typed check for :class:`~repro.models.islands.IslandMemberModel`.

    Kept attribute-based (like :func:`_group_signature`) so the runtime
    never imports the models layer at module scope.
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
    checkpointer = _checkpointer_for(request)
    seed = (
        request.seed
        if _is_island_member(request.model)
        else rng_from_seed(request.seed)
    )
    run = request.model.run(
        request.spec,
        seed=seed,
        record_history=request.record_history,
        engine=request.engine,
        checkpointer=checkpointer,
    )
    if checkpointer is not None:
        checkpointer.finished()
    return run


@dataclass(frozen=True)
class BatchRequest:
    """A same-cell group of runs executed as one batched pass.

    The batched engine's unit of work (DESIGN.md §7): every seed shares
    the same model, spec, history flag and engine override, so the whole
    group advances through :func:`repro.models.batched.run_batched` in
    one set of stacked arrays instead of ``len(seeds)`` per-run
    dispatches.  Like :class:`RunRequest` it is a pure, picklable
    payload — a batch can cross a process boundary whole.

    Attributes:
        model: The configured evolution model (shared by every run).
        spec: Cuisine inputs (shared).
        seeds: Integer child seeds, one per run; result order follows
            seed order.
        record_history: Forwarded to the batch.
        engine: The requests' engine override, carried for provenance
            (grouping already proved it resolves to ``"batched"``).
        checkpoint: Optional crash-consistency policy (DESIGN.md §9);
            excluded from every member run's cache key, like
            :attr:`RunRequest.checkpoint`.
    """

    model: "CulinaryEvolutionModel"
    spec: "CuisineSpec"
    seeds: tuple[int, ...]
    record_history: bool = False
    engine: str | None = None
    checkpoint: CheckpointPolicy | None = None


def execute_batch(batch: BatchRequest) -> list["EvolutionRun"]:
    """Execute a batch of runs in one stacked pass, in seed order.

    Module-level so the process backend can pickle it.  Each run of the
    result is bit-identical to what :func:`execute_request` would have
    produced for the same seed — batch composition never leaks into
    per-run results — which is what keeps batched runs individually
    cacheable.
    """
    from repro.models.batched import run_batched

    checkpointer = _checkpointer_for(batch)
    runs = run_batched(
        batch.model,
        batch.spec,
        [rng_from_seed(seed) for seed in batch.seeds],
        record_history=batch.record_history,
        checkpointer=checkpointer,
    )
    if checkpointer is not None:
        checkpointer.finished()
    return runs


@dataclass(frozen=True)
class ArchipelagoRequest:
    """A same-(simulation, seed) group of island members, run once.

    The island engine's unit of work (DESIGN.md §10): every member of
    an :class:`~repro.models.islands.IslandSimulation` is an
    independently cacheable run, but they are all produced by *one*
    archipelago execution for a given master seed.  The dispatcher
    folds consecutive same-simulation same-seed member requests into
    this item so the simulation runs once, not once per member.  Like
    the other work items it is a pure, picklable payload.

    Attributes:
        simulation: The archipelago to execute.
        members: Member indices to return, in request order.
        seed: The integer master seed shared by the group.
        record_history: Forwarded to the simulation.
        checkpoint: Accepted for dispatch-policy compatibility and
            ignored — the scalar archipelago loop does not snapshot.
    """

    simulation: "object"
    members: tuple[int, ...]
    seed: int
    record_history: bool = False
    checkpoint: CheckpointPolicy | None = None


def execute_archipelago(request: ArchipelagoRequest) -> list["EvolutionRun"]:
    """Execute one archipelago, returning the requested members' runs.

    Module-level so the process backend can pickle it.  The raw integer
    master seed passes straight through — the same seed a solo
    :func:`execute_request` hands an island member and a direct
    ``IslandSimulation.run(seed=master)`` uses — so grouped, solo and
    direct member runs are all bit-identical.
    """
    # Islands do not checkpoint; consume any armed kill_at_step fault
    # so it cannot leak into a later task on this worker.
    consume_armed_kill()
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
    a mixed sequence of singles and groups; the caller flattens.
    """
    if isinstance(item, BatchRequest):
        return execute_batch(item)
    if isinstance(item, ArchipelagoRequest):
        return execute_archipelago(item)
    return [execute_request(item)]


def _group_signature(request: RunRequest) -> tuple | None:
    """The adjacency-grouping key for one pending request, if any.

    Two kinds of request fold into group work items:

    * island members (duck-typed on the ``simulation``/``member_index``
      attributes of :class:`~repro.models.islands.IslandMemberModel`)
      group by (simulation identity, master seed, history flag) — every
      member of one archipelago execution;
    * batched-resolving requests group by (model identity, spec
      identity, history flag, engine override) — one same-cell stacked
      pass (DESIGN.md §7).
    """
    if _is_island_member(request.model):
        return ("islands", id(request.model.simulation), request.seed,
                request.record_history)
    if request.model.resolve_engine(request.engine) == "batched":
        return ("batched", id(request.model), id(request.spec),
                request.record_history, request.engine)
    return None


def _plan_work(
    requests: Sequence[RunRequest], pending: Sequence[int]
) -> list["RunRequest | BatchRequest | ArchipelagoRequest"]:
    """Group adjacent groupable misses into batch/archipelago items.

    Walks the pending indices in dispatch order and folds consecutive
    requests sharing a :func:`_group_signature` into one work item:
    batched-resolving same-cell runs become a :class:`BatchRequest`
    (one stacked pass), island members of the same simulation and
    master seed become an :class:`ArchipelagoRequest` (one archipelago
    execution).  Everything else (other engines, singleton groups)
    stays a plain per-run request.  Identity-based grouping is
    deliberately conservative: :func:`execute_runs`, the sweep layer
    and :func:`~repro.models.islands.run_island_ensemble` build their
    requests from shared objects in grouping order, so groups always
    form there, while equal-but-distinct configurations never
    accidentally merge.
    """
    work: list["RunRequest | BatchRequest | ArchipelagoRequest"] = []
    group: list[RunRequest] = []
    group_signature: tuple | None = None

    def flush() -> None:
        if not group:
            return
        first = group[0]
        if len(group) == 1:
            work.append(first)
        elif group_signature is not None and group_signature[0] == "islands":
            work.append(
                ArchipelagoRequest(
                    simulation=first.model.simulation,
                    members=tuple(
                        request.model.member_index for request in group
                    ),
                    seed=first.seed,
                    record_history=first.record_history,
                )
            )
        else:
            work.append(
                BatchRequest(
                    model=first.model,
                    spec=first.spec,
                    seeds=tuple(request.seed for request in group),
                    record_history=first.record_history,
                    engine=first.engine,
                )
            )
        group.clear()

    for index in pending:
        request = requests[index]
        signature = _group_signature(request)
        if signature is None or signature != group_signature:
            flush()
            group_signature = signature
        if signature is None:
            work.append(request)
        else:
            group.append(request)
    flush()
    return work


@dataclass(frozen=True)
class _CacheThroughWork:
    """A work item bundled with its cache destination and keys.

    The distributed backend's unit of dispatch: the worker that computes
    the runs also writes them into the shared
    :class:`~repro.runtime.cache.RunCache` (keyed per run, aligned with
    the item's seed order), making the cache directory the result
    rendezvous — an interrupted sweep resumes from whatever any worker
    finished, even if the coordinator never saw it.
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
    try:
        cache = RunCache(work.cache_dir)
        for key, run in zip(work.keys, runs):
            cache.put(key, run)
    except RunCacheError:
        pass
    return runs


def _plan_write_through(
    work: Sequence["RunRequest | BatchRequest | ArchipelagoRequest"],
    keys: Sequence[str],
    pending: Sequence[int],
    cache_dir: str,
) -> list[_CacheThroughWork]:
    """Pair each planned work item with the cache keys of its runs."""
    wrapped: list[_CacheThroughWork] = []
    cursor = 0
    for item in work:
        if isinstance(item, BatchRequest):
            count = len(item.seeds)
        elif isinstance(item, ArchipelagoRequest):
            count = len(item.members)
        else:
            count = 1
        wrapped.append(
            _CacheThroughWork(
                item=item,
                cache_dir=cache_dir,
                keys=tuple(
                    keys[pending[cursor + offset]]
                    for offset in range(count)
                ),
            )
        )
        cursor += count
    return wrapped


def dispatch_requests(
    requests: Sequence[RunRequest],
    keys: Sequence[str] | None,
    config: RuntimeConfig,
    cache: RunCache | None,
) -> tuple[list["EvolutionRun"], list[int]]:
    """Serve requests from cache, dispatch the misses, write fresh runs back.

    The shared core of :func:`execute_runs` and
    :func:`~repro.runtime.sweep.execute_sweep` — one place owns the
    cache policy: lookups happen up front, only misses reach the
    backend (in request order, so order-preserving executors keep the
    result list aligned with ``requests``), and a cache *write* failure
    disables further writes rather than discarding computed results.

    Misses whose engine resolves to ``"batched"`` are additionally
    folded into same-cell :class:`BatchRequest` groups (see
    :func:`_plan_work`) and executed as single stacked passes; because
    batched runs are bit-identical regardless of batch composition,
    cache hits splitting a group never change any run's result.

    Args:
        requests: The work items, in result order.
        keys: Cache key per request (aligned), or ``None`` to skip the
            cache entirely.
        config: Backend/jobs selection; its ``checkpoint_every``
            attaches a snapshot policy to every work item (DESIGN.md
            §9), with the snapshots beside the run cache in its
            directory.
        cache: Cache instance; ``None`` disables lookups and writes.

    Returns:
        ``(results, dispatched)``: results aligned with ``requests``,
        plus the indices that were executed rather than served from
        cache.
    """
    results: list["EvolutionRun | None"] = [None] * len(requests)
    pending: list[int] = []
    if cache is not None and keys is not None:
        for index, key in enumerate(keys):
            cached = cache.get(key)
            if cached is not None:
                results[index] = cached
            else:
                pending.append(index)
    else:
        pending = list(range(len(requests)))

    if pending:
        executor = get_executor(config)
        work = _plan_work(requests, pending)
        if config.checkpoint_every is not None:
            # RuntimeConfig refuses a period without a cache directory,
            # so every caller has a cache to hold the snapshots.
            policy = CheckpointPolicy(
                directory=str(cache.directory),
                every=config.checkpoint_every,
            )
            work = [replace(item, checkpoint=policy) for item in work]
        # Under the distributed backend the *workers* write fresh runs
        # into the shared cache directory (the result rendezvous,
        # DESIGN.md §8) and the coordinator skips its own puts; every
        # other backend writes back here, after the map.
        write_through = (
            config.backend == "distributed"
            and cache is not None
            and keys is not None
        )
        if write_through:
            computed_lists = executor.map(
                _execute_work_write_through,
                _plan_write_through(
                    work, keys, pending, str(cache.directory)
                ),
            )
        else:
            computed_lists = executor.map(_execute_work, work)
        computed = [run for runs in computed_lists for run in runs]
        for index, run in zip(pending, computed):
            results[index] = run
            if cache is not None and keys is not None and not write_through:
                # The cache is an optimization: a write failure
                # (disk full, permissions, unpicklable payload) must
                # never discard computed results.  Stop writing after
                # the first failure; lookups already succeeded.
                try:
                    cache.put(keys[index], run)
                except RunCacheError:
                    cache = None
    return results, pending  # type: ignore[return-value]


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

    When a cache is configured (explicitly, or via
    ``runtime.cache_dir``), cached runs are served from disk and only
    the misses are dispatched to the backend; fresh results are written
    back so later invocations — any backend, any process — reuse them.

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
            executes same-cell cache misses as stacked group passes,
            each run identical to its solo execution (DESIGN.md §7);
            CM-V resolves to reference.

    Returns:
        Runs aligned with ``seeds``.
    """
    config = runtime if runtime is not None else RuntimeConfig()
    if cache is None and config.cache_dir is not None:
        cache = RunCache(config.cache_dir)
    requests = [
        RunRequest(model=model, spec=spec, seed=int(seed),
                   record_history=record_history, engine=engine)
        for seed in seeds
    ]
    keys = None
    if cache is not None:
        # One canonicalization for the whole batch — only the seed
        # varies between requests.
        keys = fingerprint_many(
            model, spec, [request.seed for request in requests],
            record_history, engine,
        )
    results, _dispatched = dispatch_requests(requests, keys, config, cache)
    return results


def parallel_map(
    fn: Callable[[T], R],
    items: Sequence[T] | Iterable[T],
    runtime: RuntimeConfig | None = None,
) -> list[R]:
    """Order-preserving map honoring ``process``/``distributed`` for
    picklable work.

    Module-level callables over picklable payloads — e.g. the per-run
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
