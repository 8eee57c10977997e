"""File-based distributed work-queue executor backend (DESIGN.md §8).

The in-process backends (§5) top out at one machine.  This module adds
``backend="distributed"``: the coordinator spools pickled tasks into a
shared *spool directory*, worker processes — spawned locally by the
coordinator and/or attached from anywhere that mounts the spool via
``repro worker --spool DIR`` — claim tasks by **atomic rename**, prove
liveness with **heartbeat files**, and return results through the spool;
for simulation runs the shared :class:`~repro.runtime.cache.RunCache`
directory additionally acts as the result rendezvous (workers write
completed runs straight into it), so an interrupted sweep resumes from
whatever finished.

Robustness is structural, not bolted on:

* a claim whose heartbeat goes stale (`lease_timeout`) is reclaimed —
  the crashed-worker path;
* a claim that outlives ``task_timeout`` despite fresh heartbeats is
  reclaimed — the hung-worker path;
* every reclaim or task error requeues the task with **bounded retries**
  and **exponential backoff + jitter** (:func:`backoff_delay`), failing
  the map with :class:`~repro.errors.TaskRetryExhaustedError` once
  ``max_attempts`` is spent;
* every attempt is recorded as a structured :class:`TaskAttempt` in
  the runtime event log (:mod:`repro.runtime.events`), queryable after
  the run via :func:`task_attempts`;
* every event a task records inside its worker (an evicted cache
  entry, a backend degradation) travels back in the result payload's
  ``events`` list and is replayed into the coordinator's log;
* a map that no worker attaches to within ``attach_deadline`` degrades
  to the process backend with a
  :class:`~repro.runtime.events.BackendDegradationWarning`.

Determinism: tasks are pure functions of their payload (per-run integer
seeds, §5), the coordinator assembles results strictly by task index,
and duplicate executions — possible when a hung worker finishes after
its task was reclaimed — produce byte-identical payloads, of which the
ledger accepts exactly the first.  A distributed sweep is therefore
bit-identical to ``backend="serial"`` for a fixed master seed, faults
included (``tests/runtime/test_fault_injection.py``).

The claim/heartbeat/requeue bookkeeping is factored into the pure,
filesystem-free :class:`LeaseLedger` so its state machine can be
property-tested over arbitrary event interleavings
(``tests/runtime/test_lease_properties.py``).
"""

from __future__ import annotations

import json
import os
import pickle
import random
import shutil
import tempfile
import threading
import time
import uuid
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Callable, Iterable, Sequence, TypeVar

from repro import durable
from repro.errors import ExecutionError, TaskRetryExhaustedError
from repro.runtime import events
from repro.runtime.config import DistributedConfig, RuntimeConfig
from repro.runtime.executor import (
    Executor,
    ProcessExecutor,
    SerialExecutor,
)
from repro.runtime.faults import (
    FaultPlan,
    fire_fault,
    fired_faults,
    inject_fault,
)

__all__ = [
    "DistributedExecutor",
    "LeaseLedger",
    "Spool",
    "SpoolTask",
    "TaskAttempt",
    "TaskLease",
    "WorkerSummary",
    "backoff_delay",
    "run_worker",
    "signal_stop",
    "task_attempts",
]

T = TypeVar("T")
R = TypeVar("R")

#: Entry suffixes namespacing the spool (mirrors the cache-store idiom).
TASK_SUFFIX = ".task.pkl"
CLAIM_SUFFIX = ".claim.pkl"
HEARTBEAT_SUFFIX = ".hb"
RESULT_SUFFIX = ".result.pkl"
ALIVE_SUFFIX = ".alive"

# ---------------------------------------------------------------------------
# Spool layout
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Spool:
    """The on-disk layout of one work-queue directory.

    ::

        <root>/
          tasks/     pending task files   <task>.aNN.task.pkl
          claimed/   leased task files    <task>.aNN.<worker>.claim.pkl
                     heartbeat files      <task>.aNN.<worker>.hb
          results/   result payloads      <task>.result.pkl
          workers/   worker liveness      <worker>.alive
          faults.json    optional fault-injection plan
          faults.fired/  one record per fault that fired
          attempts.jsonl appended TaskAttempt records (coordinator)
          stop           sentinel telling idle workers to exit

    Task names embed a per-map nonce (``<nonce>-<index>``), so several
    maps — concurrent or sequential — can share one spool and one
    standing worker fleet without colliding.
    """

    root: Path

    @property
    def tasks(self) -> Path:
        return self.root / "tasks"

    @property
    def claimed(self) -> Path:
        return self.root / "claimed"

    @property
    def results(self) -> Path:
        return self.root / "results"

    @property
    def workers(self) -> Path:
        return self.root / "workers"

    @property
    def fault_path(self) -> Path:
        return self.root / "faults.json"

    @property
    def fired_dir(self) -> Path:
        return self.root / "faults.fired"

    @property
    def attempts_path(self) -> Path:
        return self.root / "attempts.jsonl"

    @property
    def stop_path(self) -> Path:
        return self.root / "stop"

    def ensure(self) -> "Spool":
        """Create the layout (idempotent; safe for concurrent callers)."""
        for directory in (
            self.root, self.tasks, self.claimed, self.results, self.workers
        ):
            directory.mkdir(parents=True, exist_ok=True)
        return self


def signal_stop(spool_dir: str | Path) -> Path:
    """Tell workers polling ``spool_dir`` to exit once the queue drains.

    Equivalent to ``touch <spool>/stop`` — provided as a function so
    operators and tests share one spelling.  The coordinator never
    writes this itself: externally attached workers belong to whoever
    started them and may be serving other maps.
    """
    spool = Spool(Path(spool_dir)).ensure()
    spool.stop_path.touch()
    return spool.stop_path


@dataclass(frozen=True)
class SpoolTask:
    """One spooled unit of work: the map callable applied to one item.

    Attributes:
        index: Position in the coordinator's item list (defines result
            order — the order-preservation half of the §5 contract).
        fn: The mapped callable (module-level, pickled by reference).
        item: The work item (pickled by value).
    """

    index: int
    fn: Callable
    item: object


def _task_index(task_id: str) -> int:
    """Task index from a ``<nonce>-<index>`` task id."""
    return int(task_id.rsplit("-", 1)[1])


# ---------------------------------------------------------------------------
# Retry policy
# ---------------------------------------------------------------------------


def backoff_delay(
    retry: int, base: float, cap: float, rng: random.Random
) -> float:
    """Exponential backoff with jitter for the ``retry``-th retry.

    The ``retry``-th retry (1-based) waits ``base * 2**(retry-1)``
    seconds, capped at ``cap``, scaled by a uniform jitter in
    ``[0.5, 1.5)`` so a fleet of workers whose tasks failed together
    does not thunder back in lockstep.  Jitter randomness never touches
    simulation results — tasks are pure functions of their payload —
    so the generator needs no seed discipline (tests inject one).

    Raises:
        ExecutionError: If ``retry < 1``.
    """
    if retry < 1:
        raise ExecutionError(f"retry is a 1-based ordinal, got {retry}")
    return min(cap, base * (2.0 ** (retry - 1))) * (0.5 + rng.random())


# ---------------------------------------------------------------------------
# Lease state machine (pure; property-tested)
# ---------------------------------------------------------------------------

#: Lease lifecycle states.  ``done`` and ``failed`` are absorbing.
LEASE_PENDING = "pending"
LEASE_CLAIMED = "claimed"
LEASE_DONE = "done"
LEASE_FAILED = "failed"


@dataclass
class TaskLease:
    """Bookkeeping for one task's current attempt.

    Attributes:
        index: Task index.
        attempt: 1-based attempt number (monotone, capped by the
            ledger's ``max_attempts``).
        status: One of the four lease states.
        worker: Claiming worker id while ``claimed``.
        claimed_at: Claim timestamp of the current attempt.
        last_heartbeat: Latest observed liveness of the current claim.
        not_before: Earliest time the next attempt may be (re)spooled —
            the backoff gate.
        last_error: Most recent failure reason, kept for the
            retry-exhaustion report.
    """

    index: int
    attempt: int = 1
    status: str = LEASE_PENDING
    worker: str | None = None
    claimed_at: float | None = None
    last_heartbeat: float | None = None
    not_before: float = 0.0
    last_error: str | None = None


class LeaseLedger:
    """The task-lease state machine, free of any filesystem concern.

    The coordinator feeds it observations (claims seen, heartbeats,
    results, staleness) and reads back what to do (which attempts to
    respool, which tasks are finished or exhausted).  Keeping it pure
    makes the protocol's safety properties — a task is never lost, and
    never *completes* twice — directly checkable by hypothesis over
    arbitrary claim/heartbeat/expire/complete interleavings.

    Args:
        n_tasks: Number of tasks tracked (indices ``0..n_tasks-1``).
        max_attempts: Total attempts allowed per task (>= 1).
        backoff_base: First-retry delay in seconds.
        backoff_cap: Upper bound on any retry delay.
        rng: Jitter source (injectable for deterministic tests).
    """

    def __init__(
        self,
        n_tasks: int,
        max_attempts: int = 3,
        backoff_base: float = 0.25,
        backoff_cap: float = 30.0,
        rng: random.Random | None = None,
    ):
        if n_tasks < 0:
            raise ExecutionError(f"n_tasks must be >= 0, got {n_tasks}")
        if max_attempts < 1:
            raise ExecutionError(
                f"max_attempts must be >= 1, got {max_attempts}"
            )
        self._max_attempts = max_attempts
        self._backoff_base = backoff_base
        self._backoff_cap = backoff_cap
        self._rng = rng if rng is not None else random.Random()
        self._leases = [TaskLease(index=i) for i in range(n_tasks)]

    def __len__(self) -> int:
        return len(self._leases)

    @property
    def max_attempts(self) -> int:
        return self._max_attempts

    def lease(self, index: int) -> TaskLease:
        """The live lease record for one task (treat as read-only)."""
        return self._leases[index]

    def leases(self) -> tuple[TaskLease, ...]:
        return tuple(self._leases)

    # -- transitions --------------------------------------------------

    def claim(self, index: int, worker: str, now: float) -> bool:
        """A worker claimed this task; accept only from ``pending``.

        Refusing claims before ``not_before`` keeps the backoff gate
        authoritative even if a stale spool file gets picked up early.
        """
        lease = self._leases[index]
        if lease.status != LEASE_PENDING or now < lease.not_before:
            return False
        lease.status = LEASE_CLAIMED
        lease.worker = worker
        lease.claimed_at = now
        lease.last_heartbeat = now
        return True

    def heartbeat(self, index: int, now: float) -> bool:
        """Record claim liveness; no-op outside ``claimed``."""
        lease = self._leases[index]
        if lease.status != LEASE_CLAIMED:
            return False
        lease.last_heartbeat = max(lease.last_heartbeat or now, now)
        return True

    def complete(self, index: int, now: float) -> bool:
        """A result arrived; the **first** completion wins.

        Returns ``False`` for duplicates (a reclaimed-then-finished
        straggler) and for tasks already failed — the caller discards
        the payload in both cases.  Completion is accepted from
        ``pending`` too: a worker whose lease expired may still deliver
        a perfectly good (and, tasks being pure, bit-identical) result
        before the replacement attempt runs.
        """
        lease = self._leases[index]
        if lease.status in (LEASE_DONE, LEASE_FAILED):
            return False
        lease.status = LEASE_DONE
        lease.last_heartbeat = now
        return True

    def expire(self, index: int, now: float, lease_timeout: float) -> bool:
        """Reclaim a claim whose heartbeat went stale (worker death)."""
        lease = self._leases[index]
        if lease.status != LEASE_CLAIMED:
            return False
        reference = lease.last_heartbeat or lease.claimed_at or now
        if now - reference <= lease_timeout:
            return False
        self._requeue(lease, now, "lease expired (worker presumed dead)")
        return True

    def time_out(self, index: int, now: float, task_timeout: float) -> bool:
        """Reclaim a claim that outlived the per-task timeout (hang)."""
        lease = self._leases[index]
        if lease.status != LEASE_CLAIMED:
            return False
        if now - (lease.claimed_at or now) <= task_timeout:
            return False
        self._requeue(lease, now, "task timeout exceeded")
        return True

    def fail(self, index: int, error: str, now: float) -> bool:
        """The task's callable raised; requeue or exhaust."""
        lease = self._leases[index]
        if lease.status in (LEASE_DONE, LEASE_FAILED):
            return False
        self._requeue(lease, now, error)
        return True

    def _requeue(self, lease: TaskLease, now: float, error: str) -> None:
        lease.last_error = error
        lease.worker = None
        lease.claimed_at = None
        lease.last_heartbeat = None
        if lease.attempt >= self._max_attempts:
            lease.status = LEASE_FAILED
            return
        lease.attempt += 1
        lease.status = LEASE_PENDING
        lease.not_before = now + backoff_delay(
            lease.attempt - 1, self._backoff_base, self._backoff_cap,
            self._rng,
        )

    # -- queries ------------------------------------------------------

    def ready(self, now: float) -> list[TaskLease]:
        """Pending leases whose backoff gate has passed."""
        return [
            lease
            for lease in self._leases
            if lease.status == LEASE_PENDING and now >= lease.not_before
        ]

    def claimed(self) -> list[TaskLease]:
        return [
            lease for lease in self._leases
            if lease.status == LEASE_CLAIMED
        ]

    def failed(self) -> list[TaskLease]:
        return [
            lease for lease in self._leases if lease.status == LEASE_FAILED
        ]

    def unfinished(self) -> list[TaskLease]:
        """Leases not yet absorbed by ``done`` (includes ``failed``)."""
        return [
            lease for lease in self._leases if lease.status != LEASE_DONE
        ]

    def all_done(self) -> bool:
        return all(lease.status == LEASE_DONE for lease in self._leases)


# ---------------------------------------------------------------------------
# Task-attempt records
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TaskAttempt(events.Event):
    """One attempt of one task, as observed by the coordinator.

    Recorded in the runtime event log every time, silently.

    Attributes:
        task_index: The task's position in the map's item list.
        attempt: 1-based attempt number.
        outcome: ``"completed"``, ``"failed"`` (the callable raised),
            ``"lease_expired"`` (worker presumed dead) or
            ``"timed_out"`` (ran past ``task_timeout``).
        worker: Worker id involved, when known.
        error: Failure reason for non-completed outcomes.
        elapsed_seconds: Worker-measured execution time for completed
            attempts.
        fault: Action of the planned fault injected into this attempt
            (:mod:`repro.runtime.faults`), or ``None``.
    """

    task_index: int
    attempt: int
    outcome: str
    worker: str | None = None
    error: str | None = None
    elapsed_seconds: float | None = None
    fault: str | None = None


def task_attempts() -> tuple[TaskAttempt, ...]:
    """Every distributed task attempt recorded so far, in order."""
    return events.recorded(TaskAttempt)


# ---------------------------------------------------------------------------
# Worker
# ---------------------------------------------------------------------------


@dataclass
class WorkerSummary:
    """What one :func:`run_worker` loop did before exiting.

    Attributes:
        worker_id: The id the worker claimed tasks under.
        claimed: Tasks claimed (faulted attempts included).
        completed: Results written with ``ok=True``.
        failed: Results written with ``ok=False`` (the callable raised).
    """

    worker_id: str
    claimed: int = 0
    completed: int = 0
    failed: int = 0


def _heartbeat_thread(
    hb_path: Path, interval: float
) -> tuple[threading.Event, threading.Thread]:
    """Touch ``hb_path`` every ``interval`` seconds until told to stop."""
    stop = threading.Event()

    def beat() -> None:
        while not stop.wait(interval):
            try:
                os.utime(hb_path)
            except OSError:
                return

    thread = threading.Thread(target=beat, daemon=True)
    thread.start()
    return stop, thread


def run_worker(
    spool_dir: str | Path,
    worker_id: str | None = None,
    poll_interval: float = 0.05,
    heartbeat_interval: float = 1.0,
    idle_timeout: float | None = None,
    max_tasks: int | None = None,
    fault_plan: FaultPlan | None = None,
    parent_pid: int | None = None,
) -> WorkerSummary:
    """Serve a spool directory until stopped; the ``repro worker`` loop.

    The worker repeatedly scans ``<spool>/tasks``, claims one file at a
    time by atomically renaming it into ``<spool>/claimed`` (rename
    either succeeds exactly once across all racing workers or raises —
    the mutual exclusion primitive of the whole protocol), heartbeats
    while executing, writes the result into ``<spool>/results``, and
    cleans its claim.  Task payloads it cannot even deserialize are
    reported as failed results rather than crashing the loop.

    Exit conditions: the spool's ``stop`` sentinel exists and the queue
    is empty (:func:`signal_stop`); ``idle_timeout`` seconds pass
    without claiming anything; ``max_tasks`` tasks were claimed; or —
    for coordinator-spawned workers — the ``parent_pid`` process died.

    Args:
        spool_dir: The work-queue directory (created if missing).
        worker_id: Stable id for claims/heartbeats (default
            ``w<pid>``); dots are reserved as filename separators and
            are replaced with dashes.
        poll_interval: Seconds between queue scans when idle.
        heartbeat_interval: Seconds between heartbeat touches; must be
            well under the coordinator's ``lease_timeout``.
        idle_timeout: Exit after this much idle time (``None`` = wait
            for the stop sentinel indefinitely).
        max_tasks: Exit after claiming this many tasks.
        fault_plan: Explicit fault plan (testing); defaults to the
            spool's ``faults.json`` when present.
        parent_pid: Exit if this process stops being the parent
            (coordinator-spawned workers must not outlive a crashed
            coordinator).

    Returns:
        A :class:`WorkerSummary` of the loop's activity.
    """
    spool = Spool(Path(spool_dir)).ensure()
    if worker_id is None:
        worker_id = f"w{os.getpid()}"
    worker_id = worker_id.replace(".", "-")
    if fault_plan is None and spool.fault_path.exists():
        fault_plan = FaultPlan.load(spool.fault_path)
    summary = WorkerSummary(worker_id=worker_id)
    alive_path = spool.workers / f"{worker_id}{ALIVE_SUFFIX}"
    last_claim = time.time()

    while True:
        if parent_pid is not None and os.getppid() != parent_pid:
            break
        try:
            alive_path.touch()
        except OSError:
            break  # spool removed under us — the session is over
        task_paths = sorted(spool.tasks.glob(f"*{TASK_SUFFIX}"))
        if not task_paths:
            if spool.stop_path.exists():
                break
            if (
                idle_timeout is not None
                and time.time() - last_claim > idle_timeout
            ):
                break
            time.sleep(poll_interval)
            continue

        claimed_any = False
        for task_path in task_paths:
            base = task_path.name[: -len(TASK_SUFFIX)]  # <task>.aNN
            claim_path = (
                spool.claimed / f"{base}.{worker_id}{CLAIM_SUFFIX}"
            )
            try:
                os.rename(task_path, claim_path)
            except OSError:
                continue  # another worker won the rename
            claimed_any = True
            last_claim = time.time()
            summary.claimed += 1
            task_id, attempt_tag = base.rsplit(".", 1)
            hb_path = spool.claimed / f"{base}.{worker_id}{HEARTBEAT_SUFFIX}"
            hb_path.touch()
            hb_stop, hb = _heartbeat_thread(hb_path, heartbeat_interval)
            try:
                # The fault seam sits after claim + first heartbeat and
                # before deserialization, so an injected kill leaves
                # exactly a real crash's on-disk state (faults.py).
                if fault_plan is not None:
                    spec = fire_fault(
                        fault_plan, spool.fired_dir, worker_id,
                        summary.claimed, base,
                    )
                    if spec is not None:
                        inject_fault(spec)
                started = time.perf_counter()
                # The events the task records (an evicted cache entry,
                # a degradation) belong to the coordinator: they ride
                # back in the result payload and are replayed there.
                with events.shipped() as recorded:
                    try:
                        task: SpoolTask = pickle.loads(
                            claim_path.read_bytes()
                        )
                        value = task.fn(task.item)
                        payload = {
                            "ok": True,
                            "value": value,
                            "error": None,
                        }
                        summary.completed += 1
                    except Exception as exc:
                        payload = {
                            "ok": False,
                            "value": None,
                            "error": f"{type(exc).__name__}: {exc}",
                        }
                        summary.failed += 1
                payload.update(
                    worker=worker_id,
                    attempt=int(attempt_tag[1:]),
                    elapsed=time.perf_counter() - started,
                    events=recorded,
                )
                result = spool.results / f"{task_id}{RESULT_SUFFIX}"
                try:
                    with durable.atomic_write(result, durable=False) as out:
                        pickle.dump(payload, out, pickle.HIGHEST_PROTOCOL)
                except (OSError, pickle.PicklingError):
                    # Result undeliverable (spool vanished, unpicklable
                    # value).  Losing the lease is the correct signal:
                    # the coordinator reclaims and retries elsewhere.
                    pass
            finally:
                hb_stop.set()
                hb.join(timeout=1.0)
                for leftover in (claim_path, hb_path):
                    try:
                        leftover.unlink()
                    except OSError:
                        pass
            if max_tasks is not None and summary.claimed >= max_tasks:
                try:
                    alive_path.unlink()
                except OSError:
                    pass
                return summary
        if not claimed_any:
            time.sleep(poll_interval)
    try:
        alive_path.unlink()
    except OSError:
        pass
    return summary


def _local_worker_main(
    spool_dir: str,
    worker_id: str,
    poll_interval: float,
    heartbeat_interval: float,
    parent_pid: int,
) -> None:
    """Entry point of coordinator-spawned local worker processes."""
    run_worker(
        spool_dir,
        worker_id=worker_id,
        poll_interval=poll_interval,
        heartbeat_interval=heartbeat_interval,
        parent_pid=parent_pid,
    )


# ---------------------------------------------------------------------------
# Coordinator
# ---------------------------------------------------------------------------


@dataclass
class _LocalFleet:
    """The coordinator's handle on the workers it spawned itself."""

    spool: Spool
    settings: DistributedConfig
    target: int
    procs: list = field(default_factory=list)
    spawned: int = 0
    restarts_used: int = 0

    def spawn_one(self) -> None:
        import multiprocessing

        ctx = multiprocessing.get_context()
        worker_id = f"local-{self.spawned}"
        proc = ctx.Process(
            target=_local_worker_main,
            args=(
                str(self.spool.root),
                worker_id,
                self.settings.poll_interval,
                self.settings.heartbeat_interval,
                os.getpid(),
            ),
            daemon=True,
            name=f"repro-worker-{worker_id}",
        )
        proc.start()
        self.spawned += 1
        self.procs.append(proc)

    def start(self) -> None:
        for _ in range(self.target):
            self.spawn_one()

    def respawn_dead(self) -> None:
        """Replace crashed workers within the restart budget."""
        alive = [proc for proc in self.procs if proc.is_alive()]
        dead = len(self.procs) - len(alive)
        self.procs = alive
        for _ in range(dead):
            if self.restarts_used >= self.settings.max_worker_restarts:
                return
            self.restarts_used += 1
            self.spawn_one()

    def any_alive(self) -> bool:
        return any(proc.is_alive() for proc in self.procs)

    def terminate(self) -> None:
        for proc in self.procs:
            if proc.is_alive():
                proc.terminate()
        for proc in self.procs:
            proc.join(timeout=2.0)
        self.procs.clear()


class DistributedExecutor(Executor):
    """Work-queue execution over a spool directory (DESIGN.md §8).

    Constructed by :func:`~repro.runtime.executor.get_executor` for
    ``backend="distributed"``.  Each :meth:`map` call runs one spool
    session: spool every item, serve/monitor the queue until every task
    completes (or retries exhaust), and return results in item order.
    """

    name = "distributed"

    def __init__(self, config: RuntimeConfig):
        self._config = config
        self._settings = config.resolve_distributed()
        self._jobs = config.resolve_jobs()

    @property
    def jobs(self) -> int:
        return self._jobs

    @property
    def settings(self) -> DistributedConfig:
        return self._settings

    def local_worker_target(self) -> int:
        """Local workers this executor will spawn per map."""
        if self._settings.local_workers is not None:
            return self._settings.local_workers
        return self._jobs

    def map(
        self, fn: Callable[[T], R], items: Sequence[T] | Iterable[T]
    ) -> list[R]:
        items = list(items)
        if not items:
            return []
        return _MapSession(fn, items, self).run()


class _MapSession:
    """One map's worth of spool protocol, from spooling to cleanup."""

    def __init__(
        self, fn: Callable, items: list, executor: DistributedExecutor
    ):
        self._fn = fn
        self._items = items
        self._executor = executor
        self._settings = executor.settings
        self._owns_spool = self._settings.spool_dir is None
        root = (
            Path(tempfile.mkdtemp(prefix="repro-spool-"))
            if self._owns_spool
            else self._settings.spool_dir
        )
        self._spool = Spool(root).ensure()
        self._nonce = uuid.uuid4().hex[:8]
        self._ledger = LeaseLedger(
            len(items),
            max_attempts=self._settings.max_attempts,
            backoff_base=self._settings.backoff_base,
            backoff_cap=self._settings.backoff_cap,
        )
        self._payloads: list[bytes] = []
        self._results: list = [None] * len(items)
        self._spooled: dict[int, int] = {}  # index -> attempt on disk
        self._any_claim_seen = False
        self._fleet = _LocalFleet(
            spool=self._spool,
            settings=self._settings,
            target=executor.local_worker_target(),
        )

    # -- naming -------------------------------------------------------

    def _task_id(self, index: int) -> str:
        return f"{self._nonce}-{index:05d}"

    def _record(self, attempt: TaskAttempt) -> None:
        fault = fired_faults(self._spool.fired_dir).get(
            f"{self._task_id(attempt.task_index)}.a{attempt.attempt:02d}"
        )
        attempt = replace(attempt, fault=fault)
        events.record(attempt)
        try:
            with self._spool.attempts_path.open("a", encoding="utf-8") as f:
                f.write(json.dumps(attempt.__dict__, sort_keys=True) + "\n")
        except OSError:
            pass  # the event log is authoritative; the file is advisory

    # -- protocol steps ----------------------------------------------

    def _serialize(self) -> None:
        try:
            self._payloads = [
                pickle.dumps(
                    SpoolTask(index=i, fn=self._fn, item=item),
                    protocol=pickle.HIGHEST_PROTOCOL,
                )
                for i, item in enumerate(self._items)
            ]
        except Exception as exc:
            raise ExecutionError(
                f"distributed backend requires picklable work "
                f"({type(exc).__name__}: {exc}); pass a module-level "
                "function over picklable payloads"
            ) from exc

    def _respool_ready(self, now: float) -> None:
        for lease in self._ledger.ready(now):
            if self._spooled.get(lease.index) == lease.attempt:
                continue
            name = (
                f"{self._task_id(lease.index)}.a{lease.attempt:02d}"
                f"{TASK_SUFFIX}"
            )
            path = self._spool.tasks / name
            with durable.atomic_write(path, durable=False) as handle:
                handle.write(self._payloads[lease.index])
            self._spooled[lease.index] = lease.attempt

    def _collect_results(self, now: float) -> None:
        for path in self._spool.results.glob(
            f"{self._nonce}-*{RESULT_SUFFIX}"
        ):
            task_id = path.name[: -len(RESULT_SUFFIX)]
            try:
                index = _task_index(task_id)
            except ValueError:
                continue
            if index >= len(self._items):
                continue
            try:
                payload = pickle.loads(path.read_bytes())
            except (OSError, pickle.UnpicklingError, EOFError,
                    AttributeError, ImportError) as exc:
                # A result written by a contemporary worker is atomic,
                # so this is payload corruption, not a torn read: fail
                # the attempt and let the retry policy decide.
                payload = {
                    "ok": False, "value": None,
                    "error": f"unreadable result ({exc})",
                    "worker": None, "attempt": None, "elapsed": None,
                }
            # Unlink before judging: each on-disk result is observed
            # exactly once; whether it *counts* is the ledger's call
            # (absorbing states make duplicate completions no-ops, and
            # retried attempts write fresh files under the same name).
            try:
                path.unlink()
            except OSError:
                pass
            self._any_claim_seen = True
            attempt = payload.get("attempt") or self._ledger.lease(
                index
            ).attempt
            # Every observed execution's events happened, duplicates'
            # included; a payload without the list shipped none.
            for event in payload.get("events") or ():
                events.record(event)
            if payload.get("ok"):
                if self._ledger.complete(index, now):
                    self._results[index] = payload["value"]
                    self._record(TaskAttempt(
                        task_index=index,
                        attempt=attempt,
                        outcome="completed",
                        worker=payload.get("worker"),
                        elapsed_seconds=payload.get("elapsed"),
                    ))
            else:
                error = payload.get("error") or "task failed"
                if self._ledger.fail(index, error, now):
                    self._record(TaskAttempt(
                        task_index=index,
                        attempt=attempt,
                        outcome="failed",
                        worker=payload.get("worker"),
                        error=error,
                    ))

    def _scan_claims(self, now: float) -> None:
        for path in self._spool.claimed.glob(f"{self._nonce}-*"):
            parts = path.name.split(".")
            # <task_id>.<aNN>.<worker>.claim.pkl / .hb
            if len(parts) < 4:
                continue
            task_id, attempt_tag, worker = parts[0], parts[1], parts[2]
            if not path.name.endswith(CLAIM_SUFFIX):
                continue  # heartbeats are read via their claim below
            try:
                index = _task_index(task_id)
                attempt = int(attempt_tag[1:])
            except ValueError:
                continue
            if index >= len(self._items):
                continue
            self._any_claim_seen = True
            lease = self._ledger.lease(index)
            if attempt != lease.attempt or lease.status == LEASE_DONE:
                # A dead attempt's leftovers (the worker that held it
                # was reclaimed or the task completed elsewhere).
                hb = path.with_name(
                    path.name[: -len(CLAIM_SUFFIX)] + HEARTBEAT_SUFFIX
                )
                for stale in (path, hb):
                    try:
                        stale.unlink()
                    except OSError:
                        pass
                continue
            hb = path.with_name(
                path.name[: -len(CLAIM_SUFFIX)] + HEARTBEAT_SUFFIX
            )
            freshness = None
            for probe in (hb, path):
                try:
                    stat = probe.stat()
                except OSError:
                    continue
                freshness = max(freshness or 0.0, stat.st_mtime)
            if freshness is None:
                continue  # claim finished between glob and stat
            if lease.status == LEASE_PENDING:
                self._ledger.claim(index, worker, freshness)
            self._ledger.heartbeat(index, freshness)

    def _reclaim(self, now: float) -> None:
        for lease in self._ledger.claimed():
            worker = lease.worker
            attempt = lease.attempt
            if self._ledger.expire(
                lease.index, now, self._settings.lease_timeout
            ):
                outcome = "lease_expired"
            elif self._ledger.time_out(
                lease.index, now, self._settings.task_timeout
            ):
                outcome = "timed_out"
            else:
                continue
            self._record(TaskAttempt(
                task_index=lease.index,
                attempt=attempt,
                outcome=outcome,
                worker=worker,
                error=lease.last_error,
            ))

    def _check_exhausted(self) -> None:
        failed = self._ledger.failed()
        if not failed:
            return
        detail = "; ".join(
            f"task {lease.index}: {lease.last_error or 'unknown failure'}"
            for lease in failed[:5]
        )
        raise TaskRetryExhaustedError(
            f"{len(failed)} distributed task(s) failed after "
            f"{self._ledger.max_attempts} attempts each ({detail}); "
            "see repro.runtime.task_attempts() for the attempt log"
        )

    def _external_signs_of_life(self, since: float) -> bool:
        for path in self._spool.workers.glob(f"*{ALIVE_SUFFIX}"):
            try:
                if path.stat().st_mtime >= since:
                    return True
            except OSError:
                continue
        return False

    def _degrade_to_process(self) -> None:
        """No workers attached: run the remainder on the process pool."""
        jobs = self._executor.jobs
        fallback: Executor
        if jobs >= 2:
            fallback = ProcessExecutor(jobs)
        else:
            fallback = SerialExecutor()
        events.record(events.BackendDegradation(
            callable_name=events.callable_name(self._fn),
            requested="distributed",
            effective=fallback.name,
            reason=(
                f"no workers attached to spool {self._spool.root} within "
                f"{self._settings.attach_deadline:g}s"
            ),
            hint=(
                "start workers with `repro worker --spool DIR`, raise "
                "attach_deadline, or configure local_workers > 0"
            ),
        ))
        now = time.time()
        remaining = [
            lease.index for lease in self._ledger.unfinished()
        ]
        computed = fallback.map(
            self._fn, [self._items[index] for index in remaining]
        )
        for index, value in zip(remaining, computed):
            self._results[index] = value
            self._ledger.complete(index, now)
            self._record(TaskAttempt(
                task_index=index,
                attempt=self._ledger.lease(index).attempt,
                outcome="completed",
                worker=f"degraded-{fallback.name}",
            ))

    def _cleanup(self) -> None:
        self._fleet.terminate()
        if self._owns_spool:
            shutil.rmtree(self._spool.root, ignore_errors=True)
            return
        # Shared spool: remove only this session's files, and leave
        # other sessions' (and the fault plan, which the caller wrote
        # via settings and may want to inspect) untouched.
        for directory in (
            self._spool.tasks, self._spool.claimed, self._spool.results
        ):
            for path in directory.glob(f"{self._nonce}-*"):
                try:
                    path.unlink()
                except OSError:
                    pass
        if self._settings.fault_plan is not None:
            try:
                self._spool.fault_path.unlink()
            except OSError:
                pass
            shutil.rmtree(self._spool.fired_dir, ignore_errors=True)

    def run(self) -> list:
        self._serialize()
        if self._settings.fault_plan is not None:
            # A fresh plan fires afresh: drop an earlier session's records.
            shutil.rmtree(self._spool.fired_dir, ignore_errors=True)
            self._settings.fault_plan.save(self._spool.fault_path)
        started = time.time()
        try:
            self._fleet.start()
            while True:
                now = time.time()
                self._respool_ready(now)
                self._collect_results(now)
                self._scan_claims(now)
                self._reclaim(now)
                self._check_exhausted()
                if self._ledger.all_done():
                    return self._results
                if self._fleet.target > 0:
                    self._fleet.respawn_dead()
                elif (
                    not self._any_claim_seen
                    and not self._external_signs_of_life(started)
                    and now - started > self._settings.attach_deadline
                ):
                    self._degrade_to_process()
                    return self._results
                time.sleep(self._settings.poll_interval)
        finally:
            self._cleanup()
