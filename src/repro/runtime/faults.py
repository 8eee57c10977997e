"""Fault injection for the distributed work-queue backend (DESIGN.md §8).

Lease-based work queues earn their keep only under failure: a worker
that dies mid-task must lose its lease, a worker that hangs must be
timed out, and neither event may change the sweep's results.  Those
paths cannot be exercised by unit-testing happy-path code, so the worker
loop carries a deliberate fault seam: before executing a claimed task it
consults a :class:`FaultPlan` and, when a :class:`FaultSpec` matches,
*injects* the fault — killing the process, hanging past the coordinator
timeout, or delaying benignly.

The plan travels through the spool directory itself (``faults.json``),
so it reaches every worker process the same way real work does — local
workers spawned by the coordinator, and external ``repro worker``
processes alike (``repro worker --fault-plan`` also accepts one
directly).  Production spools simply never contain the file.

The injection point is fixed by contract: *after* the claim rename and
the first heartbeat, *before* the task payload is deserialized.  A
``kill`` therefore leaves exactly the on-disk state a real worker crash
leaves — a claim file whose heartbeat goes stale — which is what the
lease-expiry tests in ``tests/runtime/test_fault_injection.py`` rely on.

Every fault that fires leaves a record first (:func:`fire_fault`), one
small JSON file per firing in the spool's ``faults.fired`` directory,
naming the claimed task attempt.  The coordinator attaches it to that
attempt's :class:`~repro.runtime.distributed.TaskAttempt` as ``fault``,
so a test can prove its fault fired instead of passing vacuously when
the targeted worker never claims anything.  The same exclusive-create
is what makes :data:`ANY_WORKER` targeting fire exactly once.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass
from pathlib import Path

from repro import durable
from repro.errors import ExecutionError

__all__ = [
    "ANY_WORKER",
    "FAULT_KINDS",
    "FAULT_KILL_EXIT_CODE",
    "FaultPlan",
    "FaultSpec",
    "fire_fault",
    "fired_faults",
    "inject_fault",
]

#: Recognized fault actions, in decreasing severity.
#:
#: * ``kill`` — the worker process exits immediately (``os._exit``), as
#:   an OOM kill or node loss would; its heartbeat stops and the
#:   coordinator reclaims the lease after ``lease_timeout``.
#: * ``hang`` — the worker sleeps for ``seconds`` while its heartbeat
#:   thread keeps beating, as a livelocked worker would; the coordinator
#:   reclaims via the per-task ``task_timeout`` instead.
#: * ``delay`` — the worker sleeps briefly and then completes normally;
#:   exercises slow workers without triggering any retry.
FAULT_KINDS: tuple[str, ...] = ("kill", "hang", "delay")

#: Exit code used by ``kill`` injections, distinguishable from real
#: crashes in worker logs and test assertions.
FAULT_KILL_EXIT_CODE = 47

#: ``FaultSpec.worker`` value targeting whichever worker first reaches
#: the spec's ``nth_task``-th claim: the fault fires exactly once per
#: plan, independent of which worker wins the race for the queue.
ANY_WORKER = "*"


@dataclass(frozen=True)
class FaultSpec:
    """One planned fault: what happens, to whom, on which task.

    Attributes:
        action: One of :data:`FAULT_KINDS`.
        nth_task: 1-based ordinal of the claim that triggers the fault,
            counted per worker (``nth_task=1`` fires on a worker's first
            claimed task).
        worker: Worker id the fault targets (coordinator-spawned local
            workers are named ``local-0``, ``local-1``, ...);
            :data:`ANY_WORKER` fires once, on the first worker to reach
            its ``nth_task``-th claim; ``None`` targets every worker,
            which is how "kill each worker's first task"
            retry-exhaustion plans are written.
        seconds: Sleep duration for ``hang``/``delay`` (ignored by
            ``kill``).
    """

    action: str
    nth_task: int = 1
    worker: str | None = None
    seconds: float = 0.0

    def __post_init__(self) -> None:
        if self.action not in FAULT_KINDS:
            raise ExecutionError(
                f"unknown fault action {self.action!r}; "
                f"available: {FAULT_KINDS}"
            )
        if self.nth_task < 1:
            raise ExecutionError(
                f"nth_task is a 1-based claim ordinal, got {self.nth_task}"
            )
        if self.seconds < 0:
            raise ExecutionError(
                f"fault seconds must be >= 0, got {self.seconds}"
            )

    def matches(self, worker_id: str, claim_ordinal: int) -> bool:
        """Whether this fault fires for ``worker_id``'s Nth claim."""
        return (
            self.worker in (None, ANY_WORKER, worker_id)
            and self.nth_task == claim_ordinal
        )


@dataclass(frozen=True)
class FaultPlan:
    """An ordered set of planned faults, serializable through the spool.

    Attributes:
        faults: The planned :class:`FaultSpec`s.  The first matching
            spec wins when several target the same (worker, ordinal).
    """

    faults: tuple[FaultSpec, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "faults", tuple(self.faults))

    def for_task(
        self, worker_id: str, claim_ordinal: int
    ) -> FaultSpec | None:
        """The fault to inject for this claim, or ``None``."""
        for spec in self.faults:
            if spec.matches(worker_id, claim_ordinal):
                return spec
        return None

    def to_payload(self) -> dict:
        """JSON-stable encoding (inverse of :meth:`from_payload`)."""
        return {
            "faults": [
                {
                    "action": spec.action,
                    "nth_task": spec.nth_task,
                    "worker": spec.worker,
                    "seconds": spec.seconds,
                }
                for spec in self.faults
            ]
        }

    @classmethod
    def from_payload(cls, payload: dict) -> "FaultPlan":
        """Rebuild a plan from :meth:`to_payload` output.

        Raises:
            ExecutionError: If the payload shape or any field is invalid
                (validation happens in :class:`FaultSpec`).
        """
        entries = payload.get("faults")
        if not isinstance(entries, list):
            raise ExecutionError(
                "fault plan payload must carry a 'faults' list"
            )
        return cls(
            faults=tuple(
                FaultSpec(
                    action=entry["action"],
                    nth_task=int(entry.get("nth_task", 1)),
                    worker=entry.get("worker"),
                    seconds=float(entry.get("seconds", 0.0)),
                )
                for entry in entries
            )
        )

    def save(self, path: str | Path) -> Path:
        """Write the plan as JSON (atomically — workers may be polling)."""
        path = Path(path)
        text = json.dumps(self.to_payload(), indent=2, sort_keys=True)
        with durable.atomic_write(path, durable=False) as handle:
            handle.write(f"{text}\n".encode("utf-8"))
        return path

    @classmethod
    def load(cls, path: str | Path) -> "FaultPlan":
        """Read a plan written by :meth:`save`.

        Raises:
            ExecutionError: If the file is missing or malformed — a
                fault plan that silently fails to load would turn a
                fault-injection test into a vacuous happy-path test.
        """
        path = Path(path)
        try:
            payload = json.loads(path.read_text(encoding="utf-8"))
        except FileNotFoundError:
            raise ExecutionError(f"no fault plan at {path}") from None
        except (OSError, json.JSONDecodeError) as exc:
            raise ExecutionError(
                f"unreadable fault plan at {path}: {exc}"
            ) from exc
        return cls.from_payload(payload)


def fire_fault(
    plan: FaultPlan,
    fired_dir: Path,
    worker_id: str,
    claim_ordinal: int,
    task: str,
) -> FaultSpec | None:
    """Decide whether a claim fires its planned fault, recording it if so.

    The record — ``{"task", "worker", "action"}`` for the claimed task
    attempt ``task`` — is created exclusively under a name unique to
    the spec and, unless it targets :data:`ANY_WORKER`, the worker.  It
    lands before the fault is injected, so even a ``kill`` leaves one;
    an :data:`ANY_WORKER` spec whose record already exists has fired
    elsewhere and does not fire again.

    Returns:
        The spec to pass to :func:`inject_fault`, or ``None``.
    """
    spec = plan.for_task(worker_id, claim_ordinal)
    if spec is None:
        return None
    index = plan.faults.index(spec)
    name = (
        f"{index}.json" if spec.worker == ANY_WORKER
        else f"{index}.{worker_id}.json"
    )
    fired_dir.mkdir(parents=True, exist_ok=True)
    try:
        fd = os.open(fired_dir / name, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
    except FileExistsError:
        return None
    record = {"task": task, "worker": worker_id, "action": spec.action}
    with os.fdopen(fd, "w", encoding="utf-8") as handle:
        json.dump(record, handle, sort_keys=True)
    return spec


def fired_faults(fired_dir: Path) -> dict[str, str]:
    """Fired fault actions by claimed task attempt (``<task>.aNN``)."""
    fired: dict[str, str] = {}
    for path in fired_dir.glob("*.json"):
        try:
            record = json.loads(path.read_text(encoding="utf-8"))
        except (OSError, ValueError):
            continue  # a firing worker died mid-write: nothing to attach
        fired[record["task"]] = record["action"]
    return fired


def inject_fault(spec: FaultSpec) -> None:
    """Perform one planned fault inside a worker process.

    ``kill`` never returns (the process exits with
    :data:`FAULT_KILL_EXIT_CODE`, heartbeats and all); ``hang`` and
    ``delay`` sleep for ``spec.seconds`` and return — the difference
    between them is purely whether the caller sized the sleep past the
    coordinator's ``task_timeout``.
    """
    if spec.action == "kill":
        # os._exit, not sys.exit: a real crash does not unwind the
        # stack, flush buffers, or run atexit hooks — neither may the
        # injected one, or the test would exercise a gentler failure
        # than the one it claims to.
        os._exit(FAULT_KILL_EXIT_CODE)
    time.sleep(spec.seconds)
