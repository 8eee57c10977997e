"""Crash-consistent mid-run checkpointing (DESIGN.md §9).

The distributed backend (§8) retries killed or hung workers, but a
retry replays its run from step 0 — at paper scale one late crash
throws away minutes of work.  This module bounds that cost: engines
periodically snapshot their complete mid-run state into a
:class:`CheckpointStore` beside the shared run cache, and a re-executed
attempt resumes from the latest valid snapshot instead of from scratch.
Because a snapshot captures *everything* the remaining steps read — the
engine state planes, the buffered RNG stream cursor, the generator
state itself, the loop counters and the recorded history — a resumed
run is **bit-identical** to an uninterrupted one; the §5 determinism
contract survives mid-run death.

Crash consistency comes from :mod:`repro.durable`, applied twice:

* snapshots are written durably (temp, fsync, rename, directory fsync),
  so a worker killed mid-write leaves an orphan temp file, never a
  readable half-snapshot;
* each snapshot's frame carries a SHA-256 over its pickled payload plus
  :data:`CHECKPOINT_FORMAT_VERSION`; a snapshot that fails either check
  on read is **quarantined** (renamed aside, recorded as a
  :class:`~repro.runtime.events.CacheCorruption` event) and the store
  falls back to the next older snapshot — worst case the run restarts
  from step 0, exactly as if checkpointing were off.

The fault side of the contract lives here too: the ``kill_at_step``
fault kind (:mod:`repro.runtime.faults`) *arms* a mid-run kill in the
worker process via :func:`arm_kill_at_step`; the run's
:class:`RunCheckpointer` trips it after completing that step, dying
through :func:`_hard_exit` with the standard fault exit code.  Tests
monkeypatch :func:`_hard_exit` to raise instead, which is what lets the
resume property tests simulate hundreds of crashes in-process.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from repro import durable
from repro.errors import RunCacheError
from repro.runtime import events
from repro.runtime.cache import PickleStore
from repro.runtime.faults import FAULT_KILL_EXIT_CODE

__all__ = [
    "CHECKPOINT_FORMAT_VERSION",
    "CheckpointPolicy",
    "CheckpointStore",
    "ResumeEvent",
    "RunCheckpointer",
    "arm_kill_at_step",
    "consume_armed_kill",
    "disarm_kill",
    "resume_events",
]

#: Bump when the snapshot file layout or any engine's snapshot payload
#: changes; old snapshots are then quarantined instead of restoring
#: garbage state.  v2: the :mod:`repro.durable` frame replaced a pickled
#: ``{version, step, sha256, payload}`` wrapper (v1 files read as torn).
CHECKPOINT_FORMAT_VERSION = 2

#: Entry suffix namespacing snapshots within a shared cache directory
#: (beside ``*.run.pkl`` / ``*.curve.pkl`` — the store idiom of §5).
CHECKPOINT_SUFFIX = ".ckpt.pkl"

#: Suffix quarantined (corrupt) snapshots are renamed to.  They are
#: kept, not unlinked: a torn snapshot is evidence about the disk.
QUARANTINE_SUFFIX = ".ckpt.bad"

#: Snapshots retained per run key.  Two, not one: if a worker dies
#: while *writing* snapshot k (leaving only a temp file) the previous
#: snapshot must still exist, and if snapshot k lands but is later
#: found corrupt, k-1 is the fall-back.
KEEP_SNAPSHOTS = 2


@dataclass(frozen=True)
class CheckpointPolicy:
    """Where and how often a dispatched run should checkpoint.

    Attached to :class:`~repro.runtime.runner.RunRequest` /
    :class:`~repro.runtime.runner.BatchRequest` work items by the
    dispatcher when ``checkpoint_every`` is configured; deliberately
    **excluded from cache fingerprints** — checkpointing is an execution
    concern and must never change what a run *is*.

    Attributes:
        directory: Snapshot directory, as a plain string so the policy
            pickles compactly across the spool (in practice the shared
            run-cache directory).
        every: Snapshot period in engine steps (> 0).
    """

    directory: str
    every: int

    def __post_init__(self) -> None:
        if self.every < 1:
            raise RunCacheError(
                f"checkpoint_every must be >= 1, got {self.every}"
            )


@dataclass(frozen=True)
class ResumeEvent(events.Event):
    """One observed resume: a run continued from a snapshot.

    Recorded in the runtime event log every time, silently; a worker
    ships it to the coordinator, which derives
    ``TaskAttempt.resumed_from_step`` from it.

    Attributes:
        key: The run's checkpoint key.
        step: Engine step the snapshot was taken at.
    """

    key: str
    step: int


#: Step at which the next checkpointer built in this process must kill
#: it (the ``kill_at_step`` fault seam); ``None`` = disarmed.
_ARMED_KILL_STEP: int | None = None


def resume_events() -> tuple[ResumeEvent, ...]:
    """Every snapshot resume recorded so far, in observation order."""
    return events.recorded(ResumeEvent)


def arm_kill_at_step(step: int) -> None:
    """Arm a mid-run kill for the next checkpointed run in this process.

    Called by :func:`repro.runtime.faults.inject_fault` for the
    ``kill_at_step`` fault kind — the injection seam runs before the
    task payload even deserializes, so the fault cannot reach into the
    run directly; it arms this latch and the run's checkpointer trips
    it after completing step ``step``.

    Raises:
        RunCacheError: If ``step < 1`` (step 0 is "before the run").
    """
    global _ARMED_KILL_STEP
    if step < 1:
        raise RunCacheError(f"kill step must be >= 1, got {step}")
    _ARMED_KILL_STEP = step


def disarm_kill() -> None:
    """Clear any armed kill (worker task boundary; tests)."""
    global _ARMED_KILL_STEP
    _ARMED_KILL_STEP = None


def consume_armed_kill() -> int | None:
    """The armed kill step, disarming it; ``None`` when disarmed."""
    global _ARMED_KILL_STEP
    step = _ARMED_KILL_STEP
    _ARMED_KILL_STEP = None
    return step


def _hard_exit(code: int) -> None:  # pragma: no cover - kills the process
    """Die like a crash (no unwind, no flush) — the kill primitive.

    Isolated so the resume property tests can monkeypatch it to raise a
    sentinel exception instead: the *store* still sees exactly what a
    real ``os._exit`` leaves on disk (snapshots written, nothing else),
    while the test process survives to perform the resume.
    """
    os._exit(code)


class CheckpointStore(PickleStore):
    """A :class:`~repro.runtime.cache.PickleStore` of engine snapshots.

    Snapshots are keyed by the run's cache fingerprint (so a retried
    attempt of the same work finds them) plus the engine step they were
    taken at: ``<key>.s<step>.ckpt.pkl``, framed under
    :data:`CHECKPOINT_FORMAT_VERSION`.  Writes are durable — fsynced,
    renamed, directory fsynced — then pruned to the newest
    :data:`KEEP_SNAPSHOTS` per key.  :meth:`latest` scans newest step
    first; a torn, checksum-mismatched or version-mismatched snapshot
    is quarantined to ``*.ckpt.bad`` and the scan falls back to the
    next older one.

    Args:
        directory: Snapshot root; created (with parents) if missing.

    Raises:
        RunCacheError: If the path exists but is not a directory.
    """

    suffix = CHECKPOINT_SUFFIX
    format_version = CHECKPOINT_FORMAT_VERSION
    fsync = True
    quarantine_suffix = QUARANTINE_SUFFIX

    def path_for(self, key: str, step: int) -> Path:
        """On-disk location of one snapshot."""
        return self._entry(f"{key}.s{step:08d}")

    def _snapshots(self, key: str) -> list[tuple[int, Path]]:
        """(step, path) pairs for one key, newest step first."""
        found: list[tuple[int, Path]] = []
        for path in self.directory.glob(f"{key}.s*{CHECKPOINT_SUFFIX}"):
            stem = path.name[len(key) + 2 : -len(CHECKPOINT_SUFFIX)]
            try:
                found.append((int(stem), path))
            except ValueError:
                continue
        found.sort(reverse=True)
        return found

    def steps(self, key: str) -> tuple[int, ...]:
        """Steps with a snapshot on disk for this key, newest first."""
        return tuple(step for step, _path in self._snapshots(key))

    def put(self, key: str, step: int, payload: object) -> Path:
        """Write one snapshot durably and prune old ones for the key.

        Raises:
            RunCacheError: On a write failure, or ``step < 1`` — the
                caller (the engine's checkpoint hook) treats a failed
                snapshot as fatal for *checkpointing*, not for the run.
        """
        if step < 1:
            raise RunCacheError(f"snapshot step must be >= 1, got {step}")
        path = self.path_for(key, step)
        self._write(path, payload)
        durable.sweep(
            old for _step, old in self._snapshots(key)[KEEP_SNAPSHOTS:]
        )
        return path

    def latest(self, key: str) -> tuple[int, object] | None:
        """The newest *valid* snapshot as ``(step, payload)``, or ``None``.

        Scans newest first; snapshots failing any integrity check are
        quarantined and the scan falls through to older ones — a run
        with every snapshot corrupt simply restarts from step 0.
        """
        for step, path in self._snapshots(key):
            payload = self._read(path)
            if payload is not None:
                return step, payload
        return None

    def discard(self, key: str) -> int:
        """Remove every snapshot for a finished run; returns the count."""
        return durable.sweep(path for _step, path in self._snapshots(key))


class RunCheckpointer:
    """One run's checkpoint hook: load-on-start, snapshot-every-K, kill.

    Built by the runner for each dispatched work item that carries a
    :class:`CheckpointPolicy` (or when a ``kill_at_step`` fault is
    armed — a kill needs the step counter even with snapshots off) and
    threaded into the engine, which calls :meth:`load` once before its
    loop and :meth:`after_step` at the end of every step.

    Args:
        store: Snapshot store; ``None`` disables persistence (the
            kill-only case).
        key: The run's checkpoint key (its cache fingerprint, or the
            batch digest for a :class:`~repro.runtime.runner.
            BatchRequest`).
        every: Snapshot period in steps; ``0`` disables snapshots.
        kill_at_step: Die (via :func:`_hard_exit`) after completing
            this step — the armed ``kill_at_step`` fault.
    """

    def __init__(
        self,
        store: CheckpointStore | None,
        key: str,
        every: int = 0,
        kill_at_step: int | None = None,
    ):
        self._store = store
        self._key = key
        self._every = max(int(every), 0)
        self._kill_at_step = kill_at_step
        #: Step of the snapshot this run resumed from; ``None`` for a
        #: fresh start.
        self.resumed_from_step: int | None = None
        self._loaded_step = 0

    @property
    def key(self) -> str:
        return self._key

    def load(self) -> object | None:
        """The latest valid snapshot payload, or ``None`` (fresh start).

        Recording the resume (:class:`ResumeEvent`) here keeps the
        "did we actually resume" signal at the only place that knows.
        """
        if self._store is None:
            return None
        found = self._store.latest(self._key)
        if found is None:
            return None
        step, payload = found
        self._loaded_step = step
        self.resumed_from_step = step
        events.record(ResumeEvent(key=self._key, step=step))
        return payload

    def after_step(self, step: int, capture: Callable[[], object]) -> None:
        """Engine hook: maybe snapshot, then maybe trip the armed kill.

        ``capture`` is called only when a snapshot is actually due, so
        the per-step cost of an off-period step is two comparisons.
        The snapshot-then-kill order is the point of ``kill_at_step``:
        when the kill step is snapshot-aligned, the snapshot it resumes
        from is the one written moments before death.

        Args:
            step: 1-based count of completed engine steps.
            capture: Zero-argument callable returning the engine's
                picklable snapshot payload; must not consume RNG state
                (bit-identity would break).
        """
        if (
            self._store is not None
            and self._every
            and step > self._loaded_step
            and step % self._every == 0
        ):
            self._store.put(self._key, step, capture())
        if self._kill_at_step is not None and step == self._kill_at_step:
            _hard_exit(FAULT_KILL_EXIT_CODE)

    def finished(self) -> None:
        """Discard this run's snapshots (it completed; nothing to resume)."""
        if self._store is not None:
            self._store.discard(self._key)
