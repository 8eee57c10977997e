"""Spool telemetry and compaction (``repro spool stats|compact``).

A long-lived spool directory (DESIGN.md §8) accumulates debris that the
happy path never cleans: claims and heartbeats of workers that died
mid-task (the coordinator requeues the *task*, but a vanished
coordinator leaves the files), ``*.alive`` markers of long-gone
workers, temp files stranded by writers killed inside the
temp-write/rename window, and result payloads nobody collected.  None
of it breaks correctness — claims are leased, temps are never read,
results are nonce-scoped — but debris makes a shared spool unreadable
to operators and grows without bound.

This module gives the debris a name and a broom:

* :func:`spool_stats` — one read-only snapshot of queue depth, worker
  liveness, per-outcome attempt counts and every debris category;
* :func:`compact_spool` — remove exactly the debris, never live state:
  staleness is judged by heartbeat/mtime age against ``stale_after``,
  so an in-flight claim, a beating worker or a just-written temp file
  is left alone.

Both are pure directory scans — they take no locks and can run beside
an active map (entries vanishing mid-scan are skipped).
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass
from pathlib import Path

from repro import durable
from repro.errors import ExecutionError
from repro.runtime.distributed import (
    ALIVE_SUFFIX,
    CLAIM_SUFFIX,
    HEARTBEAT_SUFFIX,
    RESULT_SUFFIX,
    TASK_SUFFIX,
    Spool,
)

__all__ = [
    "SpoolCompaction",
    "SpoolStats",
    "compact_spool",
    "spool_stats",
]


@dataclass(frozen=True)
class SpoolStats:
    """One snapshot of a spool directory's state and debris.

    Attributes:
        pending_tasks: Task files waiting in ``tasks/``.
        claimed: Leased task files in ``claimed/``.
        stale_claims: Claims whose heartbeat is missing or older than
            ``stale_after`` — dead-worker debris awaiting compaction.
        results: Uncollected result payloads in ``results/``.
        live_workers: ``*.alive`` markers touched within
            ``stale_after``.
        dead_workers: ``*.alive`` markers older than that — workers
            that exited without cleanup (or were killed).
        orphan_tmp: Stranded ``*.tmp.<pid>`` files anywhere in the
            layout, from writers killed between temp write and rename.
        attempts: Per-outcome counts parsed from ``attempts.jsonl``
            (empty when the coordinator never ran here).
        stop_signaled: Whether the drain-and-exit sentinel is present.
    """

    pending_tasks: int
    claimed: int
    stale_claims: int
    results: int
    live_workers: int
    dead_workers: int
    orphan_tmp: int
    attempts: dict[str, int]
    stop_signaled: bool


@dataclass(frozen=True)
class SpoolCompaction:
    """What one :func:`compact_spool` pass removed, by category."""

    stale_claims: int
    orphan_heartbeats: int
    dead_workers: int
    stale_results: int
    orphan_tmp: int

    @property
    def total(self) -> int:
        return (
            self.stale_claims
            + self.orphan_heartbeats
            + self.dead_workers
            + self.stale_results
            + self.orphan_tmp
        )


def _require_spool(spool_dir: str | Path) -> Spool:
    root = Path(spool_dir)
    if not root.is_dir():
        raise ExecutionError(f"no spool directory at {root}")
    return Spool(root=root)


def _mtime(path: Path) -> float | None:
    try:
        return path.stat().st_mtime
    except OSError:
        return None  # vanished mid-scan


def _heartbeat_for(claim: Path) -> Path:
    return claim.with_name(
        claim.name[: -len(CLAIM_SUFFIX)] + HEARTBEAT_SUFFIX
    )


def _stale_claims(
    spool: Spool, cutoff: float
) -> list[tuple[Path, Path | None]]:
    """(claim, heartbeat-or-None) pairs whose lease looks dead."""
    found: list[tuple[Path, Path | None]] = []
    for claim in spool.claimed.glob(f"*{CLAIM_SUFFIX}"):
        heartbeat = _heartbeat_for(claim)
        beat = _mtime(heartbeat)
        if beat is None:
            # No heartbeat at all: judge by the claim file itself, so a
            # claim renamed moments ago (heartbeat not yet touched) is
            # not condemned.
            claimed_at = _mtime(claim)
            if claimed_at is not None and claimed_at < cutoff:
                found.append((claim, None))
        elif beat < cutoff:
            found.append((claim, heartbeat))
    return found


def _orphan_heartbeats(spool: Spool) -> list[Path]:
    """Heartbeat files whose claim is gone (worker died in cleanup)."""
    return [
        heartbeat
        for heartbeat in spool.claimed.glob(f"*{HEARTBEAT_SUFFIX}")
        if not heartbeat.with_name(
            heartbeat.name[: -len(HEARTBEAT_SUFFIX)] + CLAIM_SUFFIX
        ).exists()
    ]


def _orphan_tmps(spool: Spool) -> list[Path]:
    """Stranded atomic-write temps across the whole layout."""
    folders = (spool.root, spool.tasks, spool.claimed, spool.results, spool.workers)
    return [tmp for folder in folders for tmp in durable.orphan_temps(folder)]


def _attempt_counts(spool: Spool) -> dict[str, int]:
    counts: dict[str, int] = {}
    try:
        lines = spool.attempts_path.read_text(encoding="utf-8").splitlines()
    except OSError:
        return counts
    for line in lines:
        try:
            outcome = json.loads(line).get("outcome", "unknown")
        except json.JSONDecodeError:
            outcome = "unparseable"
        counts[outcome] = counts.get(outcome, 0) + 1
    return counts


def spool_stats(
    spool_dir: str | Path,
    stale_after: float = 60.0,
    now: float | None = None,
) -> SpoolStats:
    """Read-only snapshot of a spool's queue depth, workers and debris.

    Args:
        spool_dir: The spool root (``Spool`` layout).
        stale_after: Seconds without a heartbeat/mtime touch before a
            claim or worker marker counts as dead.  Should comfortably
            exceed the fleet's ``heartbeat_interval``.
        now: Reference epoch time (injectable for tests).

    Raises:
        ExecutionError: If ``spool_dir`` is not a directory or
            ``stale_after`` is not positive.
    """
    if stale_after <= 0:
        raise ExecutionError(
            f"stale_after must be > 0, got {stale_after}"
        )
    spool = _require_spool(spool_dir)
    if now is None:
        now = time.time()
    cutoff = now - stale_after

    live = dead = 0
    for marker in spool.workers.glob(f"*{ALIVE_SUFFIX}"):
        touched = _mtime(marker)
        if touched is None:
            continue
        if touched < cutoff:
            dead += 1
        else:
            live += 1
    return SpoolStats(
        pending_tasks=sum(
            1 for _ in spool.tasks.glob(f"*{TASK_SUFFIX}")
        ),
        claimed=sum(
            1 for _ in spool.claimed.glob(f"*{CLAIM_SUFFIX}")
        ),
        stale_claims=len(_stale_claims(spool, cutoff)),
        results=sum(
            1 for _ in spool.results.glob(f"*{RESULT_SUFFIX}")
        ),
        live_workers=live,
        dead_workers=dead,
        orphan_tmp=len(_orphan_tmps(spool)),
        attempts=_attempt_counts(spool),
        stop_signaled=spool.stop_path.exists(),
    )


def compact_spool(
    spool_dir: str | Path,
    stale_after: float = 60.0,
    now: float | None = None,
) -> SpoolCompaction:
    """Remove a spool's dead debris; live state is never touched.

    Removal policy, category by category — everything is age-gated on
    ``stale_after`` except orphan heartbeats, whose claim is already
    gone:

    * stale claims and their heartbeats (lease long dead; the
      coordinator that would requeue them has already done so or is
      gone itself);
    * heartbeats without a claim (worker died inside its cleanup);
    * ``*.alive`` markers older than the cutoff;
    * result payloads older than the cutoff (their coordinator
      collects within a poll interval; old ones are orphaned);
    * stranded atomic-write temps older than the cutoff (a *fresh*
      temp may be a concurrent writer inside
      :func:`repro.durable.atomic_write`).

    Pending task files are never removed — they are the queue.

    Args:
        spool_dir: The spool root.
        stale_after: Dead-after threshold, seconds.
        now: Reference epoch time (injectable for tests).

    Returns:
        Per-category removal counts.

    Raises:
        ExecutionError: If ``spool_dir`` is not a directory or
            ``stale_after`` is not positive.
    """
    if stale_after <= 0:
        raise ExecutionError(
            f"stale_after must be > 0, got {stale_after}"
        )
    spool = _require_spool(spool_dir)
    if now is None:
        now = time.time()
    cutoff = now - stale_after

    stale = _stale_claims(spool, cutoff)
    stale_claims = durable.sweep(claim for claim, _heartbeat in stale)
    durable.sweep(
        heartbeat for _claim, heartbeat in stale if heartbeat is not None
    )
    orphan_heartbeats = durable.sweep(_orphan_heartbeats(spool))
    dead_workers = durable.sweep(
        spool.workers.glob(f"*{ALIVE_SUFFIX}"), older_than=cutoff
    )
    stale_results = durable.sweep(
        spool.results.glob(f"*{RESULT_SUFFIX}"), older_than=cutoff
    )
    orphan_tmp = durable.sweep(_orphan_tmps(spool), older_than=cutoff)

    return SpoolCompaction(
        stale_claims=stale_claims,
        orphan_heartbeats=orphan_heartbeats,
        dead_workers=dead_workers,
        stale_results=stale_results,
        orphan_tmp=orphan_tmp,
    )
