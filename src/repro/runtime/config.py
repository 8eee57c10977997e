"""Runtime configuration: which backend runs the work, and how wide.

:class:`RuntimeConfig` is the one value that travels from the CLI (or
any programmatic caller) down through :class:`~repro.experiments.base.
ExperimentContext` and :func:`~repro.models.ensemble.run_ensemble` into
the executor layer.  It is deliberately tiny and immutable so it can sit
inside frozen dataclasses and be compared/hashed freely.

The distributed backend carries more knobs than a flag and a worker
count (spool location, lease/timeout/backoff policy), so those live in
their own frozen :class:`DistributedConfig` hanging off the runtime
config — absent (``None``) for the local backends, and
defaultable for ``backend="distributed"`` (a private temp spool served
by local workers).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from pathlib import Path

from repro.errors import ExecutionError
from repro.runtime.faults import FaultPlan

__all__ = ["BACKENDS", "DistributedConfig", "RuntimeConfig"]

#: Recognized executor backends, in increasing isolation order.
BACKENDS: tuple[str, ...] = ("serial", "process", "distributed")


@dataclass(frozen=True)
class DistributedConfig:
    """Policy knobs for the distributed work-queue backend (DESIGN.md §8).

    Attributes:
        spool_dir: Work-queue directory shared by the coordinator and
            every worker (a shared filesystem path for multi-host use).
            ``None`` means a private temporary spool created per map and
            removed afterwards — useful only with ``local_workers``.
        local_workers: Worker processes the coordinator spawns itself.
            ``None`` resolves to :meth:`RuntimeConfig.resolve_jobs`;
            ``0`` means rely entirely on externally attached
            ``repro worker`` processes.
        task_timeout: Seconds a single claimed task may run (heartbeats
            notwithstanding) before the coordinator reclaims it — the
            hung-worker bound.
        lease_timeout: Seconds without a heartbeat before a claim is
            declared dead and the task requeued — the crashed-worker
            bound.  Must comfortably exceed the workers'
            ``heartbeat_interval``.
        heartbeat_interval: Seconds between heartbeat touches by
            coordinator-spawned local workers (external workers choose
            their own via ``repro worker --heartbeat-interval``).
        max_attempts: Total attempts per task (first try included)
            before the map fails with
            :class:`~repro.errors.TaskRetryExhaustedError`.
        backoff_base: First retry delay, seconds; attempt ``k`` waits
            ``backoff_base * 2**(k-1)`` scaled by jitter, capped at
            ``backoff_cap``.
        backoff_cap: Upper bound on any single retry delay.
        attach_deadline: Seconds the coordinator waits for a first
            worker sign-of-life before degrading to the process backend
            (only reachable with ``local_workers=0``).
        poll_interval: Coordinator/local-worker spool polling period.
        max_worker_restarts: Local workers the coordinator will respawn
            after crashes, across the whole map, before running with
            whatever is left.
        fault_plan: Optional :class:`~repro.runtime.faults.FaultPlan`
            written into the spool for workers to obey (testing).
    """

    spool_dir: Path | None = None
    local_workers: int | None = None
    task_timeout: float = 300.0
    lease_timeout: float = 15.0
    heartbeat_interval: float = 1.0
    max_attempts: int = 3
    backoff_base: float = 0.25
    backoff_cap: float = 30.0
    attach_deadline: float = 10.0
    poll_interval: float = 0.05
    max_worker_restarts: int = 4
    fault_plan: FaultPlan | None = None

    def __post_init__(self) -> None:
        if self.spool_dir is not None and not isinstance(
            self.spool_dir, Path
        ):
            object.__setattr__(self, "spool_dir", Path(self.spool_dir))
        if self.local_workers is not None and self.local_workers < 0:
            raise ExecutionError(
                f"local_workers must be >= 0 (0 = external workers only), "
                f"got {self.local_workers}"
            )
        for name in (
            "task_timeout", "lease_timeout", "heartbeat_interval",
            "backoff_base", "backoff_cap", "attach_deadline",
            "poll_interval",
        ):
            if getattr(self, name) <= 0:
                raise ExecutionError(
                    f"{name} must be > 0, got {getattr(self, name)}"
                )
        if self.lease_timeout <= self.heartbeat_interval:
            raise ExecutionError(
                f"lease_timeout ({self.lease_timeout}) must exceed "
                f"heartbeat_interval ({self.heartbeat_interval}), or every "
                "healthy worker would look dead between heartbeats"
            )
        if self.max_attempts < 1:
            raise ExecutionError(
                f"max_attempts must be >= 1, got {self.max_attempts}"
            )
        if self.max_worker_restarts < 0:
            raise ExecutionError(
                f"max_worker_restarts must be >= 0, "
                f"got {self.max_worker_restarts}"
            )


@dataclass(frozen=True)
class RuntimeConfig:
    """How ensemble runs (and other fan-out work) should execute.

    Attributes:
        backend: ``"serial"`` (in-line, the default), ``"process"``
            (one interpreter per worker; wins for the simulation and
            mining loops), or ``"distributed"`` (a
            file-based work queue served by local and/or remote
            ``repro worker`` processes — DESIGN.md §8).
        jobs: Worker count.  ``1`` degrades the process backend to
            serial; ``0`` means "all available cores",
            resolved lazily at executor creation so a config built on
            one machine stays meaningful on another.  For the
            distributed backend this is the default local-worker count
            (see :attr:`DistributedConfig.local_workers`).
        cache_dir: Optional on-disk run-cache directory.  When set,
            completed :class:`~repro.models.base.EvolutionRun` results
            are stored keyed by ``(model, params, cuisine, seed)`` and
            reused across invocations and backends.  Under the
            distributed backend the directory doubles as the result
            rendezvous: workers write fresh runs into it directly, so
            an interrupted sweep resumes from whatever completed.
        distributed: Distributed-backend policy; ``None`` uses
            :class:`DistributedConfig` defaults when the backend is
            ``"distributed"`` and is meaningless otherwise.
    """

    backend: str = "serial"
    jobs: int = 1
    cache_dir: Path | None = None
    distributed: DistributedConfig | None = None

    def __post_init__(self) -> None:
        if self.backend not in BACKENDS:
            raise ExecutionError(
                f"unknown backend {self.backend!r}; available: {BACKENDS}"
            )
        if self.jobs < 0:
            raise ExecutionError(
                f"jobs must be >= 0 (0 = all cores), got {self.jobs}"
            )
        if self.cache_dir is not None and not isinstance(self.cache_dir, Path):
            object.__setattr__(self, "cache_dir", Path(self.cache_dir))

    def resolve_jobs(self) -> int:
        """The effective worker count (``0`` -> CPU count)."""
        if self.jobs == 0:
            import os

            return max(os.cpu_count() or 1, 1)
        return self.jobs

    def resolve_distributed(self) -> DistributedConfig:
        """The distributed policy in effect (defaults when unset)."""
        return (
            self.distributed
            if self.distributed is not None
            else DistributedConfig()
        )

    def with_cache(self, cache_dir: str | Path | None) -> "RuntimeConfig":
        """Copy of this config writing runs to ``cache_dir``."""
        return replace(
            self, cache_dir=Path(cache_dir) if cache_dir else None
        )
