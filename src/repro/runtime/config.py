"""Runtime configuration: which backend runs the work, and how wide.

:class:`RuntimeConfig` is the one value that travels from the CLI (or
any programmatic caller) down through :class:`~repro.experiments.base.
ExperimentContext` and :func:`~repro.models.ensemble.run_ensemble` into
the executor layer.  It is deliberately tiny and immutable so it can sit
inside frozen dataclasses and be compared/hashed freely.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from pathlib import Path

from repro.errors import ExecutionError

__all__ = ["BACKENDS", "RuntimeConfig"]

#: Recognized executor backends, in increasing isolation order.
BACKENDS: tuple[str, ...] = ("serial", "process")


@dataclass(frozen=True)
class RuntimeConfig:
    """How ensemble runs (and other fan-out work) should execute.

    Attributes:
        backend: ``"serial"`` (in-line, the default) or ``"process"``
            (one interpreter per worker; wins for the simulation and
            mining loops).
        jobs: Worker count.  ``1`` degrades the process backend to
            serial; ``0`` means "all available cores",
            resolved lazily at executor creation so a config built on
            one machine stays meaningful on another.
        cache_dir: Optional on-disk run-cache directory.  When set,
            completed :class:`~repro.models.base.EvolutionRun` results
            are stored keyed by ``(model, params, cuisine, seed)`` and
            reused across invocations and backends.
    """

    backend: str = "serial"
    jobs: int = 1
    cache_dir: Path | None = None

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

    def with_cache(self, cache_dir: str | Path | None) -> "RuntimeConfig":
        """Copy of this config writing runs to ``cache_dir``."""
        return replace(
            self, cache_dir=Path(cache_dir) if cache_dir else None
        )
