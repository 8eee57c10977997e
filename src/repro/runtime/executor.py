"""Executor backends: serial and process order-preserving maps.

The contract is intentionally minimal — :meth:`Executor.map` applies a
function over items and returns results *in input order* — because that
is the only primitive the ensemble runtime needs, and order preservation
is what keeps parallel execution bit-identical to serial execution
(every run already owns an independent seed, so scheduling order cannot
leak into results; output order must not either).

Backend selection notes:

* ``serial`` — no pools, no overhead; also what every other backend
  degrades to at ``jobs=1``.
* ``process`` — true parallelism for the simulation loop.  Both the
  callable and the items must be picklable; the run-execution layer
  (:mod:`repro.runtime.runner`) only submits module-level functions and
  dataclass payloads, which satisfies that.
* ``distributed`` — a file-based work queue served by local and/or
  externally attached ``repro worker`` processes, with lease-based
  fault tolerance (:mod:`repro.runtime.distributed`, DESIGN.md §8).
  Same pickling constraints as ``process``; constructed lazily here so
  the executor layer stays import-cycle-free.
"""

from __future__ import annotations

import abc
from concurrent.futures import ProcessPoolExecutor
from typing import Callable, ClassVar, Iterable, Sequence, TypeVar

from repro.errors import ExecutionError
from repro.runtime.config import RuntimeConfig

__all__ = [
    "Executor",
    "SerialExecutor",
    "ProcessExecutor",
    "get_executor",
]

T = TypeVar("T")
R = TypeVar("R")


class Executor(abc.ABC):
    """An order-preserving ``map`` over a (possibly parallel) backend."""

    #: Backend name, matching :data:`repro.runtime.config.BACKENDS`.
    name: ClassVar[str] = ""

    @abc.abstractmethod
    def map(
        self, fn: Callable[[T], R], items: Sequence[T] | Iterable[T]
    ) -> list[R]:
        """Apply ``fn`` to every item, returning results in input order."""

    @property
    def jobs(self) -> int:
        """Effective worker count (1 for the serial backend)."""
        return 1


class SerialExecutor(Executor):
    """In-line execution — the reference backend."""

    name = "serial"

    def map(
        self, fn: Callable[[T], R], items: Sequence[T] | Iterable[T]
    ) -> list[R]:
        return [fn(item) for item in items]


class ProcessExecutor(Executor):
    """Process-pool execution (true parallelism; picklable work only)."""

    name = "process"

    def __init__(self, jobs: int):
        if jobs < 2:
            raise ExecutionError(
                f"{self.name} backend needs jobs >= 2, got {jobs}; "
                "use get_executor() for the automatic serial fallback"
            )
        self._jobs = jobs

    @property
    def jobs(self) -> int:
        return self._jobs

    def map(
        self, fn: Callable[[T], R], items: Sequence[T] | Iterable[T]
    ) -> list[R]:
        items = list(items)
        if not items:
            return []
        workers = min(self._jobs, len(items))
        if workers < 2:
            return [fn(item) for item in items]
        with ProcessPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(fn, items))


def get_executor(config: RuntimeConfig | None = None) -> Executor:
    """Build the executor for a runtime config.

    ``jobs=1`` (the default) degrades the process backend to
    :class:`SerialExecutor` — a pool with one worker would pay pool
    overhead for serial semantics, so the fallback is both the safe and
    the fast choice.  The distributed backend is exempt: even
    a one-worker queue changes *where* work runs (external workers, a
    shared spool), so it is built whenever requested.

    Args:
        config: Runtime configuration; ``None`` means serial.

    Raises:
        ExecutionError: For unknown backend names (raised at
            :class:`~repro.runtime.config.RuntimeConfig` construction).
    """
    config = config if config is not None else RuntimeConfig()
    if config.backend == "distributed":
        # Imported lazily: distributed builds *on* this module's
        # Executor ABC and fallback pools, so a top-level import would
        # cycle.
        from repro.runtime.distributed import DistributedExecutor

        return DistributedExecutor(config)
    jobs = config.resolve_jobs()
    if config.backend == "serial" or jobs <= 1:
        return SerialExecutor()
    return ProcessExecutor(jobs)
