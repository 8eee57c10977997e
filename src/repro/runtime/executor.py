"""Executor backends: serial and process order-preserving maps.

The contract is intentionally minimal — :meth:`Executor.map` applies a
function over items and returns results *in input order* — because that
is the only primitive the ensemble runtime needs, and order preservation
is what keeps parallel execution bit-identical to serial execution
(every run already owns an independent seed, so scheduling order cannot
leak into results; output order must not either).

Backend selection notes:

* ``serial`` — no pools, no overhead; also what the process backend
  degrades to at ``jobs=1``.
* ``process`` — true parallelism for the simulation loop.  Both the
  callable and the items must be picklable; the run-execution layer
  (:mod:`repro.runtime.runner`) only submits module-level functions and
  dataclass payloads, which satisfies that.  Every pool call runs
  inside :func:`_call_pickled`, the pool's one worker-side wrapper: it
  pickles the result together with the runtime events the call
  recorded, and the parent replays those events into its own log
  (:mod:`repro.runtime.events`).
"""

from __future__ import annotations

import abc
import functools
import pickle
from typing import Callable, ClassVar, Iterable, Sequence, TypeVar

from repro.errors import ExecutionError
from repro.runtime import events
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


class _CannotCross(ExecutionError):
    """A work item or result of a process map that does not pickle."""


def _call_pickled(fn: Callable[[T], R], payload: bytes) -> bytes:
    """Worker side of a process map: unpickle the item, apply, pickle.

    The result travels with the events ``fn`` recorded (see
    :func:`repro.runtime.events.shipped`).  Pickling here rather than in
    the pool's result queue is what tells a result that cannot cross
    the boundary apart from an exception raised by ``fn`` itself, which
    must reach the caller unchanged.
    """
    with events.shipped() as recorded:
        result = fn(pickle.loads(payload))
    try:
        return pickle.dumps(
            (result, recorded), protocol=pickle.HIGHEST_PROTOCOL
        )
    except Exception as exc:
        raise _CannotCross(
            f"result does not pickle ({type(exc).__name__}: {exc})"
        ) from None


class ProcessExecutor(Executor):
    """Process-pool execution (true parallelism; picklable work only).

    Both pickling directions are explicit: an item or result that does
    not pickle raises :class:`_CannotCross` (an
    :class:`~repro.errors.ExecutionError`), so a caller can tell it
    apart from an exception raised by the mapped callable, which
    propagates as is.  Events each call records in its worker are
    replayed into this process's log in item order.
    """

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
        try:
            payloads = [
                pickle.dumps(item, protocol=pickle.HIGHEST_PROTOCOL)
                for item in items
            ]
        except Exception as exc:  # pickle raises a zoo of types here
            raise _CannotCross(
                f"work item does not pickle ({type(exc).__name__}: {exc})"
            ) from None
        # Imported here, where a pool is made: the import loads
        # multiprocessing, which serial runs never need.
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            replies = list(
                pool.map(functools.partial(_call_pickled, fn), payloads)
            )
        results = []
        for reply in replies:
            result, recorded = pickle.loads(reply)
            for event in recorded:
                events.record(event)
            results.append(result)
        return results


def get_executor(config: RuntimeConfig | None = None) -> Executor:
    """Build the executor for a runtime config.

    ``jobs=1`` (the default) degrades the process backend to
    :class:`SerialExecutor` — a pool with one worker would pay pool
    overhead for serial semantics, so the fallback is both the safe and
    the fast choice.

    Args:
        config: Runtime configuration; ``None`` means serial.

    Raises:
        ExecutionError: For unknown backend names (raised at
            :class:`~repro.runtime.config.RuntimeConfig` construction).
    """
    config = config if config is not None else RuntimeConfig()
    jobs = config.resolve_jobs()
    if config.backend == "serial" or jobs <= 1:
        return SerialExecutor()
    return ProcessExecutor(jobs)
