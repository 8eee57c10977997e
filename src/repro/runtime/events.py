"""The runtime event log: what went wrong (or was worked around) in a run.

Every runtime observation an operator may need after the fact is one
typed event appended to one process-wide log: a backend degradation
(the runtime ran a map on a weaker backend than asked), a cache
corruption (a store evicted a corrupt file) and a
distributed task attempt (:class:`~repro.runtime.distributed.
TaskAttempt`).  Producers call :func:`record`; readers filter the log by
type with :func:`recorded` (or the one-line queries such as
:func:`cache_corruptions`); :func:`clear` resets it.

What differs between event types is a set of class facts the log
reads: the warning category raised the first time an event's once-key is seen
(:attr:`Event.warning`), the once-key itself (:meth:`Event.once_key`),
and whether a repeat of a seen key is recorded at all
(:attr:`Event.repeats`).  Degradations are recorded once per
``(requested, callable)``; corruptions are recorded every time, so a
flaky disk shows up as a count, but warn once per ``(store, kind)`` —
a sweep over a poisoned 10k-entry cache must not print 10k warnings.

Events recorded inside a worker process must reach the caller.  Each
process boundary wraps its worker-side call in :func:`shipped`, which
moves the events the call records out of the worker's log (and keeps
them from warning there); the wrapper returns them with the result and
the caller replays each through :func:`record`, so the warn-once gate
applies in the caller, once per cause across all its workers.

This is a leaf module: it imports only the standard library, so every
layer (stores, executors, the runner) can record without cycles.
"""

from __future__ import annotations

import warnings
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, ClassVar, Iterator, TypeVar

__all__ = [
    "BackendDegradation",
    "BackendDegradationWarning",
    "CacheCorruption",
    "CacheCorruptionWarning",
    "Event",
    "backend_degradations",
    "cache_corruptions",
    "callable_name",
    "clear",
    "record",
    "recorded",
    "shipped",
]

E = TypeVar("E", bound="Event")


class Event:
    """Base of every runtime event type: the class facts the log reads."""

    #: Warning category raised the first time a once-key is recorded in
    #: this process; ``None`` records silently.
    warning: ClassVar[type[Warning] | None] = None

    #: Whether an event whose once-key was already seen is recorded.
    repeats: ClassVar[bool] = True

    def once_key(self) -> tuple | None:
        """The cause this event warns (or deduplicates) once per."""
        return None

    def message(self) -> str:
        """The warning text, for types that warn."""
        return ""


class BackendDegradationWarning(UserWarning):
    """Emitted when a map ran on a weaker backend than requested."""


class CacheCorruptionWarning(UserWarning):
    """Emitted when a store evicts a corrupt entry."""


@dataclass(frozen=True)
class BackendDegradation(Event):
    """The runtime ran a map on a weaker backend than the caller asked.

    A ``process`` map over an unpicklable callable, item or result runs
    serially in-process (:func:`~repro.runtime.runner.parallel_map`); a
    ``distributed`` map no worker attaches to runs on the local process
    pool.  Results still arrive bit-identical, but throughput collapses,
    so the first occurrence per ``(requested, callable)`` warns.

    Attributes:
        callable_name: Qualified name of the mapped callable.
        requested: Backend the caller asked for.
        effective: Backend the map actually ran on.
        reason: Why the requested backend was unusable, verbatim.
        hint: One sentence telling the operator how to get the
            requested backend back.
    """

    callable_name: str
    requested: str
    effective: str
    reason: str
    hint: str

    warning: ClassVar[type[Warning]] = BackendDegradationWarning
    repeats: ClassVar[bool] = False

    def once_key(self) -> tuple:
        """Once per requested backend and callable."""
        return (self.requested, self.callable_name)

    def message(self) -> str:
        """The degradation warning, naming the cause and the fix."""
        return (
            f"backend={self.requested!r} degraded to {self.effective!r} "
            f"for {self.callable_name}: {self.reason}; {self.hint}"
        )


@dataclass(frozen=True)
class CacheCorruption(Event):
    """One corrupt on-disk entry, as observed and handled by a store.

    Stores survive corruption (:func:`repro.durable.quarantine` evicts
    the entry, which is then recomputed), but survival alone would make
    a poisoned shared cache look like a cold one, so every observation
    is recorded and the first per ``(store, kind)`` warns.

    Attributes:
        store: Class name of the observing store (``RunCache`` or
            ``CurveCache``).
        path: The corrupt file, as observed.
        kind: One of :mod:`repro.durable`'s shared kinds: ``"torn"``,
            ``"checksum-mismatch"`` or ``"format-version"``.
        detail: The underlying error, verbatim.
        action: What the store did about it — ``"removed"`` (evicted,
            will recompute) or ``"left in place"`` (the filesystem
            refused).
    """

    store: str
    path: str
    kind: str
    detail: str
    action: str

    warning: ClassVar[type[Warning]] = CacheCorruptionWarning

    def once_key(self) -> tuple:
        """Once per observing store and corruption kind."""
        return (self.store, self.kind)

    def message(self) -> str:
        """The corruption warning, pointing at the recorded count."""
        return (
            f"{self.store} found a corrupt entry ({self.kind}: "
            f"{self.detail}) at {self.path} and {self.action} it; further "
            "occurrences are recorded silently — query "
            "repro.runtime.cache_corruptions() and check the backing disk "
            "if the count grows"
        )


#: Every event recorded in this process, in observation order.
_LOG: list[Event] = []

#: (type, once-key) pairs already recorded — the one warn-once gate.
_SEEN: set[tuple] = set()

#: True while a worker-side :func:`shipped` block collects events.
_SHIPPING = False


def record(event: Event) -> None:
    """Append one event, warning the first time its cause is seen.

    Inside :func:`shipped` the event is only collected: the gate and
    the warning belong to the caller that replays it.
    """
    if _SHIPPING:
        _LOG.append(event)
        return
    key = (type(event), event.once_key())
    if key in _SEEN:
        if event.repeats:
            _LOG.append(event)
        return
    _SEEN.add(key)
    _LOG.append(event)
    if event.warning is not None:
        warnings.warn(event.message(), event.warning, stacklevel=2)


def recorded(kind: type[E]) -> tuple[E, ...]:
    """Every recorded event of one type, in observation order."""
    return tuple(event for event in _LOG if isinstance(event, kind))


def clear() -> None:
    """Empty the log and reset the warn-once gate (tests; services)."""
    _LOG.clear()
    _SEEN.clear()


@contextmanager
def shipped() -> Iterator[list[Event]]:
    """Worker side of a process boundary: hand a call's events over.

    Events recorded inside the block are moved out of this process's
    log into the yielded list when the block exits, however it exits;
    the boundary returns the list with its result and the caller
    replays each event through :func:`record`.
    """
    global _SHIPPING
    start, outer = len(_LOG), _SHIPPING
    collected: list[Event] = []
    _SHIPPING = True
    try:
        yield collected
    finally:
        _SHIPPING = outer
        collected.extend(_LOG[start:])
        del _LOG[start:]


def backend_degradations() -> tuple[BackendDegradation, ...]:
    """Every backend degradation recorded so far, in observation order."""
    return recorded(BackendDegradation)


def cache_corruptions() -> tuple[CacheCorruption, ...]:
    """Every cache corruption recorded so far, in observation order."""
    return recorded(CacheCorruption)


def callable_name(fn: Callable) -> str:
    """Qualified name a degradation records for a mapped callable."""
    return (
        f"{getattr(fn, '__module__', '?')}."
        f"{getattr(fn, '__qualname__', repr(fn))}"
    )
