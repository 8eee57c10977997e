"""Structured backend-degradation records shared by the runtime layers.

A degradation is the runtime choosing a weaker backend than the caller
asked for, because the requested one cannot serve the work: a
``process`` map over an unpicklable closure runs serially in-process
(:func:`~repro.runtime.runner.parallel_map`), a ``distributed`` map
that no worker attaches to within its deadline runs on the local
process pool (:class:`~repro.runtime.distributed.DistributedExecutor`).
Degrading is the right call — results still arrive, bit-identical — but
it must never be silent: throughput quietly collapses otherwise, and
the operator has no signal to fix the cause.

So every degradation is (a) warned once per callable via
:class:`BackendDegradationWarning`, and (b) recorded as a structured
:class:`BackendDegradation`, queryable after the run via
:func:`backend_degradations`.  The record lives here, not in the
runner, so the distributed backend can report through the same
channel without importing the runner (which would cycle: executor →
distributed → runner → executor).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Callable

__all__ = [
    "BackendDegradation",
    "BackendDegradationWarning",
    "backend_degradations",
    "callable_name",
    "clear_backend_degradations",
    "record_degradation",
]


class BackendDegradationWarning(UserWarning):
    """Emitted when a map ran on a weaker backend than requested."""


@dataclass(frozen=True)
class BackendDegradation:
    """A recorded backend degradation event.

    Attributes:
        callable_name: Qualified name of the offending callable.
        requested: Backend the caller asked for.
        effective: Backend the map actually ran on.
        reason: Why the requested backend was unusable (the pickling
            error or attach-deadline report, verbatim).
    """

    callable_name: str
    requested: str
    effective: str
    reason: str


#: Degradations observed in this process, one entry per distinct
#: callable — the structured record behind the one-time warning.
_DEGRADATIONS: dict[str, BackendDegradation] = {}


def backend_degradations() -> tuple[BackendDegradation, ...]:
    """Every backend degradation recorded so far, in observation order."""
    return tuple(_DEGRADATIONS.values())


def clear_backend_degradations() -> None:
    """Reset the degradation record (tests; long-lived services)."""
    _DEGRADATIONS.clear()


def callable_name(fn: Callable) -> str:
    """Qualified name used to key degradation records."""
    return (
        f"{getattr(fn, '__module__', '?')}."
        f"{getattr(fn, '__qualname__', repr(fn))}"
    )


def record_degradation(
    fn: Callable,
    requested: str,
    effective: str,
    reason: str,
    hint: str,
) -> None:
    """Record a degradation and warn once per (callable, requested) pair.

    Args:
        fn: The mapped callable (keyed by qualified name).
        requested: Backend the caller asked for.
        effective: Backend the map actually ran on.
        reason: Why the requested backend was unusable, verbatim.
        hint: One actionable sentence appended to the warning telling
            the operator how to get the requested backend back.
    """
    key = f"{requested}:{callable_name(fn)}"
    if key in _DEGRADATIONS:
        return
    _DEGRADATIONS[key] = BackendDegradation(
        callable_name=callable_name(fn),
        requested=requested,
        effective=effective,
        reason=reason,
    )
    warnings.warn(
        f"backend={requested!r} degraded to {effective!r} for "
        f"{callable_name(fn)}: {reason}; {hint}",
        BackendDegradationWarning,
        stacklevel=4,
    )
