"""Structured cache-corruption records shared by the on-disk stores.

A shared cache directory (DESIGN.md §5), checkpoint directory (§9) or
packed corpus (§11) lives on disks the runtime does not control: NFS
mounts, crash-prone workers, operators running ``rm`` in the wrong
shell.  The stores *survive* corruption — :func:`repro.durable.quarantine`
evicts a corrupt cache entry (it is recomputed) or renames a corrupt
snapshot or corpus to ``*.bad`` — but survival alone is silent, which
would make a poisoned shared cache look exactly like a cold one: sweeps
quietly recompute everything and nobody learns the disk is eating data.

So every corruption observation is (a) warned once per (store, kind)
via :class:`CacheCorruptionWarning`, and (b) recorded as a structured
:class:`CacheCorruption`, queryable after the run via
:func:`cache_corruptions` — the same visible-degradation contract as
:mod:`repro.runtime.degradation`, in its own module because the cache
layer cannot import the runner-adjacent degradation module's consumers
without cycling.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from pathlib import Path

__all__ = [
    "CacheCorruption",
    "CacheCorruptionWarning",
    "cache_corruptions",
    "clear_cache_corruptions",
    "record_corruption",
]


class CacheCorruptionWarning(UserWarning):
    """Emitted when a store evicts or quarantines a corrupt entry."""


@dataclass(frozen=True)
class CacheCorruption:
    """One corrupt on-disk entry, as observed and handled by a store.

    Attributes:
        store: Class name of the observing store (``RunCache``,
            ``CurveCache``, ``CheckpointStore``, ...).
        path: The corrupt file, as observed.
        kind: One of :mod:`repro.durable`'s shared kinds: ``"torn"``,
            ``"checksum-mismatch"`` or ``"format-version"``.
        detail: The underlying error, verbatim.
        action: What the store did about it — ``"removed"`` (cache
            entries: evicted, will recompute), ``"quarantined"``
            (snapshots, corpora: renamed aside for post-mortem) or
            ``"left in place"`` (the filesystem refused).
    """

    store: str
    path: str
    kind: str
    detail: str
    action: str


#: Every corruption observed in this process, in observation order.
_CORRUPTIONS: list[CacheCorruption] = []

#: (store, kind) pairs already warned about — the once-per-cause gate.
_WARNED: set[tuple[str, str]] = set()


def cache_corruptions() -> tuple[CacheCorruption, ...]:
    """Every cache corruption recorded so far, in observation order."""
    return tuple(_CORRUPTIONS)


def clear_cache_corruptions() -> None:
    """Reset the corruption record (tests; long-lived services)."""
    _CORRUPTIONS.clear()
    _WARNED.clear()


def record_corruption(
    store: str,
    path: str | Path,
    kind: str,
    detail: str,
    action: str,
) -> CacheCorruption:
    """Record one corrupt entry and warn once per (store, kind) pair.

    Every event is recorded (a flaky disk shows up as a *count*, not a
    boolean), but the warning fires only on the first occurrence of a
    cause per store — a sweep over a poisoned 10k-entry cache must not
    print 10k warnings.

    Args:
        store: Observing store's class name.
        path: The corrupt file.
        kind: Short machine-readable cause.
        detail: Underlying error, verbatim.
        action: ``"removed"``, ``"quarantined"`` or ``"left in place"``.
    """
    record = CacheCorruption(
        store=store, path=str(path), kind=kind, detail=detail, action=action
    )
    _CORRUPTIONS.append(record)
    key = (store, kind)
    if key not in _WARNED:
        _WARNED.add(key)
        warnings.warn(
            f"{store} found a corrupt entry ({kind}: {detail}) at {path} "
            f"and {action} it; further occurrences are recorded silently "
            "— query repro.runtime.cache_corruptions() and check the "
            "backing disk if the count grows",
            CacheCorruptionWarning,
            stacklevel=5,  # the caller of get / latest / open
        )
    return record
