"""The runtime event log across process boundaries.

An event recorded inside a pool worker (here: a torn run-cache entry
evicted by a read in a mapped job) must reach the caller's log, and replaying it there must pass through the caller's
warn-once gate: two workers that hit the same cause give two records
and one warning.  Each test first proves its corruption actually fired
(the torn file is gone), so none can pass as a happy-path run.
"""

from __future__ import annotations

import os
import threading
import time
import warnings
from pathlib import Path

import pytest

from repro.runtime import (
    BACKENDS,
    CacheCorruptionWarning,
    CacheWriteFailureWarning,
    RunCache,
    RuntimeConfig,
    cache_corruptions,
    cache_write_failures,
    events,
    parallel_map,
)
from repro.runtime.runner import _write_through

#: Two run-cache keys, one per mapped job.
KEYS = ("aa" * 32, "bb" * 32)


def _runtime(backend: str) -> RuntimeConfig:
    """Two workers on the given backend."""
    return RuntimeConfig(backend=backend, jobs=2)


def _corruption_warnings(caught) -> list:
    return [
        w for w in caught if issubclass(w.category, CacheCorruptionWarning)
    ]


def _plant_torn_entries(directory: Path) -> list[Path]:
    """One torn entry per key in a run cache at ``directory``."""
    cache = RunCache(directory)
    paths = [cache.path_for(key) for key in KEYS]
    for path in paths:
        path.write_bytes(b"torn")
    return paths


def _read_entry(job: tuple[str, str]) -> int:
    """Read one run-cache entry that must be torn; the worker's pid."""
    directory, key = job
    if RunCache(directory).get(key) is not None:
        raise AssertionError("a torn entry loaded")
    return os.getpid()


def _assert_two_evictions_one_warning(paths: list[Path], caught) -> None:
    assert not any(path.exists() for path in paths)  # the reads fired
    corruptions = cache_corruptions()
    assert len(corruptions) == 2
    assert {event.action for event in corruptions} == {"removed"}
    (warned,) = _corruption_warnings(caught)
    assert "RunCache" in str(warned.message)


def test_sweep_quarantines_reach_the_caller_on_every_backend(tmp_path):
    """Torn run-cache entries read in two mapped jobs, per backend.

    Per backend: both entries evicted (the corruption fired), both
    records in the caller's log, and one warning raised there.
    """
    for backend in BACKENDS:
        events.clear()
        directory = tmp_path / backend
        paths = _plant_torn_entries(directory)
        jobs = [(str(directory), key) for key in KEYS]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            parallel_map(_read_entry, jobs, runtime=_runtime(backend))
        _assert_two_evictions_one_warning(paths, caught)


def _read_beside_peer(job: tuple[str, int]) -> int:
    """Read one torn entry while the peer job also runs.

    Each job waits until the other has started, so the two cannot share
    a worker process; returns the worker's pid.
    """
    directory, index = job
    root = Path(directory)
    (root / f"started-{index}").touch()
    deadline = time.monotonic() + 30.0
    while not (root / f"started-{1 - index}").exists():
        if time.monotonic() > deadline:
            raise TimeoutError(f"job {1 - index} never started")
        time.sleep(0.01)
    return _read_entry((str(root / "cache"), KEYS[index]))


@pytest.mark.parametrize("backend", ["process"])
def test_two_workers_warn_once_in_the_caller(backend, tmp_path):
    paths = _plant_torn_entries(tmp_path / "cache")
    jobs = [(str(tmp_path), 0), (str(tmp_path), 1)]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        pids = parallel_map(_read_beside_peer, jobs, runtime=_runtime(backend))

    # Both reads ran, in two workers, none in this process.
    assert len(set(pids)) == 2 and os.getpid() not in pids
    _assert_two_evictions_one_warning(paths, caught)


def _write_unpicklable(job: tuple[str, str]) -> int:
    """Write one entry that cannot pickle; the worker's pid."""
    directory, key = job
    _write_through(directory, (key,), [threading.Lock()])
    return os.getpid()


@pytest.mark.parametrize("backend", ["process"])
def test_worker_write_failures_reach_the_caller(backend, tmp_path):
    """Write-through failures in workers are recorded in the caller's
    log, one per failed entry, with one warning there."""
    jobs = [(str(tmp_path), key) for key in KEYS]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        pids = parallel_map(_write_unpicklable, jobs, runtime=_runtime(backend))

    assert os.getpid() not in pids  # every write ran in a worker
    assert list(tmp_path.glob("*.run.pkl")) == []  # and failed
    failures = cache_write_failures()
    assert len(failures) == 2
    assert {(f.store, f.error) for f in failures} == {("RunCache", "TypeError")}
    assert sum(
        issubclass(w.category, CacheWriteFailureWarning) for w in caught
    ) == 1
