"""Tests for the executor backends and their selection logic."""

from __future__ import annotations

import pytest

from repro.errors import ExecutionError
from repro.runtime import (
    ProcessExecutor,
    RuntimeConfig,
    SerialExecutor,
    get_executor,
)


def _square(x: int) -> int:
    return x * x


def test_serial_map_preserves_order():
    assert SerialExecutor().map(_square, range(7)) == [
        0, 1, 4, 9, 16, 25, 36
    ]


def test_process_map_preserves_order():
    executor = ProcessExecutor(jobs=2)
    assert executor.map(_square, range(8)) == [i * i for i in range(8)]


def test_pool_backends_handle_empty_input():
    assert ProcessExecutor(jobs=2).map(_square, []) == []


def test_jobs_one_degrades_any_backend_to_serial():
    for backend in ("serial", "process"):
        executor = get_executor(RuntimeConfig(backend=backend, jobs=1))
        assert isinstance(executor, SerialExecutor)


def test_get_executor_defaults_to_serial():
    assert isinstance(get_executor(None), SerialExecutor)
    assert isinstance(get_executor(), SerialExecutor)


def test_get_executor_builds_requested_backend():
    assert isinstance(
        get_executor(RuntimeConfig(backend="process", jobs=2)),
        ProcessExecutor,
    )


def test_pool_executor_rejects_single_worker_construction():
    with pytest.raises(ExecutionError):
        ProcessExecutor(jobs=1)
    with pytest.raises(ExecutionError):
        ProcessExecutor(jobs=0)


def test_executor_reports_effective_jobs():
    assert SerialExecutor().jobs == 1
    assert ProcessExecutor(jobs=3).jobs == 3
