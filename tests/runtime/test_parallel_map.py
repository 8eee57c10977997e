"""Tests for parallel_map's process path and degradation reporting."""

from __future__ import annotations

import os
import threading
import warnings

import pytest

from repro.runtime import (
    BackendDegradationWarning,
    RuntimeConfig,
    backend_degradations,
    parallel_map,
)


def _square(x: int) -> int:
    return x * x


def _worker_pid(_x: int) -> int:
    return os.getpid()


def _call_thunk(thunk):
    return thunk()


def _forty_two() -> int:
    return 42


#: Calls of :func:`_raise_attribute_error` made in this (the parent)
#: process; pool workers append to their own copies.
_PARENT_CALLS: list[int] = []


def _raise_attribute_error(x: int) -> int:
    _PARENT_CALLS.append(x)
    raise AttributeError(f"bug in fn for {x}")


def _make_lock(_x: int) -> threading.Lock:
    return threading.Lock()


def test_picklable_fn_keeps_process_backend():
    config = RuntimeConfig(backend="process", jobs=2)
    assert parallel_map(_square, [1, 2, 3], runtime=config) == [1, 4, 9]
    assert backend_degradations() == ()


def test_process_backend_actually_crosses_process_boundary():
    config = RuntimeConfig(backend="process", jobs=2)
    pids = parallel_map(_worker_pid, list(range(4)), runtime=config)
    assert all(pid != os.getpid() for pid in pids)


def test_closure_degrades_with_one_time_warning():
    captured = 10

    def closure(x: int) -> int:
        return x + captured

    config = RuntimeConfig(backend="process", jobs=2)
    with pytest.warns(BackendDegradationWarning, match="does not pickle"):
        assert parallel_map(closure, [1, 2], runtime=config) == [11, 12]
    events = backend_degradations()
    assert len(events) == 1
    assert events[0].requested == "process"
    assert events[0].effective == "serial"
    assert events[0].reason  # the pickling error is recorded verbatim
    assert "closure" in events[0].callable_name

    # Second use of the same callable: silent (one-time), still serial.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert parallel_map(closure, [3], runtime=config) == [13]
    assert len(backend_degradations()) == 1


def test_lambda_degrades_and_records():
    config = RuntimeConfig(backend="process", jobs=2)
    with pytest.warns(BackendDegradationWarning):
        assert parallel_map(lambda x: x - 1, [5], runtime=config) == [4]
    assert len(backend_degradations()) == 1


def test_unpicklable_items_degrade_instead_of_crashing():
    # Module-level fn but closure items: the map must fall back to a
    # serial map, not raise from the pool.
    items = [lambda: 1, lambda: 2]
    config = RuntimeConfig(backend="process", jobs=2)
    with pytest.warns(BackendDegradationWarning, match="work item"):
        result = parallel_map(_call_thunk, items, runtime=config)
    assert result == [1, 2]
    assert backend_degradations()[0].reason.startswith("work item")


def test_heterogeneous_items_fall_back_mid_map():
    # The first item pickles, a later one does not: the first-item
    # probe passes, the later item fails to pickle, and the map must
    # still complete serially instead of surfacing PicklingError.
    items = [_forty_two, lambda: 99]  # module-level fn pickles; lambda not
    config = RuntimeConfig(backend="process", jobs=2)
    with pytest.warns(BackendDegradationWarning, match="process boundary"):
        result = parallel_map(_call_thunk, items, runtime=config)
    assert result == [42, 99]
    assert backend_degradations()[0].reason.startswith(
        "map failed to cross the process boundary"
    )


def test_unpicklable_results_fall_back_serially():
    # Every item pickles but no result does: the map must complete
    # serially, recorded once, instead of raising TypeError from the pool.
    config = RuntimeConfig(backend="process", jobs=2)
    with pytest.warns(BackendDegradationWarning, match="result does not"):
        result = parallel_map(_make_lock, [1, 2], runtime=config)
    assert len(result) == 2
    assert all(hasattr(lock, "acquire") for lock in result)
    events = backend_degradations()
    assert len(events) == 1
    assert events[0].effective == "serial"
    assert "result does not pickle" in events[0].reason


def test_fn_exception_propagates_once_without_degradation():
    # An AttributeError raised by fn inside a worker is the caller's
    # bug, not a pickling failure: no warning, no record, no rerun.
    _PARENT_CALLS.clear()
    config = RuntimeConfig(backend="process", jobs=2)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(AttributeError, match="bug in fn for"):
            parallel_map(_raise_attribute_error, [1, 2], runtime=config)
    assert backend_degradations() == ()
    assert _PARENT_CALLS == []  # nothing re-ran in this process


def test_serial_backend_never_warns():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert parallel_map(lambda x: x, [1, 2]) == [1, 2]


def test_jobs_one_process_request_stays_serial():
    # jobs=1 degrades to the serial executor before pickling matters.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        config = RuntimeConfig(backend="process", jobs=1)
        assert parallel_map(lambda x: x + 1, [1], runtime=config) == [2]
