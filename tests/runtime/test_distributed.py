"""Tests for the distributed work-queue backend (DESIGN.md §8).

Happy-path correctness, determinism vs serial, the cache-rendezvous
contract, retry exhaustion on deterministic task errors, the
no-workers→process degradation, and the ``repro worker`` CLI loop.
Failure *injection* (kill/hang/delay) lives in
``test_fault_injection.py``; the pure lease state machine is
property-tested in ``test_lease_properties.py``.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.errors import ExecutionError, TaskRetryExhaustedError
from repro.models.registry import create_model
from repro.rng import ensure_rng, spawn_seeds
from repro.runtime import (
    BackendDegradationWarning,
    DistributedConfig,
    DistributedExecutor,
    RunCache,
    RuntimeConfig,
    Spool,
    backend_degradations,
    events,
    execute_runs,
    get_executor,
    parallel_map,
    run_worker,
    signal_stop,
    task_attempts,
)


def _square(x: int) -> int:
    return x * x


def _worker_pid(_x: int) -> int:
    return os.getpid()


def _always_fails(_x: int) -> int:
    raise ValueError("deterministic task error")


def fast_distributed(**overrides) -> DistributedConfig:
    """Timings sized for tests: milliseconds, not production seconds."""
    base = dict(
        local_workers=2,
        poll_interval=0.01,
        heartbeat_interval=0.05,
        lease_timeout=0.5,
        task_timeout=30.0,
        backoff_base=0.02,
        backoff_cap=0.1,
        attach_deadline=5.0,
    )
    base.update(overrides)
    return DistributedConfig(**base)


def _config(**overrides) -> RuntimeConfig:
    return RuntimeConfig(
        backend="distributed", jobs=2, distributed=fast_distributed(**overrides)
    )


def _run_signature(runs):
    return [
        (run.transactions, run.final_pool_size, run.initial_recipes,
         run.trace)
        for run in runs
    ]


# ---------------------------------------------------------------------------
# Executor basics
# ---------------------------------------------------------------------------


def test_get_executor_builds_distributed():
    executor = get_executor(_config())
    assert isinstance(executor, DistributedExecutor)
    assert executor.name == "distributed"


def test_distributed_not_degraded_at_jobs_one():
    # jobs=1 degrades the in-process pools to serial, but a distributed
    # request changes *where* work runs, so it must survive.
    config = RuntimeConfig(
        backend="distributed", jobs=1, distributed=fast_distributed()
    )
    assert isinstance(get_executor(config), DistributedExecutor)


def test_map_preserves_order_and_completes():
    result = get_executor(_config()).map(_square, list(range(25)))
    assert result == [x * x for x in range(25)]
    attempts = task_attempts()
    assert len(attempts) == 25
    assert {attempt.outcome for attempt in attempts} == {"completed"}
    assert all(attempt.attempt == 1 for attempt in attempts)


def test_map_empty_items_is_noop():
    assert get_executor(_config()).map(_square, []) == []
    assert task_attempts() == ()


def test_work_crosses_process_boundary():
    pids = get_executor(_config()).map(_worker_pid, list(range(6)))
    assert all(pid != os.getpid() for pid in pids)


def test_unpicklable_work_raises_execution_error():
    captured = 3

    def closure(x: int) -> int:  # pragma: no cover - never executes
        return x + captured

    with pytest.raises(ExecutionError, match="picklable"):
        get_executor(_config()).map(closure, [1, 2])


def test_parallel_map_degrades_unpicklable_to_serial():
    # Through parallel_map the same closure degrades (with a recorded
    # warning) instead of raising — mirroring the process backend.
    captured = 7

    def closure(x: int) -> int:
        return x + captured

    with pytest.warns(BackendDegradationWarning, match="does not pickle"):
        result = parallel_map(closure, [1, 2], runtime=_config())
    assert result == [8, 9]
    events = backend_degradations()
    assert events[0].requested == "distributed"
    assert events[0].effective == "serial"


# ---------------------------------------------------------------------------
# Determinism and the cache rendezvous
# ---------------------------------------------------------------------------


def test_execute_runs_bit_identical_to_serial(tiny_spec):
    model = create_model("CM-R")
    seeds = spawn_seeds(ensure_rng(7), 6)
    serial = execute_runs(model, tiny_spec, seeds)
    distributed = execute_runs(model, tiny_spec, seeds, runtime=_config())
    assert _run_signature(distributed) == _run_signature(serial)


def test_workers_write_runs_into_shared_cache(tiny_spec, tmp_path):
    model = create_model("CM-R")
    seeds = spawn_seeds(ensure_rng(11), 5)
    config = RuntimeConfig(
        backend="distributed", jobs=2, cache_dir=tmp_path,
        distributed=fast_distributed(),
    )
    first = execute_runs(model, tiny_spec, seeds, runtime=config)
    # The workers themselves wrote the batched cell, as its one entry,
    # into the cache directory — the result rendezvous: a resumed (or
    # serial) invocation is served entirely from disk.
    assert len(RunCache(tmp_path)) == 1
    cache = RunCache(tmp_path)
    serial = execute_runs(
        model, tiny_spec, seeds,
        runtime=RuntimeConfig(cache_dir=tmp_path), cache=cache,
    )
    assert cache.stats.hits == 1
    assert cache.stats.misses == 0
    assert _run_signature(serial) == _run_signature(first)


# ---------------------------------------------------------------------------
# Retry policy
# ---------------------------------------------------------------------------


def test_deterministic_task_error_exhausts_retries():
    config = _config(max_attempts=2)
    with pytest.raises(TaskRetryExhaustedError, match="2 attempts"):
        get_executor(config).map(_always_fails, [1, 2, 3])
    failed = [a for a in task_attempts() if a.outcome == "failed"]
    assert failed
    assert all("deterministic task error" in a.error for a in failed)
    # Some task burned its full attempt budget before the map gave up.
    exhausted = [a for a in failed if a.attempt == 2]
    assert exhausted


def test_attempt_records_are_queryable_and_clearable():
    get_executor(_config()).map(_square, [1, 2])
    assert len(task_attempts()) == 2
    record = task_attempts()[0]
    assert record.task_index in (0, 1)
    assert record.worker is not None
    assert record.elapsed_seconds is not None
    events.clear()
    assert task_attempts() == ()


# ---------------------------------------------------------------------------
# No-workers degradation
# ---------------------------------------------------------------------------


def test_no_workers_degrades_to_process_with_record():
    config = _config(local_workers=0, attach_deadline=0.2)
    with pytest.warns(BackendDegradationWarning, match="no workers"):
        result = get_executor(config).map(_square, [1, 2, 3])
    assert result == [1, 4, 9]
    events = backend_degradations()
    assert len(events) == 1
    assert events[0].requested == "distributed"
    assert events[0].effective == "process"
    assert "attach" in events[0].reason or "within" in events[0].reason


def test_no_workers_degrades_to_serial_at_jobs_one():
    config = RuntimeConfig(
        backend="distributed", jobs=1,
        distributed=fast_distributed(local_workers=0, attach_deadline=0.2),
    )
    with pytest.warns(BackendDegradationWarning):
        assert get_executor(config).map(_square, [4]) == [16]
    assert backend_degradations()[0].effective == "serial"


# ---------------------------------------------------------------------------
# Worker loop and CLI
# ---------------------------------------------------------------------------


def test_run_worker_exits_on_stop_sentinel(tmp_path):
    spool = tmp_path / "spool"
    signal_stop(spool)
    summary = run_worker(spool, worker_id="idle", poll_interval=0.01)
    assert summary.claimed == 0
    assert summary.completed == 0


def test_run_worker_exits_on_idle_timeout(tmp_path):
    summary = run_worker(
        tmp_path / "spool", poll_interval=0.01, idle_timeout=0.05
    )
    assert summary.claimed == 0


def test_external_cli_worker_serves_a_map(tmp_path):
    spool_dir = tmp_path / "spool"
    Spool(spool_dir).ensure()
    env = dict(os.environ)
    root = Path(__file__).resolve().parents[2]
    env["PYTHONPATH"] = str(root / "src")
    proc = subprocess.Popen(
        [
            sys.executable, "-m", "repro.cli", "worker",
            "--spool", str(spool_dir),
            "--worker-id", "external-0",
            "--poll-interval", "0.02",
            "--heartbeat-interval", "0.05",
            "--idle-timeout", "30",
        ],
        env=env, cwd=str(root),
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    )
    try:
        config = RuntimeConfig(
            backend="distributed", jobs=2,
            distributed=fast_distributed(
                local_workers=0, spool_dir=spool_dir, attach_deadline=30.0
            ),
        )
        result = get_executor(config).map(_square, list(range(10)))
        assert result == [x * x for x in range(10)]
        assert {a.worker for a in task_attempts()} == {"external-0"}
        signal_stop(spool_dir)
        stdout, stderr = proc.communicate(timeout=30)
        assert proc.returncode == 0, stderr
        assert "external-0 done" in stdout
        assert "10 completed" in stdout
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.communicate()


def test_cli_parser_accepts_worker_and_distributed_flags():
    from repro.cli import _runtime_from_args, build_parser

    parser = build_parser()
    args = parser.parse_args(
        ["worker", "--spool", "queue", "--max-tasks", "3"]
    )
    assert args.command == "worker"
    assert args.spool == Path("queue")
    assert args.max_tasks == 3

    args = parser.parse_args([
        "sweep", "--backend", "distributed", "--spool-dir", "queue",
        "--local-workers", "0",
    ])
    runtime = _runtime_from_args(args)
    assert runtime.backend == "distributed"
    assert runtime.distributed.spool_dir == Path("queue")
    assert runtime.distributed.local_workers == 0

    # In-process backends carry no distributed policy.
    args = parser.parse_args(["sweep", "--backend", "process", "--jobs", "2"])
    assert _runtime_from_args(args).distributed is None


def test_shared_spool_sessions_do_not_collide(tmp_path):
    # Two sequential maps over one spool directory: nonce-namespaced
    # session files must not cross-contaminate, and the spool stays
    # clean of session litter afterwards.
    spool_dir = tmp_path / "spool"
    config = _config(spool_dir=spool_dir)
    executor = get_executor(config)
    assert executor.map(_square, [1, 2, 3]) == [1, 4, 9]
    assert executor.map(_square, [4, 5]) == [16, 25]
    spool = Spool(spool_dir)
    assert list(spool.tasks.glob("*")) == []
    assert list(spool.claimed.glob("*")) == []
    assert list(spool.results.glob("*")) == []
