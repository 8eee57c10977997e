"""The runtime event log across process boundaries.

An event recorded inside a pool or spool worker (a quarantined
snapshot, a resume) must reach the caller's log on every backend, and
replaying it there must pass through the caller's warn-once gate: two
workers that hit the same cause give two records and one warning.
Each test first proves its corruption or fault actually fired, so none
can pass as a happy-path run.
"""

from __future__ import annotations

import os
import time
import warnings
from pathlib import Path

import pytest

from repro.models.registry import create_model
from repro.rng import ensure_rng, spawn_seeds
from repro.runtime import (
    BACKENDS,
    CacheCorruptionWarning,
    CheckpointStore,
    DistributedConfig,
    FaultPlan,
    FaultSpec,
    RuntimeConfig,
    cache_corruptions,
    events,
    execute_runs,
    execute_sweep,
    fingerprint_many,
    parallel_map,
    plan_grid,
    resume_events,
    task_attempts,
)
from repro.runtime.checkpoint import QUARANTINE_SUFFIX
from repro.runtime.faults import ANY_WORKER


def _runtime(backend: str, **overrides) -> RuntimeConfig:
    """Two workers on every parallel backend, with test-sized timings."""
    distributed = None
    if backend == "distributed":
        distributed = DistributedConfig(
            local_workers=2, poll_interval=0.01, heartbeat_interval=0.05,
            lease_timeout=0.5, task_timeout=30.0, backoff_base=0.02,
            backoff_cap=0.1, fault_plan=overrides.pop("fault_plan", None),
        )
    return RuntimeConfig(
        backend=backend, jobs=2, distributed=distributed, **overrides
    )


def _corruption_warnings(caught) -> list:
    return [
        w for w in caught if issubclass(w.category, CacheCorruptionWarning)
    ]


def test_sweep_quarantines_reach_the_caller_on_every_backend(
    tiny_spec, tmp_path
):
    """A corrupt snapshot in front of each of two cells, per backend.

    Per backend: snapshots renamed aside (the corruption fired),
    corruption records in the caller's log, and warnings it raised.
    """
    plan = plan_grid(
        [create_model("CM-R"), create_model("NM")], [tiny_spec],
        n_runs=1, seed=5,
    )
    observed = {}
    for backend in BACKENDS:
        events.clear()
        cache_dir = tmp_path / backend
        store = CheckpointStore(cache_dir)
        for cell in plan.cells:
            (key,) = fingerprint_many(
                cell.model, cell.spec, cell.seeds, plan.record_history,
                plan.engine,
            )
            store.path_for(key, 1).write_bytes(b"torn")
        runtime = _runtime(backend, cache_dir=cache_dir, checkpoint_every=1)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert execute_sweep(plan, runtime=runtime).executed == 2
        observed[backend] = (
            len(list(cache_dir.glob(f"*{QUARANTINE_SUFFIX}"))),
            len(cache_corruptions()),
            len(_corruption_warnings(caught)),
        )
    assert observed == {backend: (2, 2, 1) for backend in BACKENDS}


def _quarantine_beside_peer(job: tuple[str, int]) -> int:
    """Quarantine one corrupt snapshot while the peer job also runs.

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
    store = CheckpointStore(root / "snapshots")
    key = f"job{index}"
    store.path_for(key, 1).write_bytes(b"torn")
    if store.latest(key) is not None:
        raise AssertionError("a torn snapshot loaded")
    return os.getpid()


@pytest.mark.parametrize("backend", ["process", "distributed"])
def test_two_workers_warn_once_in_the_caller(backend, tmp_path):
    jobs = [(str(tmp_path), 0), (str(tmp_path), 1)]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        pids = parallel_map(
            _quarantine_beside_peer, jobs, runtime=_runtime(backend)
        )

    # Both quarantines ran, in two workers, none in this process.
    assert len(set(pids)) == 2 and os.getpid() not in pids
    snapshots = tmp_path / "snapshots"
    assert len(list(snapshots.glob(f"*{QUARANTINE_SUFFIX}"))) == 2
    assert len(cache_corruptions()) == 2
    (warned,) = _corruption_warnings(caught)
    assert "CheckpointStore" in str(warned.message)


def test_distributed_resume_reaches_the_coordinator(tiny_spec, tmp_path):
    """A task killed at step 4 resumes from its step-4 snapshot; the
    worker's ResumeEvent lands in the coordinator's log and still
    stamps the completed attempt's ``resumed_from_step``."""
    plan = FaultPlan(faults=(
        FaultSpec(action="kill_at_step", nth_task=1, worker=ANY_WORKER,
                  at_step=4),
    ))
    runtime = _runtime(
        "distributed", cache_dir=tmp_path, checkpoint_every=2,
        fault_plan=plan,
    )
    seeds = spawn_seeds(ensure_rng(23), 12)
    execute_runs(create_model("CM-R"), tiny_spec, seeds, runtime=runtime)

    (killed,) = [a for a in task_attempts() if a.fault == "kill_at_step"]
    assert killed.outcome == "lease_expired"
    resumed = [
        a.resumed_from_step for a in task_attempts()
        if a.outcome == "completed" and a.resumed_from_step is not None
    ]
    assert resumed and resumed[0] == 4
    assert 4 in [event.step for event in resume_events()]
    assert set(resumed) <= {event.step for event in resume_events()}
