"""Fault-injection tests for the distributed backend (DESIGN.md §8).

The lease protocol earns its keep only under failure, so these tests
*make* workers fail — killed mid-claim, hung past the task timeout,
merely delayed — and assert the two things the contract promises: the
sweep still completes with results **bit-identical** to serial
execution, and every failure shows up in the structured
:class:`~repro.runtime.distributed.TaskAttempt` record with the right
outcome.  Every test targets its fault at :data:`ANY_WORKER` (or at
every worker) rather than at one named worker, so it fires whichever
worker wins the race for the queue, and asserts from the attempt log
(``TaskAttempt.fault``) that it did fire — a fault that never fires
would turn the test into a vacuous happy-path run.  Plan plumbing (JSON
round-trip through the spool) is covered here too, for the same reason.
"""

from __future__ import annotations

import pytest

from repro.errors import ExecutionError, TaskRetryExhaustedError
from repro.models.registry import create_model
from repro.rng import ensure_rng, spawn_seeds
from repro.runtime import (
    DistributedConfig,
    FaultPlan,
    FaultSpec,
    RuntimeConfig,
    execute_runs,
    get_executor,
    task_attempts,
)
from repro.runtime.faults import (
    ANY_WORKER,
    FAULT_KINDS,
    fire_fault,
    fired_faults,
)


def _double(x: int) -> int:
    return x * 2


def _config(plan: FaultPlan | None = None, **overrides) -> RuntimeConfig:
    base = dict(
        local_workers=2,
        poll_interval=0.01,
        heartbeat_interval=0.05,
        lease_timeout=0.4,
        task_timeout=30.0,
        backoff_base=0.02,
        backoff_cap=0.1,
        attach_deadline=5.0,
        fault_plan=plan,
    )
    base.update(overrides)
    return RuntimeConfig(
        backend="distributed", jobs=2, distributed=DistributedConfig(**base)
    )


def _fired(action):
    """Attempts the given fault was injected into (must be non-empty)."""
    attempts = [a for a in task_attempts() if a.fault == action]
    assert attempts, f"the planned {action!r} fault never fired"
    return attempts


def _run_signature(runs):
    return [
        (run.transactions, run.final_pool_size, run.initial_recipes,
         run.trace)
        for run in runs
    ]


# ---------------------------------------------------------------------------
# Plan plumbing
# ---------------------------------------------------------------------------


def test_fault_spec_validation():
    with pytest.raises(ExecutionError, match="unknown fault action"):
        FaultSpec(action="explode")
    with pytest.raises(ExecutionError, match="1-based"):
        FaultSpec(action="kill", nth_task=0)
    with pytest.raises(ExecutionError, match=">= 0"):
        FaultSpec(action="delay", seconds=-1.0)


def test_fault_spec_matching():
    spec = FaultSpec(action="kill", nth_task=2, worker="local-1")
    assert spec.matches("local-1", 2)
    assert not spec.matches("local-1", 1)
    assert not spec.matches("local-0", 2)
    # worker=None targets every worker; ANY_WORKER matches anyone too
    # (fire_fault then lets only the first of them fire).
    broadcast = FaultSpec(action="kill", nth_task=1)
    assert broadcast.matches("anyone", 1)
    assert FaultSpec(action="kill", worker=ANY_WORKER).matches("anyone", 1)


def test_any_worker_fault_fires_once_and_is_recorded(tmp_path):
    plan = FaultPlan(faults=(
        FaultSpec(action="delay", worker=ANY_WORKER),
        FaultSpec(action="hang", nth_task=2),
    ))
    fired = tmp_path / "fired"
    assert fire_fault(plan, fired, "w0", 1, "t-00000.a01").action == "delay"
    assert fire_fault(plan, fired, "w1", 1, "t-00001.a01") is None
    assert fire_fault(plan, fired, "w1", 2, "t-00002.a01").action == "hang"
    assert fire_fault(plan, fired, "w0", 2, "t-00003.a01").action == "hang"
    assert fired_faults(fired) == {
        "t-00000.a01": "delay",
        "t-00002.a01": "hang",
        "t-00003.a01": "hang",
    }


def test_fault_plan_first_match_wins_and_round_trips(tmp_path):
    plan = FaultPlan(faults=(
        FaultSpec(action="delay", nth_task=1, seconds=0.01),
        FaultSpec(action="kill", nth_task=1),
        FaultSpec(action="hang", nth_task=3, worker="w0", seconds=1.0),
    ))
    assert plan.for_task("w0", 1).action == "delay"
    assert plan.for_task("w0", 2) is None
    path = plan.save(tmp_path / "faults.json")
    assert FaultPlan.load(path) == plan


def test_fault_plan_load_failures_are_loud(tmp_path):
    with pytest.raises(ExecutionError, match="no fault plan"):
        FaultPlan.load(tmp_path / "missing.json")
    bad = tmp_path / "bad.json"
    bad.write_text("{not json", encoding="utf-8")
    with pytest.raises(ExecutionError, match="unreadable"):
        FaultPlan.load(bad)
    with pytest.raises(ExecutionError, match="'faults' list"):
        FaultPlan.from_payload({"faults": "nope"})


# ---------------------------------------------------------------------------
# Crash, hang, delay — results must not change
# ---------------------------------------------------------------------------


def test_worker_kill_is_reclaimed_and_retried():
    plan = FaultPlan(faults=(
        FaultSpec(action="kill", nth_task=1, worker=ANY_WORKER),
    ))
    result = get_executor(_config(plan)).map(_double, list(range(12)))
    assert result == [x * 2 for x in range(12)]
    (expired,) = _fired("kill")
    assert expired.outcome == "lease_expired"  # the kill was noticed...
    # ...and that exact task completed on a later attempt.
    retried = [
        a for a in task_attempts()
        if a.task_index == expired.task_index and a.outcome == "completed"
    ]
    assert retried and retried[0].attempt == expired.attempt + 1


def test_worker_hang_hits_task_timeout():
    # The hung worker's heartbeat keeps beating (it is alive, just
    # stuck), so only the per-task timeout — not lease expiry — may
    # reclaim it.
    plan = FaultPlan(faults=(
        FaultSpec(
            action="hang", nth_task=1, worker=ANY_WORKER, seconds=30.0
        ),
    ))
    config = _config(plan, task_timeout=0.3, lease_timeout=1.0)
    result = get_executor(config).map(_double, list(range(8)))
    assert result == [x * 2 for x in range(8)]
    (hung,) = _fired("hang")
    assert hung.outcome == "timed_out"
    outcomes = [a.outcome for a in task_attempts()]
    assert "lease_expired" not in outcomes


def test_delay_fault_is_benign():
    plan = FaultPlan(faults=(
        FaultSpec(action="delay", nth_task=1, seconds=0.05),
    ))
    result = get_executor(_config(plan)).map(_double, list(range(6)))
    assert result == [x * 2 for x in range(6)]
    assert {a.outcome for a in task_attempts()} == {"completed"}
    _fired("delay")


def test_retry_exhaustion_raises_with_attempt_log():
    # Every worker kills its first claim; with a restart budget big
    # enough to keep supplying fresh victims, some task burns all its
    # attempts and the map must fail loudly instead of hanging.
    plan = FaultPlan(faults=(FaultSpec(action="kill", nth_task=1),))
    config = _config(
        plan, local_workers=1, max_attempts=2, lease_timeout=0.3,
        max_worker_restarts=8,
    )
    with pytest.raises(TaskRetryExhaustedError, match="2 attempts"):
        get_executor(config).map(_double, [1, 2, 3])
    expired = [
        a for a in _fired("kill") if a.outcome == "lease_expired"
    ]
    assert len(expired) >= 2  # both attempts of the exhausted task died


# ---------------------------------------------------------------------------
# Bit-identity under every fault kind (the acceptance criterion)
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("action", FAULT_KINDS)
def test_simulation_results_bit_identical_under_fault(tiny_spec, action):
    # The five same-cell batched runs travel as one stacked task, so the
    # fault must fire on whichever worker claims it.
    model = create_model("CM-R")
    seeds = spawn_seeds(ensure_rng(23), 5)
    serial = execute_runs(model, tiny_spec, seeds)
    plan = FaultPlan(faults=(
        FaultSpec(
            action=action, nth_task=1, worker=ANY_WORKER,
            seconds=30.0 if action == "hang" else 0.05,
        ),
    ))
    config = _config(
        plan,
        task_timeout=1.0 if action == "hang" else 30.0,
        lease_timeout=2.0 if action == "hang" else 0.4,
    )
    faulted = execute_runs(model, tiny_spec, seeds, runtime=config)
    assert _run_signature(faulted) == _run_signature(serial), (
        f"results diverged from serial under injected {action!r}"
    )
    expected = {
        "kill": "lease_expired",
        "hang": "timed_out",
        "delay": "completed",
    }[action]
    assert [a.outcome for a in _fired(action)] == [expected]
