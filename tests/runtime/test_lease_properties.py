"""Property-based tests for the task-lease state machine and the spool.

Two safety properties carry the whole distributed backend, and both are
interleaving-sensitive in ways example-based tests cannot sweep:

* **never lose a task** — whatever order claims, heartbeats, expiries,
  timeouts, failures and completions arrive in, every task ends in a
  legal state and anything not finished is still retryable (or has
  loudly exhausted its attempts);
* **never complete a task twice** — the ledger accepts exactly one
  completion per task, no matter how many straggler results show up.

:class:`~repro.runtime.distributed.LeaseLedger` is deliberately pure
(no filesystem, injected clock and jitter rng) precisely so hypothesis
can drive it through arbitrary event sequences here.  The third
property pins the wire format: a :class:`~repro.runtime.runner.
RunRequest` round-trips through pickle — the spool's serialization —
without changing its cache fingerprint, which is what makes a worker's
cache write interchangeable with the coordinator's.
"""

from __future__ import annotations

import pickle
import random

from hypothesis import given, settings, strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    rule,
)

from repro.models.registry import PAPER_MODELS, create_model
from repro.runtime import LeaseLedger, RunRequest
from repro.runtime.distributed import (
    LEASE_CLAIMED,
    LEASE_DONE,
    LEASE_FAILED,
    LEASE_PENDING,
    backoff_delay,
)

N_TASKS = 4
MAX_ATTEMPTS = 3
LEASE_TIMEOUT = 0.5
TASK_TIMEOUT = 1.0
WORKERS = ("w0", "w1", "w2")

_STATES = (LEASE_PENDING, LEASE_CLAIMED, LEASE_DONE, LEASE_FAILED)


class LeaseLedgerMachine(RuleBasedStateMachine):
    """Drive one ledger through arbitrary interleavings of observations."""

    def __init__(self):
        super().__init__()
        self.ledger = LeaseLedger(
            N_TASKS,
            max_attempts=MAX_ATTEMPTS,
            backoff_base=0.01,
            backoff_cap=0.05,
            rng=random.Random(0),
        )
        self.now = 0.0
        self.completions = [0] * N_TASKS
        self.ever_done: set[int] = set()
        self.ever_failed: set[int] = set()

    def _advance(self, dt: float) -> None:
        self.now += dt

    indexes = st.integers(min_value=0, max_value=N_TASKS - 1)
    clocks = st.floats(min_value=0.0, max_value=0.7, allow_nan=False)

    @rule(index=indexes, worker=st.sampled_from(WORKERS), dt=clocks)
    def claim(self, index, worker, dt):
        self._advance(dt)
        accepted = self.ledger.claim(index, worker, self.now)
        if accepted:
            lease = self.ledger.lease(index)
            assert lease.status == LEASE_CLAIMED
            assert lease.worker == worker

    @rule(index=indexes, dt=clocks)
    def heartbeat(self, index, dt):
        self._advance(dt)
        self.ledger.heartbeat(index, self.now)

    @rule(index=indexes, dt=clocks)
    def complete(self, index, dt):
        self._advance(dt)
        if self.ledger.complete(index, self.now):
            self.completions[index] += 1

    @rule(index=indexes, dt=clocks)
    def expire(self, index, dt):
        self._advance(dt)
        self.ledger.expire(index, self.now, LEASE_TIMEOUT)

    @rule(index=indexes, dt=clocks)
    def time_out(self, index, dt):
        self._advance(dt)
        self.ledger.time_out(index, self.now, TASK_TIMEOUT)

    @rule(index=indexes, dt=clocks)
    def fail(self, index, dt):
        self._advance(dt)
        self.ledger.fail(index, "injected failure", self.now)

    # -- safety properties -------------------------------------------

    @invariant()
    def no_task_is_ever_lost(self):
        # Every task is always in exactly one legal state; nothing
        # vanishes from the ledger regardless of event order.
        assert len(self.ledger) == N_TASKS
        for lease in self.ledger.leases():
            assert lease.status in _STATES

    @invariant()
    def no_task_completes_twice(self):
        assert all(count <= 1 for count in self.completions)

    @invariant()
    def attempts_respect_the_budget(self):
        for lease in self.ledger.leases():
            assert 1 <= lease.attempt <= MAX_ATTEMPTS
            if lease.status == LEASE_FAILED:
                # Exhaustion only after the full budget was spent.
                assert lease.attempt == MAX_ATTEMPTS

    @invariant()
    def done_and_failed_are_absorbing(self):
        for lease in self.ledger.leases():
            if lease.status == LEASE_DONE:
                self.ever_done.add(lease.index)
            if lease.status == LEASE_FAILED:
                self.ever_failed.add(lease.index)
        for index in self.ever_done:
            assert self.ledger.lease(index).status == LEASE_DONE
        for index in self.ever_failed:
            assert self.ledger.lease(index).status == LEASE_FAILED

    @invariant()
    def claimed_leases_have_a_worker(self):
        for lease in self.ledger.leases():
            if lease.status == LEASE_CLAIMED:
                assert lease.worker in WORKERS
                assert lease.claimed_at is not None
            if lease.status == LEASE_PENDING:
                assert lease.worker is None


LeaseLedgerMachine.TestCase.settings = settings(
    max_examples=60, stateful_step_count=40, deadline=None
)
TestLeaseLedgerProperties = LeaseLedgerMachine.TestCase


# ---------------------------------------------------------------------------
# Backoff policy
# ---------------------------------------------------------------------------


@given(
    retry=st.integers(min_value=1, max_value=12),
    base=st.floats(min_value=0.001, max_value=2.0, allow_nan=False),
    cap=st.floats(min_value=0.001, max_value=60.0, allow_nan=False),
    seed=st.integers(min_value=0, max_value=2**16),
)
@settings(deadline=None)
def test_backoff_delay_is_bounded_exponential_with_jitter(
    retry, base, cap, seed
):
    delay = backoff_delay(retry, base, cap, random.Random(seed))
    raw = min(cap, base * 2.0 ** (retry - 1))
    assert 0.5 * raw <= delay < 1.5 * raw
    assert delay <= 1.5 * cap


# ---------------------------------------------------------------------------
# Spool round-trip
# ---------------------------------------------------------------------------


@given(
    seed=st.integers(min_value=0, max_value=2**63 - 1),
    record_history=st.booleans(),
    engine=st.sampled_from((None, "reference", "batched")),
    model_name=st.sampled_from(PAPER_MODELS),
)
@settings(max_examples=40, deadline=None)
def test_run_request_round_trips_through_spool_pickle(
    tiny_spec, seed, record_history, engine, model_name
):
    request = RunRequest(
        model=create_model(model_name),
        spec=tiny_spec,
        seed=seed,
        record_history=record_history,
        engine=engine,
    )
    loaded = pickle.loads(
        pickle.dumps(request, protocol=pickle.HIGHEST_PROTOCOL)
    )
    assert loaded.seed == request.seed
    assert loaded.record_history == request.record_history
    assert loaded.engine == request.engine
    assert loaded.spec == request.spec
    # The cache fingerprint is the identity that matters: a worker's
    # cache write for the deserialized request must land on the exact
    # key the coordinator computed for the original.
    assert loaded.fingerprint() == request.fingerprint()
