"""Bit-identical resume property tests (DESIGN.md §9 acceptance).

The contract under test: kill a run at *any* step, resume it from its
latest valid snapshot with a fresh generator seeded the same way, and
the completed run is **byte-for-byte identical** to one that was never
interrupted — transactions, final pool, trace counters and recorded
history alike.  Hypothesis drives the kill step and snapshot period so
every alignment is exercised: kill on a snapshot boundary, kill one
step after, kill before the first snapshot ever lands (resume then
falls back to a fresh start), kill past the end of the run (no kill
fires at all).

The kill primitive (:func:`repro.runtime.checkpoint._hard_exit`) is
monkeypatched to raise a sentinel, so hundreds of crashes run
in-process; the store still sees exactly the on-disk state a real
``os._exit`` leaves.
"""

from __future__ import annotations

import pickle

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import repro.runtime.checkpoint as checkpoint_module
from repro.models.batched import run_batched
from repro.models.registry import create_model
from repro.rng import rng_from_seed
from repro.runtime import CheckpointStore, RunCheckpointer


class Killed(BaseException):
    """Sentinel standing in for ``os._exit`` under the monkeypatch.

    Derives from ``BaseException`` so no engine ``except Exception``
    can swallow it — just as nothing swallows a real process death.
    """


@pytest.fixture(autouse=True)
def _in_process_kills(monkeypatch):
    monkeypatch.setattr(
        checkpoint_module, "_hard_exit",
        lambda code: (_ for _ in ()).throw(Killed()),
    )


def _signature(run) -> bytes:
    return pickle.dumps(
        (run.transactions, run.final_pool_size, run.initial_recipes,
         run.trace, run.history),
        protocol=pickle.HIGHEST_PROTOCOL,
    )


_MODELS = ("CM-R", "CM-C")  # copy-only and copy-mutate paths
_SETTINGS = settings(
    max_examples=12,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)


@_SETTINGS
@given(
    model_name=st.sampled_from(_MODELS),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
    every=st.integers(min_value=1, max_value=7),
    kill_at=st.integers(min_value=1, max_value=400),
    record_history=st.booleans(),
)
def test_single_run_resume_is_bit_identical(
    tiny_spec, tmp_path_factory, model_name, seed, every, kill_at,
    record_history,
):
    """The default ``model.run`` path (a batched run of one)."""
    model = create_model(model_name)
    assert model.resolve_engine() == "batched"
    uninterrupted = model.run(
        tiny_spec, seed=seed, record_history=record_history
    )

    directory = tmp_path_factory.mktemp("ckpt")
    store = CheckpointStore(directory)
    first = RunCheckpointer(store, "run", every=every, kill_at_step=kill_at)
    try:
        killed = model.run(
            tiny_spec, seed=seed,
            record_history=record_history, checkpointer=first,
        )
    except Killed:
        second = RunCheckpointer(store, "run", every=every)
        resumed = model.run(
            tiny_spec, seed=seed,
            record_history=record_history, checkpointer=second,
        )
        if second.resumed_from_step is not None:
            # A resume really happened, at or before the kill point (the
            # snapshot-then-kill order means a snapshot-aligned kill
            # leaves a snapshot *of* the kill step itself).
            assert 0 < second.resumed_from_step <= kill_at
        assert _signature(resumed) == _signature(uninterrupted)
        second.finished()
    else:
        # The run ended before step kill_at: no kill, plain equality.
        assert _signature(killed) == _signature(uninterrupted)


@_SETTINGS
@given(
    model_name=st.sampled_from(_MODELS),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
    every=st.integers(min_value=1, max_value=5),
    kill_at=st.integers(min_value=1, max_value=250),
    n_runs=st.integers(min_value=1, max_value=3),
)
def test_batched_resume_is_bit_identical(
    tiny_spec, tmp_path_factory, model_name, seed, every, kill_at, n_runs
):
    model = create_model(model_name, engine="batched")
    rngs = lambda: [rng_from_seed(seed + i) for i in range(n_runs)]  # noqa: E731
    uninterrupted = run_batched(model, tiny_spec, rngs(), record_history=True)

    directory = tmp_path_factory.mktemp("ckpt")
    store = CheckpointStore(directory)
    first = RunCheckpointer(store, "batch", every=every, kill_at_step=kill_at)
    try:
        killed = run_batched(
            model, tiny_spec, rngs(), record_history=True,
            checkpointer=first,
        )
    except Killed:
        second = RunCheckpointer(store, "batch", every=every)
        resumed = run_batched(
            model, tiny_spec, rngs(), record_history=True,
            checkpointer=second,
        )
        assert [_signature(r) for r in resumed] == [
            _signature(r) for r in uninterrupted
        ]
        second.finished()
    else:
        assert [_signature(r) for r in killed] == [
            _signature(r) for r in uninterrupted
        ]


def test_resume_survives_corrupt_newest_snapshot(tiny_spec, tmp_path):
    """Corrupt the newest snapshot: resume falls back and still matches."""
    import warnings

    model = create_model("CM-C")
    seed = 20190408
    uninterrupted = model.run(tiny_spec, seed=seed)

    store = CheckpointStore(tmp_path)
    first = RunCheckpointer(store, "run", every=3, kill_at_step=9)
    with pytest.raises(Killed):
        model.run(tiny_spec, seed=seed, checkpointer=first)
    steps = store.steps("run")
    assert len(steps) == 2, "kill at step 9 with every=3 must leave 9 and 6"
    newest = store.path_for("run", steps[0])
    newest.write_bytes(b"bit rot")

    second = RunCheckpointer(store, "run", every=3)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # the corruption warning
        resumed = model.run(
            tiny_spec, seed=seed, checkpointer=second
        )
    # Fell back to the older snapshot, not a fresh start...
    assert second.resumed_from_step == steps[1]
    # ...and the result is still bit-identical.
    assert _signature(resumed) == _signature(uninterrupted)


def test_resume_with_all_snapshots_corrupt_restarts_fresh(
    tiny_spec, tmp_path
):
    import warnings

    model = create_model("CM-R")
    seed = 7
    uninterrupted = model.run(tiny_spec, seed=seed)

    store = CheckpointStore(tmp_path)
    first = RunCheckpointer(store, "run", every=2, kill_at_step=8)
    with pytest.raises(Killed):
        model.run(tiny_spec, seed=seed, checkpointer=first)
    for step in store.steps("run"):
        store.path_for("run", step).write_bytes(b"gone")

    second = RunCheckpointer(store, "run", every=2)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        resumed = model.run(
            tiny_spec, seed=seed, checkpointer=second
        )
    assert second.resumed_from_step is None  # fresh start
    assert _signature(resumed) == _signature(uninterrupted)
