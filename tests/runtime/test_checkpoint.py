"""Checkpoint store and cache-integrity tests (DESIGN.md §9).

The store's promise is narrow and absolute: :meth:`CheckpointStore.put`
either lands a complete, checksummed snapshot or leaves only a temp
file, and :meth:`CheckpointStore.latest` never returns bytes that fail
a check — torn, truncated, bit-flipped and version-skewed snapshots are
quarantined with a recorded :class:`CacheCorruption` and the scan falls
back to the next older one.  The run-cache side of the same contract
(corrupt entries evicted loudly, orphan temps swept) is covered here
too, because the two stores share the crash-consistency discipline.
"""

from __future__ import annotations

import pytest

from repro import durable
from repro.errors import RunCacheError
from repro.runtime import (
    CHECKPOINT_FORMAT_VERSION,
    CacheCorruptionWarning,
    CheckpointPolicy,
    CheckpointStore,
    RunCache,
    RunCheckpointer,
    cache_corruptions,
    clear_cache_corruptions,
    clear_resume_events,
    resume_events,
)
from repro.runtime.checkpoint import (
    KEEP_SNAPSHOTS,
    QUARANTINE_SUFFIX,
    arm_kill_at_step,
    consume_armed_kill,
    disarm_kill,
)


@pytest.fixture(autouse=True)
def _clean_records():
    clear_cache_corruptions()
    clear_resume_events()
    disarm_kill()
    yield
    clear_cache_corruptions()
    clear_resume_events()
    disarm_kill()


# ---------------------------------------------------------------------------
# Store round-trip, retention, lifecycle
# ---------------------------------------------------------------------------


def test_put_latest_round_trip(tmp_path):
    store = CheckpointStore(tmp_path)
    payload = {"step": 3, "planes": [1.0, 2.0], "rng": b"\x00\x01"}
    store.put("runA", 3, payload)
    assert store.latest("runA") == (3, payload)
    # Keys are isolated from each other.
    assert store.latest("runB") is None


def test_retention_keeps_newest_snapshots(tmp_path):
    store = CheckpointStore(tmp_path)
    for step in (2, 4, 6, 8):
        store.put("run", step, {"at": step})
    assert store.steps("run") == (8, 6)
    assert len(store.steps("run")) == KEEP_SNAPSHOTS
    assert store.latest("run") == (8, {"at": 8})


def test_discard_and_len(tmp_path):
    store = CheckpointStore(tmp_path)
    store.put("a", 1, "x")
    store.put("b", 1, "y")
    assert len(store) == 2
    assert store.discard("a") == 1
    assert len(store) == 1
    assert store.latest("a") is None


def test_put_rejects_nonpositive_step(tmp_path):
    store = CheckpointStore(tmp_path)
    with pytest.raises(RunCacheError, match=">= 1"):
        store.put("run", 0, "x")


def test_store_rejects_file_path(tmp_path):
    blocker = tmp_path / "not-a-dir"
    blocker.write_text("x")
    with pytest.raises(RunCacheError, match="not a\n?.*directory"):
        CheckpointStore(blocker)


def test_policy_validation():
    with pytest.raises(RunCacheError, match=">= 1"):
        CheckpointPolicy(directory="d", every=0)
    assert CheckpointPolicy(directory="d", every=5).every == 5


# ---------------------------------------------------------------------------
# Corruption: quarantine, fall-back, structured records
# ---------------------------------------------------------------------------


def test_bit_flip_quarantines_and_falls_back(tmp_path):
    store = CheckpointStore(tmp_path)
    store.put("run", 4, {"at": 4})
    path = store.put("run", 8, {"at": 8})
    blob = bytearray(path.read_bytes())
    blob[-10] ^= 0xFF  # flip a bit inside the pickled payload
    path.write_bytes(bytes(blob))

    with pytest.warns(CacheCorruptionWarning):
        assert store.latest("run") == (4, {"at": 4})
    assert not path.exists()
    quarantined = list(tmp_path.glob(f"*{QUARANTINE_SUFFIX}"))
    assert len(quarantined) == 1
    events = cache_corruptions()
    assert len(events) == 1
    assert events[0].store == "CheckpointStore"
    assert events[0].action == "quarantined"


def test_truncated_snapshot_is_torn(tmp_path):
    store = CheckpointStore(tmp_path)
    path = store.put("run", 2, {"at": 2})
    path.write_bytes(path.read_bytes()[: len(path.read_bytes()) // 2])
    with pytest.warns(CacheCorruptionWarning):
        assert store.latest("run") is None
    assert cache_corruptions()[0].kind == durable.TORN


def test_format_version_mismatch_discarded(tmp_path):
    store = CheckpointStore(tmp_path)
    path = store.path_for("run", 5)
    with path.open("wb") as handle:
        durable.dump_framed(handle, {"at": 5}, CHECKPOINT_FORMAT_VERSION + 1)
    with pytest.warns(CacheCorruptionWarning):
        assert store.latest("run") is None
    assert cache_corruptions()[0].kind == durable.FORMAT_VERSION


def test_every_snapshot_corrupt_means_fresh_start(tmp_path):
    store = CheckpointStore(tmp_path)
    for step in (3, 6):
        path = store.put("run", step, {"at": step})
        path.write_bytes(b"garbage")
    with pytest.warns(CacheCorruptionWarning):
        assert store.latest("run") is None  # restart from step 0
    assert len(cache_corruptions()) == 2
    assert len(list(tmp_path.glob(f"*{QUARANTINE_SUFFIX}"))) == 2


def test_corruption_warns_once_per_store_and_kind(tmp_path):
    store = CheckpointStore(tmp_path)
    path1 = store.put("a", 1, "x")
    path1.write_bytes(b"junk")
    with pytest.warns(CacheCorruptionWarning):
        store.latest("a")
    # Same (store, kind) again: recorded, but no second warning.
    path2 = store.put("b", 1, "y")
    path2.write_bytes(b"junk")
    import warnings

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        store.latest("b")
    assert len(cache_corruptions()) == 2


# ---------------------------------------------------------------------------
# Crash-window debris: orphan temps in both stores
# ---------------------------------------------------------------------------


def test_checkpoint_orphan_tmp_cleanup(tmp_path):
    store = CheckpointStore(tmp_path)
    store.put("run", 2, {"at": 2})
    # A writer killed between temp write and rename leaves exactly this.
    orphan = tmp_path / "run.s00000004.ckpt.pkl.tmp.9999"
    orphan.write_bytes(b"half a snapshot")
    assert store.orphan_tmp_paths() == [orphan]
    # The orphan is invisible to reads...
    assert store.latest("run") == (2, {"at": 2})
    # ...and swept by clear() along with everything else.
    assert store.clear() == 2
    assert store.orphan_tmp_paths() == []
    assert store.latest("run") is None


def test_checkpoint_prune_sweeps_aged_tmp_and_quarantine(tmp_path):
    store = CheckpointStore(tmp_path)
    store.put("run", 2, {"at": 2})
    (tmp_path / "run.s00000004.ckpt.pkl.tmp.123").write_bytes(b"x")
    (tmp_path / "old.s00000001.ckpt.bad").write_bytes(b"y")
    # Nothing is old yet at age 1h.
    assert store.prune_older_than(3600.0) == 0
    # With a zero threshold everything goes.
    assert store.prune_older_than(0.0) == 3
    with pytest.raises(RunCacheError, match=">= 0"):
        store.prune_older_than(-1.0)


def test_run_cache_corrupt_entry_event_and_orphan_sweep(tmp_path):
    cache = RunCache(tmp_path)
    path = cache.path_for("deadbeef")
    path.write_bytes(b"not a pickle")
    with pytest.warns(CacheCorruptionWarning):
        assert cache.get("deadbeef") is None
    assert not path.exists()  # still evicted, as before
    events = cache_corruptions()
    assert len(events) == 1
    assert events[0].store == "RunCache"
    assert events[0].kind == durable.TORN
    assert events[0].action == "removed"

    # Crash-window temp: the same name put() would have used mid-write.
    orphan = durable.tmp_path_for(path)
    orphan.write_bytes(b"half an entry")
    assert cache.orphan_tmp_paths() == [orphan]
    assert cache.clear() == 1  # just the orphan; real entry already gone
    assert cache.orphan_tmp_paths() == []


def test_run_cache_prune_removes_aged_orphan_tmp(tmp_path):
    cache = RunCache(tmp_path)
    orphan = durable.tmp_path_for(cache.path_for("cafe"))
    orphan.write_bytes(b"x")
    assert cache.prune_older_than(3600.0) == 0  # too young
    assert orphan.exists()
    assert cache.prune_older_than(0.0) == 1
    assert not orphan.exists()


# ---------------------------------------------------------------------------
# RunCheckpointer behavior
# ---------------------------------------------------------------------------


def test_checkpointer_snapshots_on_period_and_discards(tmp_path):
    store = CheckpointStore(tmp_path)
    cp = RunCheckpointer(store, "run", every=3)
    taken = []
    for step in range(1, 8):
        cp.after_step(step, lambda s=step: taken.append(s) or {"at": s})
    assert taken == [3, 6]
    assert store.steps("run") == (6, 3)
    assert cp.resumed_from_step is None
    cp.finished()
    assert store.latest("run") is None


def test_checkpointer_resume_skips_resnapshot_of_loaded_step(tmp_path):
    store = CheckpointStore(tmp_path)
    store.put("run", 6, {"at": 6})
    cp = RunCheckpointer(store, "run", every=3)
    assert cp.load() == {"at": 6}
    assert cp.resumed_from_step == 6
    assert resume_events()[-1].step == 6
    captured = []
    # Steps at or before the loaded step must not re-snapshot (capture
    # would be wasted work; worse, it would churn retention).
    cp.after_step(6, lambda: captured.append(6))
    assert captured == []
    cp.after_step(9, lambda: {"at": 9})
    assert store.steps("run") == (9, 6)


def test_checkpointer_kill_trips_after_snapshot(tmp_path, monkeypatch):
    class Killed(BaseException):
        pass

    import repro.runtime.checkpoint as checkpoint_module

    monkeypatch.setattr(
        checkpoint_module, "_hard_exit",
        lambda code: (_ for _ in ()).throw(Killed()),
    )
    store = CheckpointStore(tmp_path)
    cp = RunCheckpointer(store, "run", every=2, kill_at_step=2)
    with pytest.raises(Killed):
        cp.after_step(2, lambda: {"at": 2})
    # Snapshot-then-kill: the aligned snapshot landed before death.
    assert store.steps("run") == (2,)


def test_arm_consume_disarm_latch():
    arm_kill_at_step(7)
    assert consume_armed_kill() == 7
    assert consume_armed_kill() is None  # consuming disarms
    arm_kill_at_step(3)
    disarm_kill()
    assert consume_armed_kill() is None
    with pytest.raises(RunCacheError, match=">= 1"):
        arm_kill_at_step(0)
