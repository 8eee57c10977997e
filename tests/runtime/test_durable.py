"""Crash-window tests for every store built on :mod:`repro.durable`.

Each store's writer runs in a forked child that dies through
``os._exit`` — a real kill: no unwind, no ``finally``, no cleanup — at
one point of the write, selected by patching ``os.fsync`` or
``os.replace`` as :mod:`repro.durable` sees them:

* ``after-write``: the bytes are written, the file fsync has not run;
* ``after-fsync``: the file fsync ran, the rename has not;
* ``before-rename``: everything but the rename.

Only durable stores (checkpoints, corpora) reach an fsync, so caches
and the spool are killed in the last window only.  The parent then
asserts that the fault fired (the child's exit code), that a reader
sees the previous value or a miss and never a partial payload, and
that the stranded temp is listed and then swept.  The last test pins
the fsync policy itself.
"""

from __future__ import annotations

import os
import pickle
import stat
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np
import pytest

from repro import durable
from repro.runtime import (
    CheckpointStore,
    CurveCache,
    DistributedConfig,
    FaultPlan,
    FaultSpec,
    RunCache,
    RuntimeConfig,
    Spool,
    cache_corruptions,
    clear_cache_corruptions,
    compact_spool,
    run_worker,
    spool_stats,
)
from repro.runtime.distributed import (
    RESULT_SUFFIX,
    TASK_SUFFIX,
    DistributedExecutor,
    SpoolTask,
    _MapSession,
)
from repro.storage.columnar import ColumnarCorpus, pack_dataset

#: Exit code of a child killed inside its crash window.
KILLED = 97

WINDOWS = ("after-write", "after-fsync", "before-rename")

KEY = "ab" * 32
OLD = {"version": "old", "data": np.arange(50_000)}
NEW = {"version": "new", "data": np.arange(50_000) + 1}


@pytest.fixture(autouse=True)
def _clean_records():
    clear_cache_corruptions()
    yield
    clear_cache_corruptions()


def _same(payload: object, expected: dict) -> bool:
    return (
        isinstance(payload, dict)
        and payload["version"] == expected["version"]
        and np.array_equal(payload["data"], expected["data"])
    )


def _kill_in(window: str) -> None:
    """Make the next write in this process die inside ``window``."""
    real_fsync = os.fsync

    def die(*_args) -> None:
        os._exit(KILLED)

    def fsync_then_die(fd: int) -> None:
        real_fsync(fd)
        os._exit(KILLED)

    if window == "before-rename":
        durable.os.replace = die
    else:
        durable.os.fsync = die if window == "after-write" else fsync_then_die


def _run_killed(window: str, write: Callable[[], object]) -> int:
    """Run ``write`` in a child killed inside ``window``; its pid.

    Asserts the fault fired: a child that finished the write, or raised,
    exits with another code.
    """
    pid = os.fork()
    if pid == 0:  # pragma: no cover - runs in the child
        code = 0
        try:
            _kill_in(window)
            write()
        except BaseException:
            code = 1
        os._exit(code)
    _pid, status = os.waitpid(pid, 0)
    assert os.waitstatus_to_exitcode(status) == KILLED
    return pid


def _temp_of(final: Path, pid: int) -> Path:
    return final.with_name(f"{final.name}.tmp.{pid}")


def _spool_config(root: Path) -> RuntimeConfig:
    return RuntimeConfig(
        backend="distributed",
        distributed=DistributedConfig(spool_dir=root, local_workers=0),
    )


def _spool_tasks(root: Path) -> None:
    session = _MapSession(abs, [-1], DistributedExecutor(_spool_config(root)))
    session._serialize()
    session._respool_ready(time.time())


def _spool_one_task(root: Path) -> Path:
    spool = Spool(root).ensure()
    task = SpoolTask(index=0, fn=abs, item=-3)
    (spool.tasks / f"abcd1234-00000.a01{TASK_SUFFIX}").write_bytes(
        pickle.dumps(task)
    )
    return spool.results / f"abcd1234-00000{RESULT_SUFFIX}"


def _serve_one_task(root: Path) -> None:
    run_worker(root, worker_id="w1", max_tasks=1, idle_timeout=5.0)


@dataclass(frozen=True)
class Case:
    """One store under a crash: set up, write, then read and sweep."""

    windows: tuple[str, ...]
    #: Writes the previous value; returns the final path the killed
    #: write targets.
    prepare: Callable[[Path], Path]
    write: Callable[[Path], object]
    #: Asserts what a reader sees after the crash.
    read: Callable[[Path], None]
    #: The store's own listing of orphan temps.
    orphans: Callable[[Path], list[Path]]
    #: The store's own sweep; afterwards ``orphans`` must be empty.
    sweep: Callable[[Path], object]


def _prepare_run(directory: Path) -> Path:
    cache = RunCache(directory)
    cache.put(KEY, OLD)
    return cache.path_for(KEY)


def _read_run(directory: Path) -> None:
    assert _same(RunCache(directory).get(KEY), OLD)


def _read_curve(directory: Path) -> None:
    assert CurveCache(directory).get(KEY) is None


def _prepare_checkpoint(directory: Path) -> Path:
    store = CheckpointStore(directory)
    store.put(KEY, 4, OLD)
    return store.path_for(KEY, 8)


def _read_checkpoint(directory: Path) -> None:
    found = CheckpointStore(directory).latest(KEY)
    assert found is not None and found[0] == 4 and _same(found[1], OLD)


def _read_spool_tasks(directory: Path) -> None:
    assert list(Spool(directory).tasks.glob(f"*{TASK_SUFFIX}")) == []


def _read_spool_results(directory: Path) -> None:
    assert list(Spool(directory).results.glob(f"*{RESULT_SUFFIX}")) == []


def _compact(directory: Path) -> None:
    compact_spool(directory, stale_after=1.0, now=time.time() + 3600.0)


def _spool_orphans(directory: Path) -> list[Path]:
    spool = Spool(directory)
    orphans = [
        path
        for folder in (spool.tasks, spool.results)
        for path in durable.orphan_temps(folder)
    ]
    assert spool_stats(directory).orphan_tmp == len(orphans)
    return orphans


CORPUS = "victim.col"


def _columnar_case(tiny_dataset) -> Case:
    recipes = tiny_dataset.recipes

    def prepare(directory: Path) -> Path:
        pack_dataset(tiny_dataset, directory / CORPUS).close()
        return directory / CORPUS

    def read(directory: Path) -> None:
        with ColumnarCorpus.open(directory / CORPUS, verify=True) as corpus:
            assert corpus.n_recipes == len(recipes)

    def orphans(directory: Path) -> list[Path]:
        return durable.orphan_temps(directory, f"{CORPUS}*")

    return Case(
        windows=WINDOWS,
        prepare=prepare,
        write=lambda directory: pack_dataset(recipes[:2], directory / CORPUS),
        read=read,
        orphans=orphans,
        sweep=lambda directory: durable.sweep(orphans(directory)),
    )


def _cases(tiny_dataset) -> dict[str, Case]:
    return {
        "run-cache": Case(
            windows=("before-rename",),
            prepare=_prepare_run,
            write=lambda d: RunCache(d).put(KEY, NEW),
            read=_read_run,
            orphans=lambda d: RunCache(d).orphan_tmp_paths(),
            sweep=lambda d: RunCache(d).clear(),
        ),
        "curve-cache": Case(
            windows=("before-rename",),
            prepare=lambda d: CurveCache(d).path_for(KEY),
            write=lambda d: CurveCache(d).put(KEY, NEW),
            read=_read_curve,
            orphans=lambda d: CurveCache(d).orphan_tmp_paths(),
            sweep=lambda d: CurveCache(d).clear(),
        ),
        "checkpoint": Case(
            windows=WINDOWS,
            prepare=_prepare_checkpoint,
            write=lambda d: CheckpointStore(d).put(KEY, 8, NEW),
            read=_read_checkpoint,
            orphans=lambda d: CheckpointStore(d).orphan_tmp_paths(),
            sweep=lambda d: CheckpointStore(d).clear(),
        ),
        "spool-task": Case(
            windows=("before-rename",),
            prepare=lambda d: Spool(d).ensure().tasks,
            write=_spool_tasks,
            read=_read_spool_tasks,
            orphans=_spool_orphans,
            sweep=_compact,
        ),
        "spool-result": Case(
            windows=("before-rename",),
            prepare=_spool_one_task,
            write=_serve_one_task,
            read=_read_spool_results,
            orphans=_spool_orphans,
            sweep=_compact,
        ),
        "columnar": _columnar_case(tiny_dataset),
    }


CRASHES = [
    ("run-cache", "before-rename"),
    ("curve-cache", "before-rename"),
    ("spool-task", "before-rename"),
    ("spool-result", "before-rename"),
    *(("checkpoint", window) for window in WINDOWS),
    *(("columnar", window) for window in WINDOWS),
]


@pytest.mark.parametrize(
    ("store", "window"), CRASHES, ids=[f"{s}-{w}" for s, w in CRASHES]
)
def test_killed_writer_leaves_previous_value_and_a_sweepable_orphan(
    store, window, tmp_path, tiny_dataset
):
    case = _cases(tiny_dataset)[store]
    assert window in case.windows
    final = case.prepare(tmp_path)
    pid = _run_killed(window, lambda: case.write(tmp_path))

    case.read(tmp_path)
    assert cache_corruptions() == ()  # nothing partial was ever visible
    orphans = case.orphans(tmp_path)
    assert orphans
    assert all(path.name.endswith(f".tmp.{pid}") for path in orphans)
    if final.is_dir():  # spool tasks: the name carries a session nonce
        assert [path.parent for path in orphans] == [final]
    else:
        assert _temp_of(final, pid) in orphans
    case.sweep(tmp_path)
    assert case.orphans(tmp_path) == []


def _record_disk_calls(monkeypatch) -> list[str]:
    calls: list[str] = []
    real_fsync, real_replace = os.fsync, os.replace

    def fsync(fd: int) -> None:
        is_dir = stat.S_ISDIR(os.fstat(fd).st_mode)
        calls.append("fsync-dir" if is_dir else "fsync-file")
        real_fsync(fd)

    def replace(source, target) -> None:
        calls.append("replace")
        real_replace(source, target)

    monkeypatch.setattr(durable.os, "fsync", fsync)
    monkeypatch.setattr(durable.os, "replace", replace)
    return calls


DURABLE_WRITE = ["fsync-file", "replace", "fsync-dir"]

POLICY = {
    "run-cache": ["replace"],
    "curve-cache": ["replace"],
    "spool-task": ["replace"],
    "spool-result": ["replace"],
    "checkpoint": DURABLE_WRITE,
    "columnar": DURABLE_WRITE,
}


@pytest.mark.parametrize("store", sorted(POLICY))
def test_fsync_policy_is_fixed_per_store(
    store, tmp_path, tiny_dataset, monkeypatch
):
    """Durable stores fsync the file before the rename and the
    directory after it; caches and the spool never fsync."""
    case = _cases(tiny_dataset)[store]
    case.prepare(tmp_path)
    calls = _record_disk_calls(monkeypatch)
    case.write(tmp_path)
    assert calls == POLICY[store]


def test_fault_plan_save_is_atomic_without_fsync(tmp_path, monkeypatch):
    calls = _record_disk_calls(monkeypatch)
    plan = FaultPlan(faults=(FaultSpec(action="kill"),))
    path = plan.save(tmp_path / "faults.json")
    assert calls == ["replace"]
    assert FaultPlan.load(path) == plan


def test_failed_write_unlinks_its_temp(tmp_path):
    target = tmp_path / "entry"
    with pytest.raises(RuntimeError):
        with durable.atomic_write(target, durable=True) as handle:
            handle.write(b"partial")
            raise RuntimeError("disk full")
    assert list(tmp_path.iterdir()) == []
