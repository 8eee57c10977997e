"""How a file reaches disk: the one primitive under every on-disk store.

Caches (DESIGN.md §5, §6), the spool (§8), checkpoints (§9) and ``.col``
corpora (§11) all write through :func:`atomic_write`: bytes go to
``<final name>.tmp.<pid>`` and land by :func:`os.replace`, so a reader
sees the old file, the new one or none.  A failed write unlinks its
temp; a killed writer strands it for :func:`orphan_temps` and
:func:`sweep`.  Whether a write is fsynced (file before the rename,
directory after it) is a fixed fact about each store: checkpoints and
corpora are; caches (recomputable) and the spool (recovered by leases)
are not.  Pickled store entries sit in a SHA-256 frame
(:func:`dump_framed` / :func:`load_framed`) whose every failure maps to
one shared kind — ``torn``, ``checksum-mismatch`` or
``format-version`` — and :func:`quarantine` takes a failed file out of
service and records it.
"""

from __future__ import annotations

import hashlib
import os
import pickle
import struct
from contextlib import contextmanager
from pathlib import Path
from typing import BinaryIO, Iterable, Iterator

from repro.runtime.integrity import record_corruption

__all__ = [
    "CHECKSUM_MISMATCH",
    "FORMAT_VERSION",
    "TORN",
    "CorruptFileError",
    "atomic_write",
    "dump_framed",
    "load_framed",
    "orphan_temps",
    "quarantine",
    "sweep",
    "tmp_path_for",
]

#: Corruption kinds shared by every store (``CacheCorruption.kind``):
#: the bytes end early, run long or are no valid file of the store;
#: they do not hash to their recorded digest; or they were written by
#: another format version (or intact, no longer load under this code).
TORN = "torn"
CHECKSUM_MISMATCH = "checksum-mismatch"
FORMAT_VERSION = "format-version"

#: Frame header: magic, format version, payload length, SHA-256.
_FRAME_MAGIC = b"RPFRAME\x01"
_FRAME_HEADER = struct.Struct("<8sIQ32s")


class CorruptFileError(Exception):
    """A stored file failed validation.

    Attributes:
        kind: :data:`TORN`, :data:`CHECKSUM_MISMATCH` or
            :data:`FORMAT_VERSION`.
        detail: What exactly failed, for the corruption record.
    """

    def __init__(self, kind: str, detail: str):
        super().__init__(f"{kind}: {detail}")
        self.kind = kind
        self.detail = detail


def tmp_path_for(path: Path) -> Path:
    """The temp name :func:`atomic_write` stages ``path`` under."""
    return path.with_name(f"{path.name}.tmp.{os.getpid()}")


def orphan_temps(directory: Path, pattern: str = "*") -> list[Path]:
    """Temps of files matching ``pattern`` in ``directory``, sorted."""
    return sorted(directory.glob(f"{pattern}.tmp.*"))


@contextmanager
def atomic_write(path: Path, *, durable: bool) -> Iterator[BinaryIO]:
    """Yield a binary handle whose bytes replace ``path`` on success.

    With ``durable``, the temp is fsynced before the rename and the
    parent directory after it.  Any exception unlinks the temp and
    propagates.
    """
    tmp = tmp_path_for(path)
    try:
        with tmp.open("wb") as handle:
            yield handle
            if durable:
                handle.flush()
                os.fsync(handle.fileno())
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    if durable:
        directory = os.open(path.parent, os.O_RDONLY)
        try:
            os.fsync(directory)
        finally:
            os.close(directory)


def dump_framed(handle: BinaryIO, payload: object, version: int) -> None:
    """Pickle ``payload`` into ``handle`` inside a checksum frame."""
    blob = pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)
    digest = hashlib.sha256(blob).digest()
    handle.write(_FRAME_HEADER.pack(_FRAME_MAGIC, version, len(blob), digest))
    handle.write(blob)


def load_framed(path: Path, version: int) -> object:
    """Read and unpickle a file written by :func:`dump_framed`.

    Raises:
        FileNotFoundError: If ``path`` does not exist (a plain miss).
        CorruptFileError: If the file exists but is not an intact
            frame of ``version`` whose payload unpickles.
    """
    try:
        data = path.read_bytes()
    except FileNotFoundError:
        raise
    except OSError as exc:
        raise CorruptFileError(TORN, f"{type(exc).__name__}: {exc}") from exc
    if len(data) < _FRAME_HEADER.size:
        raise CorruptFileError(TORN, f"{len(data)} bytes, no frame header")
    magic, found, length, digest = _FRAME_HEADER.unpack_from(data)
    if magic != _FRAME_MAGIC:
        raise CorruptFileError(TORN, "no frame magic")
    if found != version:
        raise CorruptFileError(FORMAT_VERSION, f"version {found} != {version}")
    blob = memoryview(data)[_FRAME_HEADER.size:]
    if len(blob) != length:
        raise CorruptFileError(TORN, f"{len(blob)} payload bytes, not {length}")
    if hashlib.sha256(blob).digest() != digest:
        raise CorruptFileError(CHECKSUM_MISMATCH, "payload digest mismatch")
    try:
        return pickle.loads(blob)
    except Exception as exc:  # intact bytes this code cannot load
        detail = f"{type(exc).__name__}: {exc}"
        raise CorruptFileError(FORMAT_VERSION, detail) from exc


def quarantine(
    store: str, path: Path, error: CorruptFileError, bad_path: Path | None
) -> str:
    """Take a corrupt file out of service and record it.

    ``bad_path`` is where the file is renamed for post-mortem
    (checkpoints, corpora); ``None`` evicts it (caches).  Returns the
    recorded action: ``"quarantined"``, ``"removed"`` or, when the
    filesystem refuses, ``"left in place"``.
    """
    try:
        if bad_path is None:
            path.unlink(missing_ok=True)
            action = "removed"
        else:
            os.replace(path, bad_path)
            action = "quarantined"
    except OSError:
        action = "left in place"
    record_corruption(store, path, error.kind, error.detail, action)
    return action


def sweep(paths: Iterable[Path], older_than: float | None = None) -> int:
    """Unlink ``paths``; returns how many were removed.

    With ``older_than`` (epoch seconds), only files last modified
    strictly before it go — a fresh temp may belong to a writer still
    inside :func:`atomic_write`.  Files that vanish or refuse removal
    mid-sweep are skipped.
    """
    removed = 0
    for path in paths:
        try:
            if older_than is None or path.stat().st_mtime < older_than:
                path.unlink()
                removed += 1
        except OSError:
            continue
    return removed
