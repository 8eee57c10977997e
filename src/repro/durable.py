"""How a file reaches disk: the one primitive under every on-disk store.

Caches (DESIGN.md §5, §6), the spool (§8) and JSONL corpora all write
through :func:`atomic_write`: bytes go to ``<final name>.tmp.<pid>``
and land by :func:`os.replace`, so a reader sees the old file, the new
one or none.  A failed write unlinks its temp; a killed writer strands
it for :func:`orphan_temps` and :func:`sweep`.  Whether a write is
fsynced (file before the rename, directory after it) is a fixed fact
about each store: corpora are; caches (recomputable) and the spool
(recovered by leases) are not.

Pickled store entries sit in a SHA-256 frame (:func:`dump_framed` /
:func:`load_framed`).  The payload is pickled at protocol 5 with its
array data out of band, and the frame lays out, in order: a header
(magic, format version, buffer count, metadata length, digest), a table
of the buffer sizes, the pickle's metadata stream, then each buffer's
raw bytes.  The digest is one SHA-256 over the header fields before it,
the table, the metadata and the buffers.  A reader reads each buffer
into a :class:`bytearray` of its own, so the unpickled arrays use those
bytes without a further copy and no read spans the whole file.  Every
failure maps to one shared kind — ``torn``, ``checksum-mismatch`` or
``format-version`` — and :func:`quarantine` evicts a failed entry and
records a :class:`~repro.runtime.events.CacheCorruption` in the runtime
event log.
"""

from __future__ import annotations

import hashlib
import os
import pickle
import struct
from contextlib import contextmanager
from pathlib import Path
from typing import BinaryIO, Iterable, Iterator

from repro.runtime import events

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

#: Frame header: magic, format version, buffer count, metadata length
#: and SHA-256.  The digest covers the fields before it, then the buffer
#: size table, the metadata and the buffers.
_FRAME_MAGIC = b"RPFRAME\x02"
_FRAME_HEADER = struct.Struct("<8sIIQ32s")
_FRAME_FIELDS = struct.Struct("<8sIIQ")
#: Every frame magic starts with this; another last byte is another
#: layout of the frame, not a foreign file.
_FRAME_FAMILY = _FRAME_MAGIC[:7]


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
    """Pickle ``payload`` into ``handle`` inside a checksum frame.

    Array data is pickled out of band and written straight from the
    arrays' memory, so no copy of it is made.  The payload is pickled
    before anything is written.
    """
    buffers: list[pickle.PickleBuffer] = []
    meta = pickle.dumps(payload, protocol=5, buffer_callback=buffers.append)
    raw = [buffer.raw() for buffer in buffers]
    fields = _FRAME_FIELDS.pack(_FRAME_MAGIC, version, len(raw), len(meta))
    table = struct.pack(f"<{len(raw)}Q", *(view.nbytes for view in raw))
    hasher = hashlib.sha256(fields)
    for part in (table, meta, *raw):
        hasher.update(part)
    handle.write(fields + hasher.digest())
    for part in (table, meta, *raw):
        handle.write(part)


def _read_exactly(handle: BinaryIO, size: int, what: str) -> bytearray:
    """``size`` bytes from ``handle`` in a fresh buffer, or a torn error."""
    data = bytearray(size)
    view = memoryview(data)
    filled = 0
    while filled < size:
        count = handle.readinto(view[filled:])
        if not count:
            raise CorruptFileError(TORN, f"{what} ends after {filled} of {size} bytes")
        filled += count
    return data


def load_framed(path: Path, version: int) -> object:
    """Read and unpickle a file written by :func:`dump_framed`.

    The sizes the header and table declare are checked against the
    file's size before any buffer is allocated, and each buffer is read
    into its own :class:`bytearray` and hashed as it arrives.

    Raises:
        FileNotFoundError: If ``path`` does not exist (a plain miss).
        CorruptFileError: If the file exists but is not an intact
            frame of ``version`` whose payload unpickles.
    """
    try:
        handle = path.open("rb", buffering=0)
    except FileNotFoundError:
        raise
    except OSError as exc:
        raise CorruptFileError(TORN, f"{type(exc).__name__}: {exc}") from exc
    try:
        with handle:
            meta, buffers = _read_frame(handle, version)
    except OSError as exc:
        raise CorruptFileError(TORN, f"{type(exc).__name__}: {exc}") from exc
    try:
        return pickle.loads(meta, buffers=buffers)
    except Exception as exc:  # intact bytes this code cannot load
        detail = f"{type(exc).__name__}: {exc}"
        raise CorruptFileError(FORMAT_VERSION, detail) from exc


def _read_frame(
    handle: BinaryIO, version: int
) -> tuple[bytearray, list[bytearray]]:
    """The verified metadata and buffers of one open frame file."""
    size = os.fstat(handle.fileno()).st_size
    if size < _FRAME_HEADER.size:
        raise CorruptFileError(TORN, f"{size} bytes, no frame header")
    header = _read_exactly(handle, _FRAME_HEADER.size, "header")
    magic, found, count, meta_size, digest = _FRAME_HEADER.unpack(header)
    if not magic.startswith(_FRAME_FAMILY):
        raise CorruptFileError(TORN, "no frame magic")
    if magic != _FRAME_MAGIC:
        raise CorruptFileError(FORMAT_VERSION, f"frame layout {magic[7]}")
    if found != version:
        raise CorruptFileError(FORMAT_VERSION, f"version {found} != {version}")
    table_size = 8 * count
    if _FRAME_HEADER.size + table_size + meta_size > size:
        raise CorruptFileError(
            TORN, f"{size} bytes cannot hold {count} buffer sizes and "
            f"{meta_size} metadata bytes"
        )
    table = _read_exactly(handle, table_size, "size table")
    sizes = struct.unpack(f"<{count}Q", table)
    expected = _FRAME_HEADER.size + table_size + meta_size + sum(sizes)
    if expected != size:
        raise CorruptFileError(TORN, f"{size} bytes, frame declares {expected}")
    hasher = hashlib.sha256(header[:_FRAME_FIELDS.size])
    hasher.update(table)
    meta = _read_exactly(handle, meta_size, "metadata")
    hasher.update(meta)
    buffers = []
    for position, buffer_size in enumerate(sizes):
        buffer = _read_exactly(handle, buffer_size, f"buffer {position}")
        hasher.update(buffer)
        buffers.append(buffer)
    if hasher.digest() != digest:
        raise CorruptFileError(CHECKSUM_MISMATCH, "frame digest mismatch")
    return meta, buffers


def quarantine(store: str, path: Path, error: CorruptFileError) -> str:
    """Evict a corrupt entry and record it.

    Returns the recorded action: ``"removed"`` or, when the filesystem
    refuses, ``"left in place"``.
    """
    try:
        path.unlink(missing_ok=True)
        action = "removed"
    except OSError:
        action = "left in place"
    events.record(events.CacheCorruption(
        store=store, path=str(path), kind=error.kind, detail=error.detail,
        action=action,
    ))
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
