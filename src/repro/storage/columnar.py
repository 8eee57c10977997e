"""Memory-mapped columnar corpus store (DESIGN.md §11).

The object path — :class:`~repro.corpus.dataset.RecipeDataset` over
Python :class:`~repro.corpus.recipe.Recipe` tuples, whole-corpus pickles
in :mod:`repro.corpus.io` — loads everything eagerly, which is fine at
the paper's ~23k recipes per cuisine and fatal at the 100×–1000×
synthetic worlds the ROADMAP targets.  This module stores a corpus as a
handful of flat numpy *planes* in one file, opened with ``np.memmap`` so
corpus build, mining and stats stream in bounded memory:

* ``indptr``/``indices`` — CSR-style ragged ingredient-id arrays: recipe
  ``r``'s sorted ids are ``indices[indptr[r]:indptr[r + 1]]``.
  ``indices`` is int32; ``indptr`` is int32 while the total item count
  fits and promotes to int64 above ``2**31 - 1`` occurrences.
* ``recipe_ids`` (int64) and ``region_index`` (uint16, indexing the
  footer's region-code table) — per-recipe identity, preserving the
  exact dataset order so the round trip is lossless.
* ``title_offsets``/``title_bytes`` (and ``source_*``) — optional UTF-8
  blob planes for the carried text fields.
* ``bititems:<code>``/``bits:<code>`` — optional per-cuisine packed-bit
  transaction planes in exactly the ``np.packbits`` layout of
  :mod:`repro.analysis.itemsets` (row = ingredient, bit = recipe
  membership), so the miner reads them zero-copy without
  round-tripping through ``Recipe`` objects.

The container is a single file: planes 64-byte aligned back to back, a
JSON *footer* describing them (dtype/shape/offset plus a SHA-256 per
plane and :data:`COLUMNAR_FORMAT_VERSION`), and a fixed trailer holding
the footer's offset and digest.  Planes are staged to temp files and
the container is assembled through :func:`repro.durable.atomic_write`
with ``durable=True`` (fsync of file and directory around the rename),
so a crashed packer leaves orphan temps, never a readable half-corpus.
A file whose trailer, footer or (under ``verify=True``) plane digests
fail validation is **quarantined** (:func:`repro.durable.quarantine`:
renamed to ``*.bad`` and recorded as ``torn``, ``checksum-mismatch``
or ``format-version``) instead of parsed into garbage.

Memmap lifetime rule: every array a :class:`ColumnarCorpus` hands out is
a read-only view into the mapping — keep the corpus open while you use
them, and treat them as immutable.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator, Sequence

import numpy as np

from repro import durable
from repro.corpus.dataset import RecipeDataset
from repro.corpus.recipe import Recipe
from repro.corpus.stats import CorpusStats, CuisineStats
from repro.errors import EmptyCorpusError, StorageError

__all__ = [
    "COLUMNAR_FORMAT_VERSION",
    "COLUMNAR_SUFFIX",
    "ColumnarCorpus",
    "ColumnarDiskStats",
    "ColumnarWriter",
    "PackedTransactions",
    "PlaneStats",
    "pack_dataset",
]

#: Bump when the plane set, the footer layout or any plane's encoding
#: changes; older files are then rejected as ``format-version``
#: mismatches instead of being misread.
COLUMNAR_FORMAT_VERSION = 1

#: Conventional file extension for packed corpora.
COLUMNAR_SUFFIX = ".col"

#: Leading file magic (identifies the container before any parsing).
_MAGIC = b"RPCOL\x00\x01\n"

#: Trailer magic, offset, length and footer digest — fixed size so the
#: reader can always find the footer from the end of the file.
_TRAILER_MAGIC = b"RPCOLEND"
_TRAILER_SIZE = 8 + 8 + 8 + 32

#: Plane start alignment within the container.
_ALIGN = 64

#: Bytes hashed/copied per step on the streaming write and verify paths.
_IO_CHUNK = 8 << 20

#: Recipes per block when building packed-bit planes and gathering
#: CSR rows — bounds peak memory to ``n_items × _COL_BLOCK`` booleans.
_COL_BLOCK = 1 << 16


def _align(offset: int) -> int:
    return (offset + _ALIGN - 1) // _ALIGN * _ALIGN


def _sha256_array(array: np.ndarray) -> str:
    """Streaming SHA-256 over an array's raw bytes (memmap-friendly)."""
    hasher = hashlib.sha256()
    flat = array.reshape(-1).view(np.uint8)
    for start in range(0, flat.size, _IO_CHUNK):
        hasher.update(flat[start:start + _IO_CHUNK].tobytes())
    return hasher.hexdigest()


def _gather_csr(
    indptr: np.ndarray, indices: np.ndarray, rows: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Lengths and concatenated id runs for ``rows``, fully vectorized.

    Returns:
        ``(lengths, flat)`` where ``flat`` concatenates each row's
        ``indices`` slice in row order.
    """
    starts = indptr[rows].astype(np.int64, copy=False)
    lengths = (indptr[rows + 1] - indptr[rows]).astype(np.int64, copy=False)
    total = int(lengths.sum())
    if total == 0:
        return lengths, np.empty(0, dtype=indices.dtype)
    first = np.cumsum(lengths) - lengths
    positions = (
        np.arange(total, dtype=np.int64)
        - np.repeat(first, lengths)
        + np.repeat(starts, lengths)
    )
    return lengths, np.asarray(indices)[positions]


# ---------------------------------------------------------------------------
# Writer
# ---------------------------------------------------------------------------


class _Stage:
    """One plane staged to an append-only temp file during a write."""

    def __init__(self, path: Path, dtype: np.dtype):
        self.path = path
        self.dtype = np.dtype(dtype)
        self.count = 0
        self._handle = path.open("wb")

    def append(self, array: np.ndarray) -> None:
        data = np.ascontiguousarray(array, dtype=self.dtype)
        self._handle.write(data.tobytes())
        self.count += data.size

    def finish(self) -> np.ndarray:
        """Close the stage and memmap its contents read-only."""
        self._handle.close()
        if self.count == 0:
            return np.empty(0, dtype=self.dtype)
        return np.memmap(
            self.path, dtype=self.dtype, mode="r", shape=(self.count,)
        )

    def discard(self) -> None:
        if not self._handle.closed:
            self._handle.close()
        self.path.unlink(missing_ok=True)


class ColumnarWriter:
    """Streaming chunked writer of one columnar corpus file.

    Recipes arrive in chunks (:meth:`add_recipes` for object input,
    :meth:`add_chunk` for the array fast path the synthetic world
    generator uses); per-recipe planes are staged to temp files beside
    the target, so peak memory is bounded by the chunk size plus O(one
    int per recipe), never by the corpus.  :meth:`close` assembles the
    final container through :func:`repro.durable.atomic_write` with
    ``durable=True`` (temp, fsync, rename, directory fsync).

    Args:
        path: Target file (conventionally ``*.col``).
        store_text: Write the title/source blob planes.  Costs space
            proportional to the text; disable for huge synthetic worlds
            whose titles are procedural anyway.
        bitplanes: Build per-cuisine packed-bit transaction planes at
            close (the zero-copy mining input).  Adds roughly
            ``n_cuisine_items × n_recipes / 8`` bytes per cuisine.

    Raises:
        StorageError: On invalid chunks, duplicate recipe ids, or a
            failed final assembly.
    """

    def __init__(
        self,
        path: str | Path,
        *,
        store_text: bool = True,
        bitplanes: bool = True,
    ):
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self.store_text = bool(store_text)
        self.bitplanes = bool(bitplanes)
        self._closed = False
        self._region_codes: list[str] = []
        self._region_of: dict[str, int] = {}
        self._lengths: list[np.ndarray] = []
        self._stages: dict[str, _Stage] = {
            "indices": _Stage(self._stage_path("indices"), np.int32),
            "recipe_ids": _Stage(self._stage_path("ids"), np.int64),
            "region_index": _Stage(self._stage_path("regions"), np.uint16),
        }
        if self.store_text:
            for field in ("title", "source"):
                self._stages[f"{field}_bytes"] = _Stage(
                    self._stage_path(field), np.uint8
                )
                self._stages[f"{field}_lens"] = _Stage(
                    self._stage_path(f"{field}len"), np.int64
                )

    def _stage_path(self, label: str) -> Path:
        """Temp file one plane is staged in before assembly."""
        return durable.tmp_path_for(
            self.path.with_name(f"{self.path.name}.{label}")
        )

    # -- input paths ----------------------------------------------------

    def _region_row(self, region_code: str) -> int:
        row = self._region_of.get(region_code)
        if row is None:
            row = len(self._region_codes)
            if row > np.iinfo(np.uint16).max:
                raise StorageError(
                    "columnar corpus supports at most 65536 regions"
                )
            self._region_of[region_code] = row
            self._region_codes.append(region_code)
        return row

    def add_chunk(
        self,
        region_code: str,
        lengths: np.ndarray,
        flat_ids: np.ndarray,
        recipe_ids: np.ndarray,
        titles: Sequence[str] | None = None,
        sources: Sequence[str] | None = None,
    ) -> None:
        """Append one single-region chunk from flat arrays.

        Args:
            region_code: Region every recipe of the chunk belongs to.
            lengths: ``(k,)`` per-recipe ingredient counts (each >= 1).
            flat_ids: Concatenated per-recipe ingredient ids, each
                recipe's run strictly increasing (the ``Recipe``
                invariant), values in ``[0, 2**31)``.
            recipe_ids: ``(k,)`` recipe ids.
            titles: Optional per-recipe titles (required length ``k``
                when the writer stores text).
            sources: Optional per-recipe source keys.
        """
        if self._closed:
            raise StorageError("writer is closed")
        lengths = np.asarray(lengths, dtype=np.int64)
        flat_ids = np.asarray(flat_ids)
        recipe_ids = np.asarray(recipe_ids, dtype=np.int64)
        if lengths.size != recipe_ids.size:
            raise StorageError(
                f"chunk mismatch: {lengths.size} lengths vs "
                f"{recipe_ids.size} recipe ids"
            )
        if int(lengths.sum()) != flat_ids.size:
            raise StorageError(
                f"chunk mismatch: lengths sum to {int(lengths.sum())} but "
                f"{flat_ids.size} ids given"
            )
        if lengths.size and int(lengths.min()) < 1:
            raise StorageError("every recipe needs at least one ingredient")
        if flat_ids.size:
            if int(flat_ids.min()) < 0 or int(flat_ids.max()) > np.iinfo(
                np.int32
            ).max:
                raise StorageError(
                    "ingredient ids must fit int32 and be non-negative"
                )
            # Within-recipe runs must be strictly increasing; the only
            # allowed non-increase is across a recipe boundary.
            deltas = np.diff(flat_ids.astype(np.int64))
            boundary = np.cumsum(lengths)[:-1] - 1
            interior = np.ones(deltas.size, dtype=bool)
            interior[boundary[boundary < deltas.size]] = False
            if np.any(deltas[interior] <= 0):
                raise StorageError(
                    "ingredient ids must be sorted and duplicate-free "
                    "within each recipe"
                )
        row = self._region_row(region_code)
        self._lengths.append(lengths)
        self._stages["indices"].append(flat_ids.astype(np.int32, copy=False))
        self._stages["recipe_ids"].append(recipe_ids)
        self._stages["region_index"].append(
            np.full(lengths.size, row, dtype=np.uint16)
        )
        if self.store_text:
            self._append_text("title", titles, lengths.size)
            self._append_text("source", sources, lengths.size)

    def _append_text(
        self, field: str, values: Sequence[str] | None, count: int
    ) -> None:
        if values is None:
            values = [""] * count
        if len(values) != count:
            raise StorageError(
                f"chunk mismatch: {count} recipes vs {len(values)} {field}s"
            )
        encoded = [value.encode("utf-8") for value in values]
        blob = b"".join(encoded)
        self._stages[f"{field}_bytes"].append(
            np.frombuffer(blob, dtype=np.uint8)
        )
        self._stages[f"{field}_lens"].append(
            np.fromiter((len(e) for e in encoded), dtype=np.int64, count=count)
        )

    def add_recipes(
        self, recipes: Iterable[Recipe], chunk_size: int = 8192
    ) -> None:
        """Append recipes (any regions, dataset order preserved)."""
        buffer: list[Recipe] = []
        for recipe in recipes:
            buffer.append(recipe)
            if len(buffer) >= chunk_size:
                self._flush_recipes(buffer)
                buffer = []
        if buffer:
            self._flush_recipes(buffer)

    def _flush_recipes(self, recipes: list[Recipe]) -> None:
        # Group consecutive same-region runs so add_chunk's single-region
        # contract holds while arbitrary interleavings round-trip.
        start = 0
        for stop in range(1, len(recipes) + 1):
            if (
                stop == len(recipes)
                or recipes[stop].region_code != recipes[start].region_code
            ):
                run = recipes[start:stop]
                lengths = np.fromiter(
                    (r.size for r in run), dtype=np.int64, count=len(run)
                )
                flat = np.fromiter(
                    (i for r in run for i in r.ingredient_ids),
                    dtype=np.int64,
                    count=int(lengths.sum()),
                )
                self.add_chunk(
                    run[0].region_code,
                    lengths,
                    flat,
                    np.fromiter(
                        (r.recipe_id for r in run),
                        dtype=np.int64,
                        count=len(run),
                    ),
                    titles=[r.title for r in run] if self.store_text else None,
                    sources=(
                        [r.source for r in run] if self.store_text else None
                    ),
                )
                start = stop

    # -- assembly -------------------------------------------------------

    def abort(self) -> None:
        """Discard all staged state without writing the target."""
        if self._closed:
            return
        self._closed = True
        for stage in self._stages.values():
            stage.discard()

    def __enter__(self) -> "ColumnarWriter":
        return self

    def __exit__(self, exc_type, _exc, _tb) -> None:
        if exc_type is not None:
            self.abort()
        elif not self._closed:
            self.close()

    def close(self) -> Path:
        """Assemble and atomically publish the container; returns the path."""
        if self._closed:
            raise StorageError("writer is closed")
        self._closed = True
        bit_stages: list[Path] = []
        try:
            planes = self._assemble_planes()
            bit_stages = [
                Path(p) for _n, p, _d, _s in planes if isinstance(p, Path)
            ]
            self._write_container(planes)
        finally:
            for stage in self._stages.values():
                stage.discard()
            for path in bit_stages:
                path.unlink(missing_ok=True)
        return self.path

    def _assemble_planes(
        self,
    ) -> list[tuple[str, np.ndarray | Path, np.dtype, tuple[int, ...]]]:
        """Order every plane as (name, data-or-staged-path, dtype, shape)."""
        lengths = (
            np.concatenate(self._lengths)
            if self._lengths
            else np.empty(0, dtype=np.int64)
        )
        n = lengths.size
        total = int(lengths.sum())
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(lengths, out=indptr[1:])
        if total <= np.iinfo(np.int32).max:
            indptr = indptr.astype(np.int32)
        indices = self._stages["indices"].finish()
        recipe_ids = np.asarray(self._stages["recipe_ids"].finish())
        region_index = self._stages["region_index"].finish()
        unique_ids = np.unique(recipe_ids)
        if unique_ids.size != recipe_ids.size:
            raise StorageError("duplicate recipe ids in columnar corpus")

        planes: list[
            tuple[str, np.ndarray | Path, np.dtype, tuple[int, ...]]
        ] = [
            ("indptr", indptr, indptr.dtype, indptr.shape),
            ("indices", np.asarray(indices), np.dtype(np.int32), (total,)),
            ("recipe_ids", recipe_ids, np.dtype(np.int64), (n,)),
            (
                "region_index",
                np.asarray(region_index),
                np.dtype(np.uint16),
                (n,),
            ),
        ]
        if self.store_text:
            for field in ("title", "source"):
                lens = np.asarray(self._stages[f"{field}_lens"].finish())
                offsets = np.zeros(n + 1, dtype=np.int64)
                np.cumsum(lens, out=offsets[1:])
                blob = self._stages[f"{field}_bytes"].finish()
                planes.append(
                    (
                        f"{field}_offsets",
                        offsets,
                        np.dtype(np.int64),
                        offsets.shape,
                    )
                )
                planes.append(
                    (
                        f"{field}_bytes",
                        np.asarray(blob),
                        np.dtype(np.uint8),
                        (int(offsets[-1]),),
                    )
                )
        self._regions = self._region_table(region_index, n)
        if self.bitplanes:
            planes.extend(self._build_bitplanes(indptr, indices))
        return planes

    def _region_table(self, region_index: np.ndarray, n: int) -> list[dict]:
        """Per-cuisine slice table (start/stop when rows are contiguous)."""
        table = []
        region_index = np.asarray(region_index)
        for row, code in enumerate(self._region_codes):
            rows = np.flatnonzero(region_index == row)
            entry: dict = {"code": code, "n_recipes": int(rows.size)}
            if rows.size and int(rows[-1] - rows[0]) + 1 == rows.size:
                entry["start"] = int(rows[0])
                entry["stop"] = int(rows[-1]) + 1
            else:
                entry["start"] = None
                entry["stop"] = None
            table.append(entry)
        return table

    def _cuisine_rows(self, entry: dict) -> np.ndarray:
        if entry["start"] is not None:
            return np.arange(entry["start"], entry["stop"], dtype=np.int64)
        region_index = np.asarray(self._stages["region_index"].finish())
        return np.flatnonzero(
            region_index == self._region_of[entry["code"]]
        ).astype(np.int64)

    def _build_bitplanes(
        self, indptr: np.ndarray, indices: np.ndarray
    ) -> list[tuple[str, np.ndarray | Path, np.dtype, tuple[int, ...]]]:
        """Packed-bit transaction planes, built block-wise from the CSR.

        Works over the staged (memmapped) CSR in column blocks of
        :data:`_COL_BLOCK` recipes, so peak memory is the block's boolean
        mask — never the full matrix.  The big planes land in their own
        temp files and are concatenated into the container afterwards.
        """
        planes: list[
            tuple[str, np.ndarray | Path, np.dtype, tuple[int, ...]]
        ] = []
        indptr = np.asarray(indptr)
        indices = np.asarray(indices)
        for entry in self._regions:
            code = entry["code"]
            rows = self._cuisine_rows(entry)
            n_c = rows.size
            if n_c == 0:
                continue
            universe: np.ndarray | None = None
            for start in range(0, n_c, _COL_BLOCK):
                _lens, flat = _gather_csr(
                    indptr, indices, rows[start:start + _COL_BLOCK]
                )
                block_unique = np.unique(flat)
                universe = (
                    block_unique
                    if universe is None
                    else np.union1d(universe, block_unique)
                )
            assert universe is not None
            n_bytes = (n_c + 7) // 8
            stage_path = self._stage_path(f"bits{len(planes)}")
            matrix = np.memmap(
                stage_path,
                dtype=np.uint8,
                mode="w+",
                shape=(universe.size, n_bytes),
            )
            for start in range(0, n_c, _COL_BLOCK):
                block_rows = rows[start:start + _COL_BLOCK]
                lens, flat = _gather_csr(indptr, indices, block_rows)
                mask = np.zeros((universe.size, block_rows.size), dtype=bool)
                item_rows = np.searchsorted(universe, flat)
                cols = np.repeat(
                    np.arange(block_rows.size, dtype=np.int64), lens
                )
                mask[item_rows, cols] = True
                packed = np.packbits(mask, axis=1)
                byte0 = start // 8
                matrix[:, byte0:byte0 + packed.shape[1]] = packed
            matrix.flush()
            shape = (int(universe.size), int(n_bytes))
            del matrix
            planes.append(
                (
                    f"bititems:{code}",
                    universe.astype(np.int32),
                    np.dtype(np.int32),
                    (int(universe.size),),
                )
            )
            planes.append(
                (f"bits:{code}", stage_path, np.dtype(np.uint8), shape)
            )
        return planes

    def _write_container(
        self,
        planes: list[tuple[str, np.ndarray | Path, np.dtype, tuple[int, ...]]],
    ) -> None:
        descriptors: dict[str, dict] = {}
        with durable.atomic_write(self.path, durable=True) as out:
            out.write(_MAGIC)
            offset = len(_MAGIC)
            for name, data, dtype, shape in planes:
                aligned = _align(offset)
                out.write(b"\x00" * (aligned - offset))
                offset = aligned
                hasher = hashlib.sha256()
                nbytes = 0
                if isinstance(data, Path):
                    with data.open("rb") as source:
                        while True:
                            chunk = source.read(_IO_CHUNK)
                            if not chunk:
                                break
                            hasher.update(chunk)
                            out.write(chunk)
                            nbytes += len(chunk)
                else:
                    raw = np.ascontiguousarray(data, dtype=dtype)
                    flat = raw.reshape(-1).view(np.uint8)
                    for start in range(0, flat.size, _IO_CHUNK):
                        chunk = flat[start:start + _IO_CHUNK].tobytes()
                        hasher.update(chunk)
                        out.write(chunk)
                        nbytes += len(chunk)
                expected = int(np.prod(shape, dtype=np.int64)) * dtype.itemsize
                if nbytes != expected:
                    raise StorageError(
                        f"plane {name!r}: wrote {nbytes} bytes, expected "
                        f"{expected}"
                    )
                descriptors[name] = {
                    "dtype": dtype.newbyteorder("<").str,
                    "shape": [int(s) for s in shape],
                    "offset": offset,
                    "nbytes": nbytes,
                    "sha256": hasher.hexdigest(),
                }
                offset += nbytes
            footer = {
                "format": "repro-columnar",
                "version": COLUMNAR_FORMAT_VERSION,
                "n_recipes": int(np.sum([len(c) for c in self._lengths])),
                "n_items": descriptors["indices"]["shape"][0],
                "store_text": self.store_text,
                "region_codes": list(self._region_codes),
                "regions": self._regions,
                "planes": descriptors,
            }
            footer_bytes = json.dumps(
                footer, sort_keys=True, separators=(",", ":")
            ).encode("utf-8")
            footer_offset = offset
            out.write(footer_bytes)
            out.write(_TRAILER_MAGIC)
            out.write(
                footer_offset.to_bytes(8, "little")
                + len(footer_bytes).to_bytes(8, "little")
                + hashlib.sha256(footer_bytes).digest()
            )


def pack_dataset(
    dataset: RecipeDataset | Iterable[Recipe],
    path: str | Path,
    *,
    store_text: bool = True,
    bitplanes: bool = True,
) -> "ColumnarCorpus":
    """Pack a dataset into a columnar file and open the result."""
    recipes = (
        dataset.recipes if isinstance(dataset, RecipeDataset) else dataset
    )
    with ColumnarWriter(
        path, store_text=store_text, bitplanes=bitplanes
    ) as writer:
        writer.add_recipes(recipes)
    return ColumnarCorpus.open(path)


# ---------------------------------------------------------------------------
# Reader
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PackedTransactions:
    """One cuisine's transactions in the PR-5 packed-bit layout.

    Attributes:
        item_ids: Ascending ingredient ids, one per matrix row.
        matrix: ``(len(item_ids), ceil(n_transactions / 8))`` uint8
            packed membership bits (bit = transaction, ``np.packbits``
            big-endian within each byte).
        n_transactions: Number of transactions (columns in use).
    """

    item_ids: np.ndarray
    matrix: np.ndarray
    n_transactions: int


@dataclass(frozen=True)
class PlaneStats:
    """On-disk footprint of one plane (the telemetry row shape)."""

    name: str
    dtype: str
    shape: tuple[int, ...]
    nbytes: int


@dataclass(frozen=True)
class ColumnarDiskStats:
    """What one packed corpus costs on disk.

    Attributes:
        path: The container file.
        total_bytes: File size, including header/footer overhead.
        n_recipes: Recipes stored.
        n_planes: Plane count.
        planes: Per-plane footprints, file order.
    """

    path: str
    total_bytes: int
    n_recipes: int
    n_planes: int
    planes: tuple[PlaneStats, ...]


class ColumnarCorpus:
    """A packed corpus opened read-only over one memory mapping.

    Obtain instances via :meth:`open` (existing files),
    :func:`pack_dataset` (from an in-memory dataset) or
    :meth:`~repro.synthesis.worldgen.WorldKitchen.generate_columnar`
    (streamed synthesis).  All plane accessors return views into the
    mapping — bounded memory, valid while the corpus is open.
    """

    def __init__(
        self, path: Path, mapping: np.memmap, footer: dict
    ):
        self._path = path
        self._mapping = mapping
        self._footer = footer
        self._planes = footer["planes"]
        self._regions = {
            entry["code"]: entry for entry in footer["regions"]
        }

    # -- opening --------------------------------------------------------

    @classmethod
    def open(cls, path: str | Path, *, verify: bool = False) -> "ColumnarCorpus":
        """Open a packed corpus.

        Args:
            path: The container file.
            verify: Recompute and check every plane's SHA-256 (one full
                sequential read).  The default trusts the structure
                checks — magic, trailer, footer digest, plane bounds —
                which catch torn writes and truncation without the scan.

        Raises:
            StorageError: If the file is missing, or fails validation —
                in which case it is quarantined to ``<path>.bad`` and
                recorded via the §9 corruption telemetry.
        """
        source = Path(path)
        if not source.exists():
            raise StorageError(f"no such columnar corpus: {source}")
        try:
            footer = cls._read_footer(source)
        except durable.CorruptFileError as exc:
            raise cls._quarantine(source, exc) from exc
        mapping = np.memmap(source, dtype=np.uint8, mode="r")
        corpus = cls(source, mapping, footer)
        if verify:
            for name in footer["planes"]:
                descriptor = footer["planes"][name]
                digest = _sha256_array(corpus.plane(name))
                if digest != descriptor["sha256"]:
                    corpus.close()
                    raise cls._quarantine(source, durable.CorruptFileError(
                        durable.CHECKSUM_MISMATCH,
                        f"plane {name!r} digest {digest[:12]}... != "
                        f"recorded {descriptor['sha256'][:12]}...",
                    ))
        return corpus

    @staticmethod
    def _quarantine(source: Path, error: durable.CorruptFileError) -> StorageError:
        """Rename a failed file aside and return the error to raise."""
        action = durable.quarantine(
            "ColumnarCorpus", source, error,
            source.with_name(source.name + ".bad"),
        )
        return StorageError(
            f"columnar corpus {source} failed validation ({error}); "
            f"{action}"
        )

    @staticmethod
    def _read_footer(source: Path) -> dict:
        """The validated footer, or :class:`~repro.durable.CorruptFileError`."""
        bad, torn = durable.CorruptFileError, durable.TORN
        size = source.stat().st_size
        if size < len(_MAGIC) + _TRAILER_SIZE:
            raise bad(torn, f"file too small ({size} bytes)")
        with source.open("rb") as handle:
            if handle.read(len(_MAGIC)) != _MAGIC:
                raise bad(torn, "bad magic")
            handle.seek(size - _TRAILER_SIZE)
            trailer = handle.read(_TRAILER_SIZE)
            if trailer[:8] != _TRAILER_MAGIC:
                raise bad(torn, "bad trailer magic")
            footer_offset = int.from_bytes(trailer[8:16], "little")
            footer_length = int.from_bytes(trailer[16:24], "little")
            recorded_digest = trailer[24:56]
            if (
                footer_offset < len(_MAGIC)
                or footer_offset + footer_length > size - _TRAILER_SIZE
            ):
                raise bad(torn, "footer bounds outside file")
            handle.seek(footer_offset)
            footer_bytes = handle.read(footer_length)
        if hashlib.sha256(footer_bytes).digest() != recorded_digest:
            raise bad(durable.CHECKSUM_MISMATCH, "footer digest mismatch")
        try:
            footer = json.loads(footer_bytes)
        except json.JSONDecodeError as exc:
            raise bad(torn, f"footer is not JSON: {exc}") from exc
        if footer.get("format") != "repro-columnar":
            raise bad(durable.FORMAT_VERSION, "not a repro columnar file")
        if footer.get("version") != COLUMNAR_FORMAT_VERSION:
            raise bad(
                durable.FORMAT_VERSION,
                f"format version {footer.get('version')} != "
                f"{COLUMNAR_FORMAT_VERSION}",
            )
        for name, descriptor in footer["planes"].items():
            end = descriptor["offset"] + descriptor["nbytes"]
            if end > size - _TRAILER_SIZE:
                raise bad(torn, f"plane {name!r} extends past the footer")
        return footer

    def close(self) -> None:
        """Release the mapping; plane views become invalid."""
        mapping = self._mapping
        self._mapping = None  # type: ignore[assignment]
        if mapping is not None and hasattr(mapping, "_mmap"):
            mapping._mmap.close()  # noqa: SLF001 - explicit unmap

    def __enter__(self) -> "ColumnarCorpus":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()

    # -- planes ---------------------------------------------------------

    def plane(self, name: str) -> np.ndarray:
        """One plane as a read-only view into the mapping."""
        descriptor = self._planes.get(name)
        if descriptor is None:
            raise StorageError(f"no such plane {name!r} in {self._path}")
        if self._mapping is None:
            raise StorageError(f"columnar corpus {self._path} is closed")
        start = descriptor["offset"]
        raw = self._mapping[start:start + descriptor["nbytes"]]
        return raw.view(np.dtype(descriptor["dtype"])).reshape(
            descriptor["shape"]
        )

    def plane_names(self) -> tuple[str, ...]:
        return tuple(self._planes)

    @property
    def path(self) -> Path:
        return self._path

    @property
    def indptr(self) -> np.ndarray:
        return self.plane("indptr")

    @property
    def indices(self) -> np.ndarray:
        return self.plane("indices")

    @property
    def recipe_ids(self) -> np.ndarray:
        return self.plane("recipe_ids")

    @property
    def region_index(self) -> np.ndarray:
        return self.plane("region_index")

    @property
    def store_text(self) -> bool:
        return bool(self._footer["store_text"])

    @property
    def n_recipes(self) -> int:
        return int(self._footer["n_recipes"])

    @property
    def n_items(self) -> int:
        """Total ingredient occurrences across all recipes."""
        return int(self._footer["n_items"])

    def __len__(self) -> int:
        return self.n_recipes

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"ColumnarCorpus({self.n_recipes} recipes, "
            f"{len(self._regions)} cuisines, {self._path.name})"
        )

    # -- cuisines -------------------------------------------------------

    def region_codes(self) -> tuple[str, ...]:
        """Region codes present, sorted (the dataset convention)."""
        return tuple(sorted(self._regions))

    def stored_region_codes(self) -> tuple[str, ...]:
        """Region codes in first-encounter (storage) order."""
        return tuple(self._footer["region_codes"])

    def _region_entry(self, region_code: str) -> dict:
        entry = self._regions.get(region_code)
        if entry is None:
            raise StorageError(
                f"no recipes stored for cuisine {region_code!r}"
            )
        return entry

    def cuisine_size(self, region_code: str) -> int:
        return int(self._region_entry(region_code)["n_recipes"])

    def cuisine_slice(self, region_code: str) -> slice | None:
        """The cuisine's contiguous row slice, or ``None`` if interleaved."""
        entry = self._region_entry(region_code)
        if entry["start"] is None:
            return None
        return slice(entry["start"], entry["stop"])

    def cuisine_rows(self, region_code: str) -> np.ndarray:
        """Global row numbers of the cuisine's recipes, ascending."""
        entry = self._region_entry(region_code)
        if entry["start"] is not None:
            return np.arange(entry["start"], entry["stop"], dtype=np.int64)
        wanted = self._footer["region_codes"].index(region_code)
        return np.flatnonzero(
            np.asarray(self.region_index) == wanted
        ).astype(np.int64)

    def cuisine_csr(
        self, region_code: str
    ) -> tuple[np.ndarray, np.ndarray]:
        """``(lengths, flat ids)`` for one cuisine, in recipe order.

        Contiguous cuisines return zero-copy views; interleaved ones a
        vectorized gather.
        """
        window = self.cuisine_slice(region_code)
        indptr = self.indptr
        if window is not None:
            lengths = (
                indptr[window.start + 1:window.stop + 1]
                - indptr[window.start:window.stop]
            ).astype(np.int64)
            flat = self.indices[
                int(indptr[window.start]):int(indptr[window.stop])
            ]
            return lengths, flat
        return _gather_csr(
            indptr, self.indices, self.cuisine_rows(region_code)
        )

    # -- per-recipe access ----------------------------------------------

    def sizes(self) -> np.ndarray:
        """All recipe sizes, in dataset order."""
        return np.diff(self.indptr).astype(np.int64)

    def cuisine_sizes(self, region_code: str) -> np.ndarray:
        lengths, _flat = self.cuisine_csr(region_code)
        return lengths

    def ingredient_universe(
        self, region_code: str | None = None
    ) -> np.ndarray:
        """Ascending unique ingredient ids (one cuisine or the corpus)."""
        if region_code is None:
            source = self.indices
        else:
            entry = self._region_entry(region_code)
            if f"bititems:{entry['code']}" in self._planes:
                return np.asarray(
                    self.plane(f"bititems:{entry['code']}"), dtype=np.int64
                )
            _lengths, source = self.cuisine_csr(region_code)
        universe: np.ndarray | None = None
        source = np.asarray(source)
        for start in range(0, source.size, _IO_CHUNK):
            block = np.unique(source[start:start + _IO_CHUNK])
            universe = (
                block if universe is None else np.union1d(universe, block)
            )
        if universe is None:
            return np.empty(0, dtype=np.int64)
        return universe.astype(np.int64)

    def _text(self, field: str, row: int) -> str:
        if not self.store_text:
            return ""
        offsets = self.plane(f"{field}_offsets")
        blob = self.plane(f"{field}_bytes")
        return bytes(
            blob[int(offsets[row]):int(offsets[row + 1])]
        ).decode("utf-8")

    def recipe(self, row: int) -> Recipe:
        """Materialize the recipe stored at global ``row``."""
        if not 0 <= row < self.n_recipes:
            raise StorageError(
                f"row {row} out of range for {self.n_recipes} recipes"
            )
        indptr = self.indptr
        ids = self.indices[int(indptr[row]):int(indptr[row + 1])]
        code = self._footer["region_codes"][int(self.region_index[row])]
        return Recipe(
            recipe_id=int(self.recipe_ids[row]),
            region_code=code,
            ingredient_ids=tuple(int(i) for i in ids),
            title=self._text("title", row),
            source=self._text("source", row),
        )

    def iter_recipes(self) -> Iterator[Recipe]:
        """All recipes in dataset order, materialized one at a time."""
        for row in range(self.n_recipes):
            yield self.recipe(row)

    def to_dataset(self) -> RecipeDataset:
        """Materialize the full :class:`RecipeDataset` (object path).

        This is the eager escape hatch — it holds every recipe in
        memory, so reserve it for reproduction-scale corpora; large
        worlds should stay on the plane accessors.
        """
        return RecipeDataset(self.iter_recipes())

    def transactions(self, region_code: str) -> list[frozenset[int]]:
        """One cuisine's recipes as materialized id sets (mining input).

        Order and content match
        ``dataset.cuisine(code).as_id_sets()`` exactly; prefer
        :meth:`packed` + the bitset miner's packed entry point for the
        zero-object path.
        """
        lengths, flat = self.cuisine_csr(region_code)
        bounds = np.cumsum(lengths)[:-1]
        return [
            frozenset(int(i) for i in run)
            for run in np.split(np.asarray(flat), bounds)
        ]

    # -- mining-facing views --------------------------------------------

    def packed(self, region_code: str) -> PackedTransactions:
        """The cuisine's packed-bit transaction matrix.

        Stored ``bits:<code>`` planes are returned zero-copy from the
        mapping; corpora packed without bitplanes fall back to a
        block-wise build from the CSR (bounded by the matrix itself).
        """
        entry = self._region_entry(region_code)
        code = entry["code"]
        if f"bits:{code}" in self._planes:
            return PackedTransactions(
                item_ids=np.asarray(
                    self.plane(f"bititems:{code}"), dtype=np.int64
                ),
                matrix=self.plane(f"bits:{code}"),
                n_transactions=int(entry["n_recipes"]),
            )
        rows = self.cuisine_rows(region_code)
        universe = self.ingredient_universe(region_code)
        n_c = rows.size
        matrix = np.zeros((universe.size, (n_c + 7) // 8), dtype=np.uint8)
        for start in range(0, n_c, _COL_BLOCK):
            block_rows = rows[start:start + _COL_BLOCK]
            lens, flat = _gather_csr(self.indptr, self.indices, block_rows)
            mask = np.zeros((universe.size, block_rows.size), dtype=bool)
            mask[
                np.searchsorted(universe, flat),
                np.repeat(np.arange(block_rows.size, dtype=np.int64), lens),
            ] = True
            packed = np.packbits(mask, axis=1)
            byte0 = start // 8
            matrix[:, byte0:byte0 + packed.shape[1]] = packed
        return PackedTransactions(
            item_ids=universe, matrix=matrix, n_transactions=n_c
        )

    def transactions_fingerprint_for(self, region_code: str) -> str:
        """The cuisine's mined-curve cache fingerprint, from the planes.

        Bit-identical to
        ``transactions_fingerprint(dataset.cuisine(code).as_id_sets())``
        — the digest is computed over the same (lengths, flat ids)
        content directly from the CSR planes, so a
        :class:`~repro.runtime.curve_cache.CurveCache` warmed through
        the object path serves the columnar path and vice versa, with
        no transaction rebuild.
        """
        from repro.runtime.curve_cache import fingerprint_planes

        lengths, flat = self.cuisine_csr(region_code)
        return fingerprint_planes(
            lengths, np.asarray(flat, dtype=np.int64)
        )

    def mine(self, region_code: str, min_support: float, max_size=None):
        """Mine one cuisine over its packed planes (zero object path).

        Returns a :class:`~repro.analysis.itemsets.MiningResult`
        bit-identical to
        ``mine_frequent_itemsets(dataset.cuisine(code).as_id_sets(), ...)``.
        """
        from repro.analysis.itemsets import mine_packed

        packed = self.packed(region_code)
        return mine_packed(
            packed.matrix,
            packed.item_ids,
            packed.n_transactions,
            min_support,
            max_size=max_size,
        )

    # -- stats ----------------------------------------------------------

    def stats(self) -> CorpusStats:
        """Sec. II corpus statistics, computed from the planes.

        Matches :func:`repro.corpus.stats.corpus_stats` over the
        materialized dataset exactly, without building any recipe
        objects.
        """
        if self.n_recipes == 0:
            raise EmptyCorpusError("dataset has no recipes")
        per_cuisine = []
        for code in self.region_codes():
            lengths = self.cuisine_sizes(code)
            if lengths.size == 0:
                raise EmptyCorpusError(f"cuisine {code!r} has no recipes")
            n_ingredients = int(self.ingredient_universe(code).size)
            per_cuisine.append(
                CuisineStats(
                    region_code=code,
                    n_recipes=int(lengths.size),
                    n_ingredients=n_ingredients,
                    avg_recipe_size=float(lengths.mean()),
                    min_recipe_size=int(lengths.min()),
                    max_recipe_size=int(lengths.max()),
                    phi=n_ingredients / int(lengths.size),
                )
            )
        counts = [(s.region_code, s.n_recipes) for s in per_cuisine]
        return CorpusStats(
            n_recipes=self.n_recipes,
            n_cuisines=len(per_cuisine),
            avg_recipes_per_cuisine=float(
                np.mean([s.n_recipes for s in per_cuisine])
            ),
            avg_ingredients_per_cuisine=float(
                np.mean([s.n_ingredients for s in per_cuisine])
            ),
            largest_cuisine=max(counts, key=lambda item: item[1]),
            smallest_cuisine=min(counts, key=lambda item: item[1]),
            mean_recipe_size=float(self.sizes().mean()),
            per_cuisine=tuple(per_cuisine),
        )

    def disk_stats(self) -> ColumnarDiskStats:
        """Per-plane disk footprint (the `repro corpus stats` table)."""
        planes = tuple(
            PlaneStats(
                name=name,
                dtype=descriptor["dtype"],
                shape=tuple(descriptor["shape"]),
                nbytes=int(descriptor["nbytes"]),
            )
            for name, descriptor in self._planes.items()
        )
        return ColumnarDiskStats(
            path=str(self._path),
            total_bytes=int(self._path.stat().st_size),
            n_recipes=self.n_recipes,
            n_planes=len(planes),
            planes=planes,
        )
