"""The transaction plane: a recipe pool as position arrays (DESIGN.md §7).

Every consumer of a simulated recipe pool — the curve fingerprint, the
run cache, the miner, the process workers that mine — reads the same
three arrays:

* ``positions``: an ``(n_recipes, width)`` integer matrix of indexes
  into ``ids``;
* ``lengths``: per-row item counts, or ``None`` when every row fills the
  full width (entries past a row's length are padding and never read);
* ``ids``: the ascending item-id table the positions index.

Rows are duplicate-free and unordered.  A paper-scale ensemble held as
``frozenset`` lists is millions of small container objects, and
building, hashing, pickling and re-packing them cost far more than the
simulation that produced them; the plane carries the same content in a
handful of arrays.  :class:`TransactionPlane` still honors the
read-only ``Sequence[frozenset[int]]`` protocol (``len``, index,
iterate, ``==`` against lists), and :meth:`TransactionPlane.materialize`
is the escape hatch for code that wants eager sets.

This module depends on numpy alone, so the engines, the runtime and the
miner can all import it.
"""

from __future__ import annotations

from collections.abc import Sequence, Sized
from itertools import chain
from typing import Iterable

import numpy as np

__all__ = ["TransactionPlane", "position_dtype"]

#: Positions and lengths below this bound are held and pickled as
#: ``uint16``.
_NARROW_BOUND = 1 << 16


def position_dtype(n_ids: int) -> type[np.integer]:
    """The dtype of a position matrix over an id table of ``n_ids``.

    ``uint16`` whenever every position fits — every cuisine of the
    paper's lexicon does — so engine, miner and cache share one narrow
    array; ``int32`` otherwise.
    """
    return np.uint16 if n_ids <= _NARROW_BOUND else np.int32


def _narrow(values: np.ndarray) -> np.ndarray:
    """``values`` as ``uint16`` when every entry fits, else unchanged.

    An array that is already ``uint16`` is returned as is, not copied,
    so pickling a narrow plane hands out its own memory.
    """
    if values.dtype == np.uint16:
        return values
    if values.size == 0 or (
        values.min() >= 0 and values.max() < _NARROW_BOUND
    ):
        return values.astype(np.uint16)
    return values


def _pack_rows(
    n_rows: int, row_of: np.ndarray, positions: np.ndarray, ids: np.ndarray
) -> "TransactionPlane":
    """Build a plane from ``(row, position)`` entries, deduplicating rows.

    The one place rows are deduplicated: generic iterables, ``"allow"``
    duplicate-policy runs and category remaps all pass through here.
    """
    span = max(int(ids.size), 1)
    # Sort and drop repeats: the sorted unique keys np.unique would give,
    # without its first call loading numpy.ma.
    keys = np.sort(row_of.astype(np.int64) * span + positions)
    fresh = np.ones(keys.size, dtype=bool)
    np.not_equal(keys[1:], keys[:-1], out=fresh[1:])
    keys = keys[fresh]
    row_of = keys // span
    lengths = np.bincount(row_of, minlength=n_rows)
    width = int(lengths.max()) if n_rows else 0
    starts = np.cumsum(lengths) - lengths
    columns = np.arange(keys.size) - starts[row_of]
    matrix = np.zeros((n_rows, width), dtype=position_dtype(ids.size))
    matrix[row_of, columns] = keys - row_of * span
    full = bool((lengths == width).all())
    return TransactionPlane(matrix, None if full else lengths, ids)


class TransactionPlane(Sequence):
    """One recipe pool as a position matrix over an ascending id table.

    The constructor trusts its arguments (rows duplicate-free, ``ids``
    ascending); use :meth:`of` to convert arbitrary item collections and
    :meth:`from_positions` to wrap an engine's matrix.

    Reads through the sequence protocol build ``frozenset`` rows on
    demand and are not memoized, so iterating twice builds twice.  The
    fast consumers never iterate: they read :meth:`csr` and ``ids``.
    """

    __slots__ = ("positions", "lengths", "ids")

    def __init__(
        self,
        positions: np.ndarray,
        lengths: np.ndarray | None,
        ids: np.ndarray,
    ):
        self.positions = positions
        self.lengths = lengths
        self.ids = ids

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    @classmethod
    def of(cls, transactions: Iterable[Iterable[int]]) -> "TransactionPlane":
        """``transactions`` as a plane (planes pass through untouched).

        Items must be integers within int64; each row is deduplicated.
        """
        if isinstance(transactions, TransactionPlane):
            return transactions
        data = [
            row if isinstance(row, Sized) else tuple(row)
            for row in transactions
        ]
        lengths = np.fromiter(map(len, data), dtype=np.int64, count=len(data))
        flat = np.fromiter(
            chain.from_iterable(data), dtype=np.int64, count=int(lengths.sum())
        )
        return cls.from_csr(lengths, flat)

    @classmethod
    def from_csr(
        cls, lengths: np.ndarray, items: np.ndarray
    ) -> "TransactionPlane":
        """The plane of CSR-shaped rows: per-row item counts and the rows'
        items concatenated in row order (each row deduplicated).

        The id table is every item that occurs, ascending, so equal
        content gives an equal plane however it arrived.
        """
        ids, positions = np.unique(items, return_inverse=True)
        row_of = np.repeat(np.arange(lengths.size), lengths)
        return _pack_rows(lengths.size, row_of, positions.reshape(-1), ids)

    @classmethod
    def from_positions(
        cls,
        positions: np.ndarray,
        lengths: np.ndarray | None,
        ids: Iterable[int],
        distinct: bool = True,
    ) -> "TransactionPlane":
        """Wrap an engine's position matrix over the id table ``ids``.

        No copy is made when the rows are ``distinct`` and ``ids`` is
        ascending (the batched engine's normal case); otherwise the
        rows are deduplicated and re-indexed against the sorted table.
        """
        ids = np.asarray(ids, dtype=np.int64)
        plane = cls(positions, lengths, ids)
        ascending = ids.size < 2 or bool((np.diff(ids) > 0).all())
        if distinct and ascending:
            return plane
        order = np.argsort(ids, kind="stable")
        rank = np.empty(ids.size, dtype=np.int64)
        rank[order] = np.arange(ids.size)
        return plane.remap(rank, ids[order])

    def remap(
        self, lookup: np.ndarray, ids: np.ndarray
    ) -> "TransactionPlane":
        """A new plane whose rows hold ``lookup[position]`` over ``ids``.

        ``lookup`` maps each position of this plane to a position of the
        new (ascending) table ``ids``; rows that map two items onto one
        are deduplicated — the category-level conversion.
        """
        lengths, flat = self.csr()
        row_of = np.repeat(np.arange(len(self)), lengths)
        return _pack_rows(len(self), row_of, lookup[flat], ids)

    # ------------------------------------------------------------------
    # Array views
    # ------------------------------------------------------------------

    def csr(self) -> tuple[np.ndarray, np.ndarray]:
        """``(lengths, flat_positions)``: per-row counts and the row
        entries concatenated in row order (padding dropped)."""
        n, width = self.positions.shape
        if self.lengths is None:
            return (
                np.full(n, width, dtype=np.int64),
                self.positions.reshape(-1),
            )
        lengths = np.asarray(self.lengths, dtype=np.int64)
        mask = np.arange(width) < lengths[:, None]
        return lengths, self.positions[mask]

    # ------------------------------------------------------------------
    # Sequence[frozenset[int]] protocol
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return len(self.positions)

    def _row(self, index: int, ids: list[int]) -> frozenset:
        row = self.positions[index].tolist()
        if self.lengths is not None:
            row = row[: int(self.lengths[index])]
        return frozenset([ids[position] for position in row])

    def __getitem__(self, index):
        ids = self.ids.tolist()
        if isinstance(index, slice):
            return [
                self._row(i, ids) for i in range(*index.indices(len(self)))
            ]
        return self._row(index, ids)

    def __iter__(self):
        ids = self.ids.tolist()
        if self.lengths is None:
            for row in self.positions.tolist():
                yield frozenset([ids[position] for position in row])
        else:
            for row, length in zip(
                self.positions.tolist(), self.lengths.tolist()
            ):
                yield frozenset(
                    [ids[position] for position in row[:length]]
                )

    def materialize(self) -> list[frozenset[int]]:
        """An eager ``list[frozenset[int]]`` copy of the pool."""
        return list(self)

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if isinstance(other, (TransactionPlane, list, tuple)):
            if len(other) != len(self):
                return False
            return all(ours == theirs for ours, theirs in zip(self, other))
        return NotImplemented

    # Mutable-sequence semantics (lists are unhashable); parity keeps a
    # plane interchangeable with the list of its rows.
    __hash__ = None  # type: ignore[assignment]

    def __reduce__(self):
        # Pickle as the arrays, narrowed where they fit: a batched run's
        # positions are a uint16 view of its batch's shared tensor, so
        # protocol 5 hands out this run's rows from that memory, uncopied.
        lengths = None if self.lengths is None else _narrow(self.lengths)
        return (
            TransactionPlane,
            (_narrow(self.positions), lengths, self.ids),
        )

    def __repr__(self) -> str:
        return f"<TransactionPlane of {len(self)} recipes>"
