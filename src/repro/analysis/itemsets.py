"""Frequent-combination mining (Sec. IV).

The paper considers all ingredient combinations ("of size 1 and greater")
that appear in at least 5% of a cuisine's recipes — i.e. frequent
itemsets at relative support 0.05.  One miner does that work:
:func:`mine_frequent_itemsets`, a depth-first Eclat search over numpy
packed-bit tidsets.

1. the transactions' position arrays
   (:class:`~repro.transactions.TransactionPlane`; other iterables are
   converted into one first) are counted with one ``bincount`` and the
   frequent rows packed **once** into a bit matrix (``np.packbits``):
   row = item, bit = transaction membership;
2. a depth-first extension intersects the prefix tidset against *every*
   sibling candidate in one vectorized ``AND`` over the packed bytes;
3. supports come from a 256-entry popcount lookup table summed per row
   — no ``unpackbits`` round trip on the hot path.

:func:`mine_packed` runs the same search over a matrix that is already
packed (the columnar store's stored planes), so both entry points return
identical results for identical transaction content.  Itemsets are
ranked by ``(-support, size, items)`` — the order of the Fig. 3/4
rank-frequency curves.  A pure-Python set-tidset Eclat kept in the test
suite (``tests/analysis/oracle.py``) is the oracle both are checked
against (DESIGN.md §6).

Items are integers (lexicon ingredient ids, or category indexes via
:func:`category_transactions`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable

import numpy as np

from repro.corpus.dataset import CuisineView
from repro.errors import MiningError
from repro.lexicon.categories import Category
from repro.lexicon.lexicon import Lexicon
from repro.transactions import TransactionPlane

__all__ = [
    "FrequentItemset",
    "MiningResult",
    "mine_frequent_itemsets",
    "mine_packed",
    "POPCOUNT_TABLE",
    "category_transactions",
    "ingredient_transactions",
    "CATEGORY_INDEX",
]

#: Stable category <-> index mapping for category-level mining.
CATEGORY_INDEX: dict[Category, int] = {
    category: index for index, category in enumerate(Category)
}
_INDEX_CATEGORY: dict[int, Category] = {
    index: category for category, index in CATEGORY_INDEX.items()
}

#: Safety valve: a mining call producing more itemsets than this is almost
#: certainly misconfigured (e.g. minuscule support on dense data).
MAX_ITEMSETS = 2_000_000

#: Bits set per byte value — the popcount primitive.  Indexing a packed
#: row through this table and summing gives the row's support without
#: unpacking it back to booleans.
POPCOUNT_TABLE: np.ndarray = np.unpackbits(
    np.arange(256, dtype=np.uint8).reshape(-1, 1), axis=1
).sum(axis=1).astype(np.int64)


@dataclass(frozen=True)
class FrequentItemset:
    """One frequent combination.

    Attributes:
        items: Sorted item tuple.
        support: Absolute support (number of transactions containing it).
    """

    items: tuple[int, ...]
    support: int

    @property
    def size(self) -> int:
        return len(self.items)

    def relative_support(self, n_transactions: int) -> float:
        """Support normalized by the transaction count."""
        if n_transactions <= 0:
            return 0.0
        return self.support / n_transactions


@dataclass(frozen=True)
class MiningResult:
    """Output of a mining run.

    Attributes:
        itemsets: Frequent itemsets sorted by (-support, size, items) —
            the rank order used by the Fig. 3/4 rank-frequency curves.
        n_transactions: Transactions mined.
        min_support: Relative support threshold used.
    """

    itemsets: tuple[FrequentItemset, ...]
    n_transactions: int
    min_support: float

    def __len__(self) -> int:
        return len(self.itemsets)

    def frequencies(self) -> list[float]:
        """Relative supports in rank order (Fig. 3/4 y-values)."""
        if self.n_transactions == 0:
            return []
        return [
            itemset.support / self.n_transactions for itemset in self.itemsets
        ]

    def of_size(self, size: int) -> tuple[FrequentItemset, ...]:
        """Frequent itemsets of exactly ``size`` items."""
        return tuple(i for i in self.itemsets if i.size == size)


def _min_count(min_support: float, n_transactions: int) -> int:
    """Smallest absolute support that meets ``min_support``.

    The threshold is taken as the decimal it prints as, so float error
    in the product cannot lift the count past an exact boundary:
    ``0.07 * 100`` is ``7.000000000000001`` in binary floating point,
    yet 7 recipes of 100 do meet a 7% threshold.
    """
    if not 0.0 < min_support <= 1.0:
        raise MiningError(f"min_support must be in (0, 1], got {min_support}")
    exact = Fraction(str(float(min_support))) * n_transactions
    return max(1, math.ceil(exact))


def _sorted_result(
    found: dict[tuple[int, ...], int],
    n_transactions: int,
    min_support: float,
) -> MiningResult:
    if len(found) > MAX_ITEMSETS:
        raise MiningError(
            f"mining produced {len(found)} itemsets (> {MAX_ITEMSETS}); "
            "raise min_support or cap max_size"
        )
    itemsets = tuple(
        FrequentItemset(items=items, support=support)
        for items, support in sorted(
            found.items(), key=lambda kv: (-kv[1], len(kv[0]), kv[0])
        )
    )
    return MiningResult(
        itemsets=itemsets,
        n_transactions=n_transactions,
        min_support=min_support,
    )


def _check_max_size(max_size: int | None) -> None:
    if max_size is not None and max_size < 1:
        raise MiningError(f"max_size must be >= 1 or None, got {max_size}")


def mine_frequent_itemsets(
    transactions: Iterable[Iterable[int]],
    min_support: float,
    max_size: int | None = None,
) -> MiningResult:
    """Mine frequent combinations by depth-first search over packed bits.

    Args:
        transactions: A :class:`~repro.transactions.TransactionPlane`,
            or item collections (ingredient ids or category indexes),
            which are converted into one first.
        min_support: Relative support threshold in ``(0, 1]`` — the
            paper uses 0.05.
        max_size: Optional cap on itemset size (``>= 1``).

    Returns:
        A :class:`MiningResult` with itemsets in rank order.

    Raises:
        MiningError: On a threshold outside ``(0, 1]`` or a size cap
            below 1.
    """
    _check_max_size(max_size)
    plane = TransactionPlane.of(transactions)
    n = len(plane)
    if n == 0:
        return MiningResult((), 0, min_support)
    min_count = _min_count(min_support, n)

    # Counting, frequency filtering and the bit-matrix build are
    # vectorized passes over the plane's flat positions.
    lengths, flat = plane.csr()
    item_counts = np.bincount(flat, minlength=plane.ids.size)
    frequent = item_counts >= min_count
    if not frequent.any():
        return MiningResult((), n, min_support)
    row_of = np.full(plane.ids.size, -1, dtype=np.intp)
    row_of[frequent] = np.arange(int(frequent.sum()), dtype=np.intp)
    occurrence_rows = row_of[flat]
    kept = occurrence_rows >= 0
    tids = np.repeat(np.arange(n, dtype=np.intp), lengths)

    mask = np.zeros((int(frequent.sum()), n), dtype=bool)
    mask[occurrence_rows[kept], tids[kept]] = True
    return _mine_over_matrix(
        plane.ids[frequent].tolist(),
        np.packbits(mask, axis=1),
        item_counts[frequent].astype(np.int64),
        n,
        min_count,
        min_support,
        max_size,
    )


def _mine_over_matrix(
    frequent_items: list[int],
    packed: np.ndarray,
    supports: np.ndarray,
    n: int,
    min_count: int,
    min_support: float,
    max_size: int | None,
) -> MiningResult:
    """The depth-first extension over an already-frequent packed matrix.

    Shared by :func:`mine_frequent_itemsets` (which packs in memory) and
    :func:`mine_packed` (which reads stored planes): same search tree,
    same pruning, same rank order.
    """
    found: dict[tuple[int, ...], int] = {}

    def extend(
        prefix: tuple[int, ...],
        items: list[int],
        rows: np.ndarray,
        sups: np.ndarray,
    ) -> None:
        for index, item in enumerate(items):
            itemset = prefix + (item,)
            found[itemset] = int(sups[index])
            if len(found) > MAX_ITEMSETS:
                raise MiningError(
                    f"mining exceeded {MAX_ITEMSETS} itemsets; raise "
                    "min_support or cap max_size"
                )
            if max_size is not None and len(itemset) >= max_size:
                continue
            if index + 1 == len(items):
                continue
            # One vectorized AND + popcount covers every sibling at once.
            intersections = rows[index + 1:] & rows[index]
            inter_supports = POPCOUNT_TABLE[intersections].sum(axis=1)
            keep = np.flatnonzero(inter_supports >= min_count)
            if keep.size:
                extend(
                    itemset,
                    [items[index + 1 + k] for k in keep],
                    intersections[keep],
                    inter_supports[keep],
                )

    extend((), frequent_items, packed, supports)
    return _sorted_result(found, n, min_support)


#: Rows processed per block when computing supports over a stored
#: matrix — bounds the int64 popcount intermediate, not the matrix.
_ROW_BLOCK = 256


def mine_packed(
    matrix: np.ndarray,
    item_ids: np.ndarray,
    n_transactions: int,
    min_support: float,
    max_size: int | None = None,
) -> MiningResult:
    """Mine a stored packed-bit transaction matrix zero-copy.

    The columnar store's ``bits:<code>`` planes are exactly the matrix
    :func:`mine_frequent_itemsets` builds internally — row = item, bit =
    transaction, ``np.packbits`` layout — so a memory-mapped plane can
    be mined without round-tripping through ``Recipe`` objects or
    frozensets.  Supports are popcounted block-wise straight off the
    mapping; only the frequent rows (typically a small fraction at the
    paper's thresholds) are copied into memory for the depth-first
    extension.

    Args:
        matrix: ``(len(item_ids), ceil(n_transactions / 8))`` uint8
            packed membership bits (may be a ``np.memmap`` view); bits
            past ``n_transactions`` must be zero.
        item_ids: Ascending item id per matrix row.
        n_transactions: Number of transactions the bits encode.
        min_support: Relative support threshold in ``(0, 1]``.
        max_size: Optional cap on itemset size.

    Returns:
        A result identical to :func:`mine_frequent_itemsets` over the
        same transactions.

    Raises:
        MiningError: On a malformed matrix, a threshold outside
            ``(0, 1]`` or a size cap below 1.
    """
    _check_max_size(max_size)
    matrix = np.asarray(matrix)
    item_ids = np.asarray(item_ids)
    if matrix.ndim != 2 or matrix.dtype != np.uint8:
        raise MiningError(
            f"packed matrix must be 2-D uint8, got {matrix.dtype} "
            f"ndim={matrix.ndim}"
        )
    if matrix.shape[0] != item_ids.size:
        raise MiningError(
            f"{matrix.shape[0]} matrix rows vs {item_ids.size} item ids"
        )
    if item_ids.size > 1 and not (np.diff(item_ids) > 0).all():
        raise MiningError("item_ids must be strictly ascending")
    n = int(n_transactions)
    if n == 0:
        return MiningResult((), 0, min_support)
    min_count = _min_count(min_support, n)

    supports = np.empty(matrix.shape[0], dtype=np.int64)
    for start in range(0, matrix.shape[0], _ROW_BLOCK):
        block = matrix[start:start + _ROW_BLOCK]
        supports[start:start + _ROW_BLOCK] = POPCOUNT_TABLE[block].sum(axis=1)
    frequent = supports >= min_count
    if not frequent.any():
        return MiningResult((), n, min_support)
    frequent_items = [int(item) for item in item_ids[frequent]]
    packed = np.ascontiguousarray(matrix[frequent])
    return _mine_over_matrix(
        frequent_items,
        packed,
        supports[frequent],
        n,
        min_count,
        min_support,
        max_size,
    )


# ---------------------------------------------------------------------------
# Transaction builders
# ---------------------------------------------------------------------------


def ingredient_transactions(view: CuisineView) -> list[frozenset[int]]:
    """Recipes of a cuisine as ingredient-id transactions."""
    return view.as_id_sets()


def category_transactions(
    view: CuisineView, lexicon: Lexicon
) -> list[frozenset[int]]:
    """Recipes as category-index transactions (Sec. IV category level)."""
    id_to_category = lexicon.id_to_category_array()
    return [
        frozenset(
            CATEGORY_INDEX[id_to_category[ingredient_id]]
            for ingredient_id in recipe.ingredient_ids
        )
        for recipe in view
    ]


def category_from_index(index: int) -> Category:
    """Inverse of :data:`CATEGORY_INDEX`."""
    try:
        return _INDEX_CATEGORY[index]
    except KeyError:
        raise MiningError(f"invalid category index {index}") from None
