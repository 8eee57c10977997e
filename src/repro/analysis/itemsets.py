"""Frequent-combination mining (Sec. IV).

The paper considers all ingredient combinations ("of size 1 and greater")
that appear in at least 5% of a cuisine's recipes — i.e. frequent
itemsets at relative support 0.05.  One miner does that work: a
breadth-first Eclat over numpy packed-bit tidsets that mines any number
of transaction pools ("runs") in the same passes.

1. each run's position arrays
   (:class:`~repro.transactions.TransactionPlane`; other iterables are
   converted into one first) are counted with one ``bincount``, every
   run before any is packed;
2. one matrix is allocated for every run's frequent rows, each run's
   zero-padded to the widest run, and each run's rows are packed
   straight into it as bits (``np.packbits``: row = item, bit =
   transaction membership), then viewed as ``uint64`` words, next to a
   run id per row and a minimum count per run;
3. level k+1 is one pass over every pair of level-k rows that share a
   run and a prefix: an ``AND`` of the two tidsets, and
   ``np.bitwise_count`` summed per row for its support.  A pair whose
   support meets its run's minimum count survives, and its left
   parent becomes its prefix class.  Pairs are evaluated in fixed-size
   blocks, each ANDed into one reused buffer, which bounds the
   intermediate arrays.

Two entry points share that pass.  :func:`mine_frequencies` returns
each run's rank-frequency values (descending relative supports) and
never builds an itemset; it is the ensemble curve path, which mines
all runs of a (model, cuisine) cell at once.
:func:`mine_frequent_itemsets` is the one-run case that rebuilds the
itemsets from the per-level parent arrays, ranked by
``(-support, size, items)`` — the order of the Fig. 3/4 rank-frequency
curves.  A pure-Python set-tidset Eclat kept in the test suite
(``tests/analysis/oracle.py``) is the oracle both are checked against
(DESIGN.md §6).

Items are integers (lexicon ingredient ids, or category indexes via
:func:`category_transactions`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, NamedTuple

import numpy as np

from repro.corpus.dataset import CuisineView
from repro.errors import MiningError
from repro.lexicon.categories import Category
from repro.lexicon.lexicon import Lexicon
from repro.transactions import TransactionPlane

__all__ = [
    "FrequentItemset",
    "MiningResult",
    "mine_frequencies",
    "mine_frequent_itemsets",
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

#: Safety valve: a run producing more itemsets than this is almost
#: certainly misconfigured (e.g. minuscule support on dense data).
MAX_ITEMSETS = 2_000_000

#: Tidset words (``uint64``) per block of a level pass: a block holds
#: as many candidate pairs as fit in 1 MiB of tidsets — 4,096 pairs at
#: ~2,000-transaction runs, fewer for larger runs — which bounds the
#: ``AND`` and popcount intermediates however many pairs a level holds.
_BLOCK_WORDS = 1 << 17


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


def _check_max_size(max_size: int | None) -> None:
    if max_size is not None and max_size < 1:
        raise MiningError(f"max_size must be >= 1 or None, got {max_size}")


# ---------------------------------------------------------------------------
# The stacked level-wise pass
# ---------------------------------------------------------------------------


class _Run(NamedTuple):
    """One run's frequent items, counted before anything is packed.

    ``items`` are the frequent item ids (ascending) and ``supports``
    their counts; ``row_of`` maps every position of the run's id table
    to its item's row among them, infrequent items to a spare row one
    past the last.
    """

    items: np.ndarray
    supports: np.ndarray
    row_of: np.ndarray


class _Level(NamedTuple):
    """Every run's frequent itemsets of one size, in stacked row order.

    Rows are grouped by run and, within a run, in lexicographic item
    order.  ``last`` is each itemset's last item; ``parent`` is the row
    of the previous level that the itemset extends (``None`` for single
    items), so the items themselves are rebuilt only on request.
    """

    run: np.ndarray
    support: np.ndarray
    last: np.ndarray
    parent: np.ndarray | None


def _check_cap(totals: np.ndarray) -> None:
    if totals.size and int(totals.max()) > MAX_ITEMSETS:
        raise MiningError(
            f"mining exceeded {MAX_ITEMSETS} itemsets in one run; raise "
            "min_support or cap max_size"
        )


def _mine_stack(
    planes: list[TransactionPlane],
    runs: list[_Run],
    min_counts: np.ndarray,
    max_size: int | None,
) -> list[_Level]:
    """Mine every run's frequent items level by level, all runs at once.

    ``runs`` are the planes' counted items (:func:`_count_run`).  The
    stacked tidset matrix is allocated once and each plane packed
    straight into its rows.  Level k+1 pairs each level-k row with the
    rows after it in its prefix class (same run, same parent); a class
    is a contiguous block of rows, so the pairs of a level are numbered
    ``0..total-1`` and evaluated in blocks of ``_BLOCK_WORDS`` tidset
    words, each block ANDed into one reused buffer.  Only the surviving
    pairs' tidsets are kept, rebuilt once the next level needs them, so
    the pass holds at most two levels of tidsets.  ``MAX_ITEMSETS`` and
    ``max_size`` apply to each run on its own.
    """
    words = max((-(-len(plane) // 64) for plane in planes), default=0)
    counts = [run.items.size for run in runs]
    stacked = np.zeros((sum(counts), 8 * words), dtype=np.uint8)
    offset = 0
    for plane, run, count in zip(planes, runs, counts):
        _pack_into(stacked[offset:offset + count], plane, run)
        offset += count
    rows = stacked.view(np.uint64)
    block = max(1, _BLOCK_WORDS // max(words, 1))
    both = np.empty((block, words), dtype=np.uint64)
    right_rows = np.empty_like(both)
    bit_counts = np.empty(both.shape, dtype=np.uint8)

    run_of = np.repeat(np.arange(len(runs)), counts)
    level = _Level(
        run_of,
        np.concatenate([run.supports for run in runs]).astype(np.int64),
        np.concatenate([run.items for run in runs]).astype(np.int64),
        None,
    )
    levels = [level]
    totals = np.bincount(run_of, minlength=len(runs))
    _check_cap(totals)
    classes = run_of
    parents: tuple[np.ndarray, np.ndarray] | None = None
    while max_size is None or len(levels) < max_size:
        index = np.arange(classes.size)
        partners = np.searchsorted(classes, classes, side="right") - index - 1
        pair_end = np.cumsum(partners)
        total = int(pair_end[-1]) if pair_end.size else 0
        if total == 0:
            break
        if parents is not None:
            rows = _pair_tidsets(rows, *parents, right_rows)
        pair_start = pair_end - partners
        row_min = min_counts[level.run]
        kept_left, kept_right, kept_support = [], [], []
        for start in range(0, total, block):
            pair = np.arange(start, min(start + block, total))
            left = np.searchsorted(pair_end, pair, side="right")
            right = left + 1 + pair - pair_start[left]
            pairs = _and_rows(rows, left, right, both, right_rows)
            support = np.bitwise_count(
                pairs, out=bit_counts[: pair.size]
            ).sum(axis=1, dtype=np.int64)
            keep = np.flatnonzero(support >= row_min[left])
            kept_left.append(left[keep])
            kept_right.append(right[keep])
            kept_support.append(support[keep])
            totals += np.bincount(
                level.run[left[keep]], minlength=len(runs)
            )
            _check_cap(totals)
        left = np.concatenate(kept_left)
        if left.size == 0:
            break
        right = np.concatenate(kept_right)
        level = _Level(
            level.run[left],
            np.concatenate(kept_support),
            level.last[right],
            left,
        )
        levels.append(level)
        classes = left
        parents = (left, right)
    return levels


def _and_rows(
    rows: np.ndarray,
    left: np.ndarray,
    right: np.ndarray,
    out: np.ndarray,
    scratch: np.ndarray,
) -> np.ndarray:
    """``rows[left] & rows[right]`` in the first ``left.size`` rows of
    ``out``, through ``scratch`` (same shape), with no other array."""
    pairs = out[: left.size]
    # Indexes are in range by construction; "clip" lets ``take`` write
    # into ``out`` directly instead of through a buffer of its own.
    rows.take(left, axis=0, out=pairs, mode="clip")
    other = rows.take(right, axis=0, out=scratch[: left.size], mode="clip")
    return np.bitwise_and(pairs, other, out=pairs)


def _pair_tidsets(
    rows: np.ndarray, left: np.ndarray, right: np.ndarray, scratch: np.ndarray
) -> np.ndarray:
    """``rows[left] & rows[right]``, built a ``scratch`` of rows at a time."""
    tidsets = np.empty((left.size, rows.shape[1]), dtype=rows.dtype)
    block = scratch.shape[0]
    for start in range(0, left.size, block):
        stop = start + block
        _and_rows(
            rows, left[start:stop], right[start:stop], tidsets[start:stop],
            scratch,
        )
    return tidsets


def _count_run(plane: TransactionPlane, min_count: int) -> _Run:
    """Count ``plane``'s items and number its frequent ones."""
    _lengths, flat = plane.csr()
    item_counts = np.bincount(flat, minlength=plane.ids.size)
    frequent = item_counts >= min_count
    n_frequent = int(frequent.sum())
    row_of = np.full(plane.ids.size, n_frequent, dtype=np.intp)
    row_of[frequent] = np.arange(n_frequent, dtype=np.intp)
    return _Run(plane.ids[frequent], item_counts[frequent], row_of)


def _pack_into(out: np.ndarray, plane: TransactionPlane, run: _Run) -> None:
    """Pack ``plane``'s frequent rows into ``out`` (``np.packbits`` layout).

    ``out`` has one zeroed row per frequent item and at least
    ``ceil(len(plane) / 8)`` bytes per row.
    """
    n = len(plane)
    lengths, flat = plane.csr()
    n_frequent = run.items.size
    # Infrequent items land in a spare last row, dropped after packing.
    tids = np.repeat(np.arange(n, dtype=np.intp), lengths)
    mask = np.zeros((n_frequent + 1) * n, dtype=bool)
    mask[run.row_of[flat] * n + tids] = True
    out[:, : -(-n // 8)] = np.packbits(
        mask.reshape(n_frequent + 1, n)[:n_frequent], axis=1
    )


def _mine_planes(
    runs: Iterable[Iterable[Iterable[int]]],
    min_support: float,
    max_size: int | None,
) -> tuple[list[_Level], np.ndarray]:
    """The stacked pass over transaction pools: ``(levels, sizes)``.

    An empty run contributes no rows and, like a one-run call on an
    empty pool, does not consult ``min_support``.
    """
    _check_max_size(max_size)
    planes = [TransactionPlane.of(run) for run in runs]
    sizes = np.array([len(plane) for plane in planes], dtype=np.int64)
    min_counts = np.array(
        [_min_count(min_support, n) if n else 1 for n in sizes.tolist()],
        dtype=np.int64,
    )
    if not planes:
        return [], sizes
    counted = [
        _count_run(plane, int(min_count))
        for plane, min_count in zip(planes, min_counts)
    ]
    return _mine_stack(planes, counted, min_counts, max_size), sizes


def _frequencies(levels: list[_Level], sizes: np.ndarray) -> list[np.ndarray]:
    """Each run's supports in descending order, divided by its size."""
    run = np.concatenate([level.run for level in levels])
    support = np.concatenate([level.support for level in levels])
    order = np.lexsort((-support, run))
    values = support[order] / sizes[run[order]]
    bounds = np.cumsum(np.bincount(run, minlength=sizes.size))[:-1]
    return np.split(values, bounds)


def _result(
    levels: list[_Level], n_transactions: int, min_support: float
) -> MiningResult:
    """A one-run pass as a :class:`MiningResult` in rank order.

    Levels come in size order and each level's rows in item order, so a
    stable sort on support alone yields ``(-support, size, items)``.
    """
    items: list[tuple[int, ...]] = []
    previous: np.ndarray | None = None
    for level in levels:
        current = (
            level.last[:, None]
            if previous is None
            else np.column_stack((previous[level.parent], level.last))
        )
        items.extend(map(tuple, current.tolist()))
        previous = current
    supports = np.concatenate([level.support for level in levels])
    order = np.argsort(-supports, kind="stable")
    return MiningResult(
        itemsets=tuple(
            FrequentItemset(items=items[index], support=support)
            for index, support in zip(
                order.tolist(), supports[order].tolist()
            )
        ),
        n_transactions=n_transactions,
        min_support=min_support,
    )


# ---------------------------------------------------------------------------
# Entry points
# ---------------------------------------------------------------------------


def mine_frequencies(
    runs: Iterable[Iterable[Iterable[int]]],
    min_support: float,
    max_size: int | None = None,
) -> list[np.ndarray]:
    """Mine many runs in one stacked pass; return their curve values.

    Args:
        runs: One transaction pool per run: a
            :class:`~repro.transactions.TransactionPlane`, or item
            collections, which are converted into one first.  Runs may
            differ in size; each gets its own minimum count.
        min_support: Relative support threshold in ``(0, 1]``.
        max_size: Optional cap on itemset size (``>= 1``).

    Returns:
        Per run, the relative supports of its frequent itemsets in
        descending order — exactly
        ``mine_frequent_itemsets(run, ...).frequencies()`` as a float
        array, with no itemset built.

    Raises:
        MiningError: On a threshold outside ``(0, 1]``, a size cap
            below 1, or a run exceeding ``MAX_ITEMSETS`` itemsets.
    """
    levels, sizes = _mine_planes(runs, min_support, max_size)
    if sizes.size == 0:
        return []
    return _frequencies(levels, sizes)


def mine_frequent_itemsets(
    transactions: Iterable[Iterable[int]],
    min_support: float,
    max_size: int | None = None,
) -> MiningResult:
    """Mine the frequent combinations of one transaction pool.

    The one-run case of the stacked pass behind :func:`mine_frequencies`.

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
        MiningError: On a threshold outside ``(0, 1]``, a size cap
            below 1, or more than ``MAX_ITEMSETS`` itemsets.
    """
    levels, sizes = _mine_planes([transactions], min_support, max_size)
    return _result(levels, int(sizes[0]), min_support)


# ---------------------------------------------------------------------------
# Transaction builders
# ---------------------------------------------------------------------------


def ingredient_transactions(view: CuisineView) -> TransactionPlane:
    """Recipes of a cuisine as ingredient-id transactions (its plane)."""
    return view.transaction_plane()


def category_transactions(
    view: CuisineView, lexicon: Lexicon
) -> TransactionPlane:
    """Recipes as category-index transactions (Sec. IV category level).

    The cuisine's ingredient plane remapped through one lookup array;
    the id table is the category indexes that occur, ascending.
    """
    plane = view.transaction_plane()
    category_of = lexicon.id_to_category_array()
    indexes = np.array(
        [CATEGORY_INDEX[category_of[i]] for i in plane.ids.tolist()],
        dtype=np.int64,
    )
    present = np.flatnonzero(
        np.bincount(indexes, minlength=len(CATEGORY_INDEX))
    )
    return plane.remap(np.searchsorted(present, indexes), present)


def category_from_index(index: int) -> Category:
    """Inverse of :data:`CATEGORY_INDEX`."""
    try:
        return _INDEX_CATEGORY[index]
    except KeyError:
        raise MiningError(f"invalid category index {index}") from None
