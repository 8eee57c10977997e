"""The test oracle for frequent-itemset mining.

A pure-Python depth-first Eclat over ``set`` tidsets: each item's
transactions are a Python set and candidates are intersected one pair
at a time.  It is slow but short enough to read at a glance, so the
production miner's two entry points
(:func:`repro.analysis.itemsets.mine_frequent_itemsets` and
:func:`~repro.analysis.itemsets.mine_frequencies`) are checked against
it — same itemsets, same supports, same ``(-support, size, items)``
rank order, and the same curve values (DESIGN.md §6).

The support threshold itself comes from the production ``_min_count``:
how a relative support becomes a count is a rule with its own tests,
not something the oracle should re-derive differently.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from repro.analysis.itemsets import (
    FrequentItemset,
    MiningResult,
    _min_count,
    mine_frequencies,
    mine_frequent_itemsets,
)


def eclat(
    transactions: Iterable[Iterable[int]],
    min_support: float,
    max_size: int | None = None,
) -> MiningResult:
    """Depth-first vertical mining with Python-set tidset intersections."""
    data = [frozenset(t) for t in transactions]
    n = len(data)
    if n == 0:
        return MiningResult((), 0, min_support)
    min_count = _min_count(min_support, n)

    tidsets: dict[int, set[int]] = {}
    for tid, transaction in enumerate(data):
        for item in transaction:
            tidsets.setdefault(item, set()).add(tid)

    frequent_items = sorted(
        item for item, tids in tidsets.items() if len(tids) >= min_count
    )
    found: dict[tuple[int, ...], int] = {}

    def extend(
        prefix: tuple[int, ...],
        candidates: list[tuple[int, set[int]]],
    ) -> None:
        for index, (item, tids) in enumerate(candidates):
            items = prefix + (item,)
            found[items] = len(tids)
            if max_size is not None and len(items) >= max_size:
                continue
            next_candidates = []
            for other, other_tids in candidates[index + 1:]:
                intersection = tids & other_tids
                if len(intersection) >= min_count:
                    next_candidates.append((other, intersection))
            if next_candidates:
                extend(items, next_candidates)

    extend((), [(item, tidsets[item]) for item in frequent_items])
    ranked = sorted(found.items(), key=lambda kv: (-kv[1], len(kv[0]), kv[0]))
    return MiningResult(
        itemsets=tuple(
            FrequentItemset(items=items, support=support)
            for items, support in ranked
        ),
        n_transactions=n,
        min_support=min_support,
    )


def assert_matches_oracle(
    transactions, min_support: float, max_size: int | None = None
) -> MiningResult:
    """Assert both production entry points equal the oracle; return it."""
    transactions = list(transactions)
    expected = eclat(transactions, min_support, max_size=max_size)
    mined = mine_frequent_itemsets(
        transactions, min_support, max_size=max_size
    )
    assert mined.itemsets == expected.itemsets
    assert mined.n_transactions == expected.n_transactions
    (frequencies,) = mine_frequencies(
        [transactions], min_support, max_size=max_size
    )
    assert np.array_equal(frequencies, np.array(expected.frequencies()))
    return expected
