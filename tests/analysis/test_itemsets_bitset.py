"""Property tests: the packed-bit miner equals the pure-Python oracle.

The production miner's contract (DESIGN.md §6) is *exact* equality with
the oracle in ``tests/analysis/oracle.py`` — same itemsets, same
supports, same ``(-support, size, items)`` rank order — on any input,
for both entry points (:func:`mine_frequent_itemsets` and
:func:`mine_frequencies`).  These tests pin that over randomized transaction
sets spanning sizes, densities and ``max_size`` caps, plus the
degenerate shapes that break bit-matrix code (empty input, empty
transactions, single transaction, items with large/sparse ids).
"""

from __future__ import annotations

import random

import pytest

from repro.analysis.itemsets import mine_frequencies, mine_frequent_itemsets
from repro.config import MiningConfig
from repro.errors import MiningError
from tests.analysis.oracle import assert_matches_oracle


def _random_transactions(
    rng: random.Random, n: int, n_items: int, density: float
) -> list[set[int]]:
    items = list(range(n_items))
    transactions = []
    for _ in range(n):
        size = min(n_items, max(0, int(rng.gauss(density * n_items, 2))))
        transactions.append(set(rng.sample(items, size)))
    return transactions


def _skewed_transactions(
    rng: random.Random, n: int, n_items: int, size: int
) -> list[set[int]]:
    """Zipf-weighted draws — the shape real recipe pools have."""
    items = list(range(n_items))
    weights = [1.0 / (rank + 1) for rank in range(n_items)]
    transactions = []
    for _ in range(n):
        transaction: set[int] = set()
        while len(transaction) < size:
            transaction.add(rng.choices(items, weights)[0])
        transactions.append(transaction)
    return transactions


@pytest.mark.parametrize("seed", range(8))
def test_bitset_equals_all_miners_randomized(seed):
    rng = random.Random(seed)
    n = rng.randint(1, 60)
    n_items = rng.randint(1, 24)
    density = rng.choice([0.1, 0.25, 0.4])
    transactions = _random_transactions(rng, n, n_items, density)
    min_support = rng.choice([0.02, 0.05, 0.1, 0.3, 0.75])
    max_size = rng.choice([None, 1, 2, 3])
    assert_matches_oracle(transactions, min_support, max_size=max_size)


@pytest.mark.parametrize("seed", range(4))
def test_bitset_equals_eclat_on_skewed_pools(seed):
    rng = random.Random(100 + seed)
    transactions = _skewed_transactions(rng, n=300, n_items=60, size=6)
    expected = assert_matches_oracle(transactions, 0.05)
    assert len(expected) > 0  # skewed pools must actually mine something


def test_bitset_empty_input():
    result = mine_frequent_itemsets([], 0.05)
    assert result.itemsets == ()
    assert result.n_transactions == 0


def test_bitset_all_empty_transactions():
    result = mine_frequent_itemsets([set(), set(), set()], 0.05)
    assert result.itemsets == ()
    assert result.n_transactions == 3
    assert_matches_oracle([set(), set(), set()], 0.05)


def test_bitset_single_transaction():
    expected = assert_matches_oracle([{3, 7, 11}], 0.5)
    assert len(expected) == 7  # every non-empty subset of three items


def test_bitset_sparse_large_item_ids():
    assert_matches_oracle([{10_000, 999_999}, {10_000}, {10_000, 5}], 0.3)


def test_bitset_duplicate_items_in_list_input():
    # Non-set inputs are deduplicated: a repeated id counts once.
    expected = assert_matches_oracle([[1, 1, 2], [2, 2, 2, 1], [1]], 0.3)
    assert {i.items: i.support for i in expected.itemsets}[(1,)] == 3


def test_bitset_max_size_caps_depth():
    transactions = [{1, 2, 3, 4}] * 10
    result = mine_frequent_itemsets(transactions, 0.5, max_size=2)
    assert max(itemset.size for itemset in result.itemsets) == 2
    assert_matches_oracle(transactions, 0.5, max_size=2)


def test_bitset_invalid_support():
    with pytest.raises(MiningError):
        mine_frequent_itemsets([{1}], 0.0)
    with pytest.raises(MiningError):
        mine_frequent_itemsets([{1}], 1.5)
    with pytest.raises(MiningError):
        mine_frequencies([[{1}]], min_support=1.5)


def test_unknown_algorithm_lists_bitset():
    with pytest.raises(ValueError) as excinfo:
        MiningConfig(algorithm="no-such-miner")
    assert "bitset" in str(excinfo.value)
