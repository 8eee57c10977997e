"""Tests for frequent-itemset mining, incl. equality with the test oracle."""

from __future__ import annotations

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.itemsets import (
    CATEGORY_INDEX,
    MiningResult,
    _min_count,
    category_from_index,
    category_transactions,
    ingredient_transactions,
    mine_frequencies,
    mine_frequent_itemsets,
)
from repro.config import MiningConfig
from repro.errors import MiningError
from repro.lexicon.categories import Category
from tests.analysis.oracle import assert_matches_oracle, eclat

TRANSACTIONS = [
    {1, 2, 3},
    {1, 2},
    {1, 3},
    {2, 3},
    {1, 2, 3, 4},
    {4, 5},
]


def _as_dict(result):
    return {itemset.items: itemset.support for itemset in result.itemsets}


def test_eclat_hand_computed():
    # Supports: 1->4, 2->4, 3->4, {1,2}->3, {1,3}->3, {2,3}->3, {1,2,3}->2
    # min_count = ceil(0.5*6) = 3.  The oracle and the production miner
    # must both reproduce the hand count.
    for result in (
        eclat(TRANSACTIONS, min_support=0.5),
        mine_frequent_itemsets(TRANSACTIONS, min_support=0.5),
    ):
        assert _as_dict(result) == {
            (1,): 4, (2,): 4, (3,): 4,
            (1, 2): 3, (1, 3): 3, (2, 3): 3,
        }


def test_rank_order():
    result = mine_frequent_itemsets(TRANSACTIONS, min_support=0.5)
    supports = [itemset.support for itemset in result.itemsets]
    assert supports == sorted(supports, reverse=True)
    # Ties broken by size then lexicographic items.
    assert result.itemsets[0].items == (1,)


def test_max_size_cap():
    result = mine_frequent_itemsets(TRANSACTIONS, min_support=0.3, max_size=1)
    assert all(itemset.size == 1 for itemset in result.itemsets)


@pytest.mark.parametrize("max_size", [0, -3])
def test_max_size_below_one_rejected(max_size):
    transactions = [{1, 2}, {1, 2}, {1}]
    with pytest.raises(MiningError, match="max_size"):
        mine_frequent_itemsets(transactions, 0.5, max_size=max_size)
    with pytest.raises(MiningError, match="max_size"):
        mine_frequencies([transactions], 0.5, max_size=max_size)


def test_min_support_one_returns_universal_sets():
    result = mine_frequent_itemsets(TRANSACTIONS, min_support=1.0)
    assert _as_dict(result) == {}


def test_empty_transactions():
    for result in (
        eclat([], min_support=0.5),
        mine_frequent_itemsets([], min_support=0.5),
    ):
        assert len(result) == 0
        assert result.n_transactions == 0
    (frequencies,) = mine_frequencies([[]], min_support=0.5)
    assert frequencies.size == 0


def test_invalid_support_rejected():
    with pytest.raises(MiningError):
        mine_frequent_itemsets(TRANSACTIONS, min_support=0.0)
    with pytest.raises(MiningError):
        mine_frequent_itemsets(TRANSACTIONS, min_support=1.5)


def test_unknown_algorithm():
    # There is one miner: naming another is a config error raised before
    # any work, and the mining call itself takes no miner name.
    with pytest.raises(ValueError):
        MiningConfig(algorithm="fp-dream")
    with pytest.raises(TypeError):
        mine_frequent_itemsets(TRANSACTIONS, 0.5, algorithm="bitset")


def test_mining_result_has_no_algorithm_field():
    names = {field.name for field in dataclasses.fields(MiningResult)}
    assert names == {"itemsets", "n_transactions", "min_support"}


@pytest.mark.parametrize(
    "min_support, n, count",
    [(0.07, 100, 7), (0.14, 100, 14), (0.28, 100, 28), (0.05, 100, 5),
     (0.5, 6, 3), (1.0, 3, 3), (0.001, 10, 1)],
)
def test_min_count_is_exact_at_decimal_boundaries(min_support, n, count):
    # 0.07 * 100 == 7.000000000000001 in floating point; a float ceiling
    # would demand 8 of 100 recipes for a 7% threshold.
    assert _min_count(min_support, n) == count


def test_item_at_exact_support_boundary_is_frequent():
    transactions = [{1}] * 7 + [{2}] * 93
    result = mine_frequent_itemsets(transactions, min_support=0.07)
    assert _as_dict(result) == {(2,): 93, (1,): 7}
    assert_matches_oracle(transactions, 0.07)


def test_paper_threshold_count_matches_float_ceiling():
    # The exact rule must not move the paper's 0.05 threshold: it agrees
    # with the float ceiling for every pool size below 200,000.
    n = np.arange(1, 200_000)
    assert np.array_equal(np.ceil(0.05 * n).astype(np.int64), (n + 19) // 20)
    for size in range(1, 200_000, 997):
        assert _min_count(0.05, size) == math.ceil(0.05 * size)


def test_relative_support_and_frequencies():
    result = mine_frequent_itemsets(TRANSACTIONS, min_support=0.5)
    top = result.itemsets[0]
    assert top.relative_support(result.n_transactions) == pytest.approx(4 / 6)
    frequencies = result.frequencies()
    assert frequencies[0] == pytest.approx(4 / 6)
    assert len(frequencies) == len(result)


def test_of_size():
    result = mine_frequent_itemsets(TRANSACTIONS, min_support=0.5)
    assert len(result.of_size(1)) == 3
    assert len(result.of_size(2)) == 3


@st.composite
def transactions_strategy(draw):
    n = draw(st.integers(1, 25))
    return [
        draw(st.sets(st.integers(0, 9), min_size=1, max_size=6))
        for _ in range(n)
    ]


@given(transactions_strategy(), st.floats(0.05, 1.0))
@settings(max_examples=100, deadline=None)
def test_all_miners_agree(transactions, min_support):
    assert_matches_oracle(transactions, min_support)


@given(transactions_strategy(), st.floats(0.1, 1.0), st.integers(1, 4))
@settings(max_examples=60, deadline=None)
def test_miners_agree_with_max_size(transactions, min_support, max_size):
    assert_matches_oracle(transactions, min_support, max_size=max_size)


def test_miner_on_real_cuisine_matches_oracle(small_corpus):
    transactions = ingredient_transactions(small_corpus.cuisine("KOR"))
    expected = assert_matches_oracle(transactions, 0.05)
    assert len(expected) > 0


@given(transactions_strategy())
@settings(max_examples=50, deadline=None)
def test_downward_closure(transactions):
    """Every subset of a frequent itemset is frequent (Apriori property)."""
    result = mine_frequent_itemsets(transactions, min_support=0.3)
    found = _as_dict(result)
    for items, support in found.items():
        for drop in range(len(items)):
            subset = items[:drop] + items[drop + 1:]
            if subset:
                assert subset in found
                assert found[subset] >= support


def test_ingredient_transactions(tiny_dataset):
    transactions = ingredient_transactions(tiny_dataset.cuisine("ITA"))
    assert frozenset({0, 1, 2, 7}) in transactions
    assert len(transactions) == 4


def test_category_transactions(tiny_dataset, tiny_lexicon):
    transactions = category_transactions(
        tiny_dataset.cuisine("KOR"), tiny_lexicon
    )
    veg = CATEGORY_INDEX[Category.VEGETABLE]
    spice = CATEGORY_INDEX[Category.SPICE]
    assert frozenset({veg, spice}) in transactions


def test_category_index_roundtrip():
    for category, index in CATEGORY_INDEX.items():
        assert category_from_index(index) is category
    with pytest.raises(MiningError):
        category_from_index(999)


def test_paper_threshold_on_synthetic_cuisine(small_corpus):
    """5% threshold mining yields a meaningful, ranked combination set."""
    transactions = ingredient_transactions(small_corpus.cuisine("ITA"))
    result = mine_frequent_itemsets(transactions, min_support=0.05)
    assert len(result) > 50
    assert any(itemset.size >= 2 for itemset in result.itemsets)
    frequencies = result.frequencies()
    assert frequencies == sorted(frequencies, reverse=True)
