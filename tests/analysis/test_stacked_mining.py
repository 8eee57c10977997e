"""The run-stacked pass: many runs mined at once, each as if alone.

:func:`mine_frequencies` mines every run of a cell in the same
level-wise passes (DESIGN.md §6).  Each run keeps its own minimum
count, padding and size cap, so its curve must equal the oracle's
curve for that run alone — and the one-run entry point's — bit for
bit.  Also here: the ``MAX_ITEMSETS`` guard on both paths.
"""

from __future__ import annotations

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import itemsets
from repro.analysis.itemsets import mine_frequencies, mine_frequent_itemsets
from repro.errors import MiningError
from repro.transactions import TransactionPlane
from tests.analysis.oracle import eclat


def _oracle_frequencies(run, min_support, max_size=None) -> np.ndarray:
    return np.array(eclat(run, min_support, max_size=max_size).frequencies())


def _assert_each_run_matches(runs, min_support, max_size=None):
    stacked = mine_frequencies(runs, min_support, max_size=max_size)
    assert len(stacked) == len(runs)
    for run, frequencies in zip(runs, stacked):
        expected = _oracle_frequencies(run, min_support, max_size)
        assert frequencies.dtype == np.float64
        assert np.array_equal(frequencies, expected)
        alone = mine_frequent_itemsets(run, min_support, max_size=max_size)
        assert np.array_equal(frequencies, np.array(alone.frequencies()))
    return stacked


def _random_run(rng: random.Random, n: int, n_items: int) -> list[set[int]]:
    weights = [1.0 / (rank + 1) for rank in range(n_items)]
    return [
        set(rng.choices(range(n_items), weights, k=rng.randint(0, 6)))
        for _ in range(n)
    ]


@pytest.mark.parametrize("seed", range(6))
def test_ragged_stack_matches_oracle_per_run(seed):
    # Sizes straddle byte and 64-bit word boundaries, so runs differ in
    # minimum count and in how much padding the stack adds.
    rng = random.Random(seed)
    sizes = rng.sample([1, 7, 8, 9, 40, 63, 64, 65, 130, 200], 5)
    runs = [_random_run(rng, n, rng.randint(3, 20)) for n in sizes]
    min_support = rng.choice([0.05, 0.1, 0.25])
    stacked = _assert_each_run_matches(runs, min_support)
    assert any(frequencies.size > 1 for frequencies in stacked)


def test_empty_and_barren_runs_in_a_stack():
    rng = random.Random(7)
    runs = [
        _random_run(rng, 50, 8),
        [],  # an empty run
        [{item} for item in range(40)],  # no item reaches the count
        [set(), set()],  # transactions without items
        _random_run(rng, 90, 12),
    ]
    stacked = _assert_each_run_matches(runs, 0.1)
    assert [frequencies.size for frequencies in stacked[1:4]] == [0, 0, 0]
    assert stacked[0].size and stacked[4].size


@pytest.mark.parametrize("max_size", [1, 2, 3])
def test_max_size_caps_every_run(max_size):
    rng = random.Random(11)
    runs = [[{1, 2, 3, 4}] * 10, _random_run(rng, 60, 6), [{5, 6}] * 3]
    _assert_each_run_matches(runs, 0.2, max_size=max_size)


def test_stacked_planes_and_lists_agree():
    rng = random.Random(3)
    runs = [_random_run(rng, n, 10) for n in (30, 70)]
    planes = [TransactionPlane.of(run) for run in runs]
    for ours, theirs in zip(
        mine_frequencies(planes, 0.1), mine_frequencies(runs, 0.1)
    ):
        assert np.array_equal(ours, theirs)


def test_no_runs_and_bad_arguments():
    assert mine_frequencies([], 0.05) == []
    with pytest.raises(MiningError):
        mine_frequencies([[{1}]], 1.5)
    with pytest.raises(MiningError):
        mine_frequencies([[{1}]], 0.5, max_size=0)


@settings(max_examples=40, deadline=None)
@given(
    st.lists(
        st.lists(
            st.sets(st.integers(0, 9), max_size=5), min_size=0, max_size=40
        ),
        min_size=1,
        max_size=4,
    ),
    st.sampled_from([0.05, 0.2, 0.5]),
    st.sampled_from([None, 2]),
)
def test_stack_matches_oracle_property(runs, min_support, max_size):
    _assert_each_run_matches(runs, min_support, max_size=max_size)


# ---------------------------------------------------------------------------
# The MAX_ITEMSETS guard
# ---------------------------------------------------------------------------

# {1, 2, 3} in every transaction: 7 frequent itemsets, 3 of them single.
DENSE = [{1, 2, 3}] * 4


def test_cap_allows_exactly_max_itemsets(monkeypatch):
    monkeypatch.setattr(itemsets, "MAX_ITEMSETS", 7)
    assert len(mine_frequent_itemsets(DENSE, 0.5)) == 7
    assert mine_frequencies([DENSE, DENSE], 0.5)[1].size == 7


@pytest.mark.parametrize("cap", [2, 6])
def test_cap_raises_on_the_one_run_path(monkeypatch, cap):
    # cap 2 trips on the single items, cap 6 on the last level.
    monkeypatch.setattr(itemsets, "MAX_ITEMSETS", cap)
    with pytest.raises(MiningError, match="itemsets"):
        mine_frequent_itemsets(DENSE, 0.5)
    with pytest.raises(MiningError, match="itemsets"):
        mine_frequencies([DENSE], 0.5)


def test_cap_applies_per_run_on_the_stacked_path(monkeypatch):
    # Two runs of 3 itemsets each stay under a cap of 5 although the
    # stack holds 6; a run of 7 does not.
    monkeypatch.setattr(itemsets, "MAX_ITEMSETS", 5)
    pair = [{1, 2}] * 4
    assert [f.size for f in mine_frequencies([pair, pair], 0.5)] == [3, 3]
    with pytest.raises(MiningError, match="itemsets"):
        mine_frequencies([pair, DENSE, pair], 0.5)
