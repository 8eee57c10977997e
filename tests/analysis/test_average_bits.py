"""Bit-identity of array averaging against the plain per-curve loop.

:func:`~repro.analysis.rank_frequency.average_frequencies` sums a cell as
one zero-padded matrix over axis 0.  That equals adding the curves one
at a time only because numpy reduces axis 0 row after row; these tests
keep that loop as the reference and compare bytes, on ragged cells and
at every numpy version CI installs.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.analysis.itemsets import mine_frequencies
from repro.analysis.model_eval import model_curve_from_runs
from repro.analysis.rank_frequency import (
    RankFrequencyCurve,
    average_curves,
    average_frequencies,
)
from repro.config import MiningConfig


def _loop_average(runs: list[np.ndarray]) -> np.ndarray:
    """The reference: each curve added into running totals in turn."""
    max_len = max(len(run) for run in runs)
    if max_len == 0:
        return np.array([])
    totals = np.zeros(max_len)
    coverage = np.zeros(max_len)
    for run in runs:
        size = len(run)
        totals[:size] += run
        coverage[:size] += 1
    return np.minimum.accumulate(totals / np.maximum(coverage, 1))


_frequency = st.floats(0.0, 1.0).map(abs)  # no -0.0
_curve = st.lists(_frequency, max_size=30).map(
    lambda values: np.array(sorted(values, reverse=True), dtype=np.float64)
)
# Cells whose curves are at most one rank long: a lone column is where
# a matrix sum would turn pairwise.
_short_curve = st.lists(_frequency, max_size=1).map(
    lambda values: np.array(values, dtype=np.float64)
)
_cell = st.one_of(
    st.lists(_curve, min_size=1, max_size=40),
    st.lists(_short_curve, min_size=1, max_size=150),
)


def _ragged(lengths: list[int], seed: int = 0) -> list[np.ndarray]:
    rng = np.random.default_rng(seed)
    return [np.sort(rng.random(size))[::-1] for size in lengths]


@given(_cell)
@example([np.array([0.5, 0.25, 0.25])])  # a single run
@example([np.array([]), np.array([])])  # every run empty
@example([np.array([]), np.array([0.3, 0.1]), np.array([])])
@example(_ragged([1] * 100))  # 100 one-rank runs
@example(_ragged([0, 1, 1, 0, 1, 1, 1, 1, 1, 1, 1, 1], seed=1))
@example(_ragged([30, 2, 17, 0, 30, 5] * 10, seed=2))
@settings(max_examples=200, deadline=None)
def test_array_average_matches_the_loop_bit_for_bit(runs):
    expected = _loop_average(runs)
    got = average_frequencies(runs)
    assert got.dtype == np.float64
    assert got.tobytes() == expected.tobytes()
    curves = [RankFrequencyCurve(f"c#{i}", run) for i, run in enumerate(runs)]
    assert average_curves(curves, "c").frequencies.tobytes() == (
        expected.tobytes()
    )


def _pools(seed: int, n_runs: int) -> list[list[frozenset[int]]]:
    rng = np.random.default_rng(seed)
    return [
        [
            frozenset(rng.choice(12, size=rng.integers(1, 5), replace=False).tolist())
            for _ in range(rng.integers(5, 40))
        ]
        for _ in range(n_runs)
    ]


@pytest.mark.parametrize("seed, n_runs", [(0, 1), (1, 9), (2, 100)])
def test_model_curve_from_runs_is_unchanged(seed, n_runs):
    """``model_eval`` averages its mined runs as before: each run wrapped
    in a curve, then summed by the loop."""
    pools = _pools(seed, n_runs)
    mining = MiningConfig(min_support=0.1)
    mined = mine_frequencies(pools, min_support=mining.min_support)
    expected = _loop_average(
        [RankFrequencyCurve(f"M#{i}", run).frequencies
         for i, run in enumerate(mined)]
    )
    curve = model_curve_from_runs(pools, "M", mining)
    assert curve.label == "M"
    assert curve.frequencies.tobytes() == expected.tobytes()
