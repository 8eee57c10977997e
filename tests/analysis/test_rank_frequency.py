"""Tests for rank-frequency curves."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.itemsets import mine_frequent_itemsets
from repro.analysis.rank_frequency import (
    RankFrequencyCurve,
    average_curves,
    curve_from_counts,
    curve_from_mining,
)
from repro.errors import AnalysisError


def test_curve_requires_descending():
    with pytest.raises(AnalysisError):
        RankFrequencyCurve("x", np.array([0.1, 0.5]))


def test_curve_accepts_descending():
    curve = RankFrequencyCurve("x", np.array([0.5, 0.3, 0.3, 0.1]))
    assert len(curve) == 4
    assert curve.max_rank == 4


def test_frequency_at_one_based():
    curve = RankFrequencyCurve("x", np.array([0.5, 0.3]))
    assert curve.frequency_at(1) == pytest.approx(0.5)
    assert curve.frequency_at(2) == pytest.approx(0.3)
    with pytest.raises(AnalysisError):
        curve.frequency_at(0)
    with pytest.raises(AnalysisError):
        curve.frequency_at(3)


def test_truncate():
    curve = RankFrequencyCurve("x", np.array([0.5, 0.3, 0.2]))
    assert len(curve.truncate(2)) == 2
    assert len(curve.truncate(10)) == 3
    with pytest.raises(AnalysisError):
        curve.truncate(-1)


def test_as_series():
    curve = RankFrequencyCurve("x", np.array([0.5, 0.3]))
    assert curve.as_series() == [(1, 0.5), (2, 0.3)]


def test_curve_from_mining():
    result = mine_frequent_itemsets(
        [{1, 2}, {1, 2}, {1}, {3}], min_support=0.25
    )
    curve = curve_from_mining(result, "test")
    assert curve.frequencies[0] == pytest.approx(0.75)  # item 1
    assert curve.label == "test"


def test_curve_from_counts():
    curve = curve_from_counts([5, 10, 1], n_transactions=10, label="c")
    assert list(curve.frequencies) == [1.0, 0.5, 0.1]
    with pytest.raises(AnalysisError):
        curve_from_counts([1], 0, "c")


def test_average_curves_rank_aligned():
    a = RankFrequencyCurve("a", np.array([1.0, 0.5]))
    b = RankFrequencyCurve("b", np.array([0.8, 0.4, 0.2]))
    mean = average_curves([a, b], "mean")
    assert mean.frequencies[0] == pytest.approx(0.9)
    assert mean.frequencies[1] == pytest.approx(0.45)
    # Rank 3 present only in b; monotone restoration caps it at rank 2.
    assert mean.frequencies[2] <= mean.frequencies[1]
    assert mean.label == "mean"


def test_average_curves_empty_raises():
    with pytest.raises(AnalysisError):
        average_curves([], "x")


def test_average_of_empty_curves():
    a = RankFrequencyCurve("a", np.array([]))
    mean = average_curves([a, a], "m")
    assert len(mean) == 0


@given(
    st.lists(
        st.lists(
            st.floats(0.001, 1.0), min_size=0, max_size=20
        ).map(lambda xs: sorted(xs, reverse=True)),
        min_size=1,
        max_size=6,
    )
)
@settings(max_examples=60)
def test_average_always_monotone(curve_values):
    curves = [
        RankFrequencyCurve(f"c{i}", np.array(values))
        for i, values in enumerate(curve_values)
    ]
    mean = average_curves(curves, "mean")
    diffs = np.diff(mean.frequencies)
    assert (diffs <= 1e-12).all()
