"""Rank-frequency distributions (Secs. IV, VI).

A rank-frequency curve lists normalized frequencies in descending order:
``curve[r]`` is the relative support of the rank-``r`` most frequent
combination (or ingredient).  The paper normalizes by the cuisine's total
recipe count and compares curves across cuisines (Fig. 3) and between
empirical data and evolution models (Fig. 4).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from repro.analysis.itemsets import MiningResult
from repro.errors import AnalysisError

__all__ = [
    "RankFrequencyCurve",
    "curve_from_mining",
    "curve_from_counts",
    "average_curves",
    "average_frequencies",
]


@dataclass(frozen=True)
class RankFrequencyCurve:
    """A normalized rank-frequency curve.

    Attributes:
        label: Cuisine code, model name, or other series label.
        frequencies: Descending normalized frequencies; index = rank - 1.
    """

    label: str
    frequencies: np.ndarray

    def __post_init__(self) -> None:
        freqs = np.asarray(self.frequencies, dtype=np.float64)
        if freqs.ndim != 1:
            raise AnalysisError("frequencies must be one-dimensional")
        if freqs.size and np.any(np.diff(freqs) > 1e-12):
            raise AnalysisError(
                f"curve {self.label!r} is not in descending rank order"
            )
        object.__setattr__(self, "frequencies", freqs)

    def __len__(self) -> int:
        return int(self.frequencies.size)

    @property
    def max_rank(self) -> int:
        """The lowest (deepest) rank present."""
        return len(self)

    def truncate(self, max_rank: int) -> "RankFrequencyCurve":
        """The curve's first ``max_rank`` ranks."""
        if max_rank < 0:
            raise AnalysisError(f"max_rank must be >= 0, got {max_rank}")
        return RankFrequencyCurve(self.label, self.frequencies[:max_rank])

    def frequency_at(self, rank: int) -> float:
        """Frequency at 1-based ``rank``."""
        if rank < 1 or rank > len(self):
            raise AnalysisError(
                f"rank {rank} out of range [1, {len(self)}] for "
                f"{self.label!r}"
            )
        return float(self.frequencies[rank - 1])

    def as_series(self) -> list[tuple[int, float]]:
        """``(rank, frequency)`` pairs, 1-based ranks."""
        return [
            (rank, float(freq))
            for rank, freq in enumerate(self.frequencies, start=1)
        ]


def curve_from_mining(result: MiningResult, label: str) -> RankFrequencyCurve:
    """Rank-frequency curve of a mining result (Fig. 3/4 series)."""
    return RankFrequencyCurve(label, np.array(result.frequencies()))


def curve_from_counts(
    counts: Iterable[int], n_transactions: int, label: str
) -> RankFrequencyCurve:
    """Curve from raw occurrence counts (e.g. single-ingredient usage)."""
    if n_transactions <= 0:
        raise AnalysisError(f"n_transactions must be > 0, got {n_transactions}")
    values = np.array(sorted(counts, reverse=True), dtype=np.float64)
    return RankFrequencyCurve(label, values / n_transactions)


def average_frequencies(runs: Sequence[np.ndarray]) -> np.ndarray:
    """Rank-aligned mean of several runs' descending frequency arrays.

    Rank ``r`` of the output is the mean frequency at rank ``r`` over
    the runs that reach that rank.  The runs are laid into a
    zero-padded ``(runs, max_rank + 1)`` matrix and summed over axis 0,
    which numpy reduces row after row: each rank's total is the same
    left-to-right sum, bit for bit, as adding the runs one at a time
    (adding a padded 0.0 changes no total but a -0.0, which no
    frequency is).  The spare zero column keeps that so at
    ``max_rank`` 1, where a lone column would be summed as one
    contiguous vector, pairwise.

    Raises:
        AnalysisError: On zero runs.
    """
    if not runs:
        raise AnalysisError("cannot average zero curves")
    lengths = np.fromiter((len(run) for run in runs), np.intp, len(runs))
    max_len = int(lengths.max())
    if max_len == 0:
        return np.array([])
    matrix = np.zeros((len(runs), max_len + 1))
    matrix[np.arange(max_len + 1) < lengths[:, None]] = np.concatenate(runs)
    # Runs reaching rank r: those longer than r.
    coverage = np.cumsum(np.bincount(lengths, minlength=max_len + 1)[::-1])
    mean = matrix.sum(axis=0)[:max_len] / np.maximum(coverage[-2::-1], 1)
    # Rank-aligned averaging over ragged curves can produce tiny local
    # inversions where coverage drops; restore monotonicity.
    return np.minimum.accumulate(mean)


def average_curves(
    curves: Sequence[RankFrequencyCurve], label: str
) -> RankFrequencyCurve:
    """Rank-aligned mean of several curves (:func:`average_frequencies`).

    Used to aggregate the 100 model runs (Sec. V: "we create 100 such
    sets ... and study the aggregated statistics").
    """
    return RankFrequencyCurve(
        label, average_frequencies([curve.frequencies for curve in curves])
    )
