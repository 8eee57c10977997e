"""Single-ingredient rank-frequency distributions.

Sec. IV opens from the established result (refs [3]-[8]) that "the
pattern of ingredient popularity (rank-frequency distribution) is
consistent across different regions" even though the popular ingredients
themselves differ.  This module computes those curves and a power-law
(Zipf) fit so the invariant can be verified on any corpus.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.analysis.least_squares import linear_fit
from repro.analysis.mae import pairwise_distance_matrix
from repro.analysis.rank_frequency import RankFrequencyCurve, curve_from_counts
from repro.corpus.dataset import CuisineView, RecipeDataset
from repro.errors import AnalysisError

__all__ = [
    "ZipfFit",
    "ingredient_rank_frequency",
    "cuisine_ingredient_curves",
    "fit_zipf",
    "ingredient_invariance",
]


@dataclass(frozen=True)
class ZipfFit:
    """Power-law fit of a rank-frequency curve.

    ``log f = intercept - exponent * log rank`` fitted by least squares
    over the full support.

    Attributes:
        exponent: The Zipf exponent (positive for decaying curves).
        intercept: Fitted log-intercept.
        r_squared: Goodness of fit in log-log space.
        n_ranks: Ranks used in the fit.
    """

    exponent: float
    intercept: float
    r_squared: float
    n_ranks: int


def ingredient_rank_frequency(view: CuisineView) -> RankFrequencyCurve:
    """Rank-frequency curve of single-ingredient usage in one cuisine.

    Frequencies are recipe counts normalized by the cuisine's total
    recipe count (an ingredient used in every recipe has frequency 1).
    """
    counts = view.ingredient_recipe_counts()
    if not counts:
        raise AnalysisError(
            f"cuisine {view.region_code!r} has no ingredient usage"
        )
    return curve_from_counts(
        counts.values(), n_transactions=view.n_recipes, label=view.region_code
    )


def cuisine_ingredient_curves(
    dataset: RecipeDataset,
) -> dict[str, RankFrequencyCurve]:
    """Per-cuisine single-ingredient curves, keyed by region code."""
    return {
        code: ingredient_rank_frequency(dataset.cuisine(code))
        for code in dataset.region_codes()
    }


def fit_zipf(curve: RankFrequencyCurve) -> ZipfFit:
    """Least-squares power-law fit in log-log space.

    Raises:
        AnalysisError: If fewer than three positive ranks are available.
    """
    frequencies = curve.frequencies
    positive = frequencies > 0
    if int(positive.sum()) < 3:
        raise AnalysisError(
            f"curve {curve.label!r} has fewer than 3 positive ranks"
        )
    ranks = np.arange(1, len(frequencies) + 1, dtype=float)[positive]
    log_rank = np.log(ranks)
    log_freq = np.log(frequencies[positive])
    slope, intercept, rvalue = linear_fit(log_rank, log_freq)
    return ZipfFit(
        exponent=-slope,
        intercept=intercept,
        r_squared=rvalue**2,
        n_ranks=int(positive.sum()),
    )


def ingredient_invariance(dataset: RecipeDataset) -> dict:
    """The refs [3]-[8] invariant, quantified.

    Returns a dict with the per-cuisine Zipf exponents, their spread,
    and the average pairwise curve distance — small spread and distance
    = the invariant holds.
    """
    curves = cuisine_ingredient_curves(dataset)
    if len(curves) < 2:
        raise AnalysisError("need at least two cuisines")
    fits = {code: fit_zipf(curve) for code, curve in curves.items()}
    exponents = np.array([fit.exponent for fit in fits.values()])
    distances = pairwise_distance_matrix(list(curves.values()))
    return {
        "exponents": {code: fit.exponent for code, fit in fits.items()},
        "exponent_mean": float(exponents.mean()),
        "exponent_std": float(exponents.std()),
        "avg_pairwise_distance": distances.average(),
    }
