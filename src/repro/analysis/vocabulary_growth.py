"""Vocabulary growth (Heaps-law) analysis.

Complex-systems studies of cuisine (Kinouchi et al. [7], the paper's
Sec. V basis) characterize culinary evolution as *non-equilibrium*: the
ingredient vocabulary keeps growing as recipes accumulate, following a
sub-linear Heaps-type law ``V(n) ≈ K · n^beta`` with ``beta < 1``.  This
module measures that curve for empirical cuisines and for model runs —
Algorithm 1's ∂-vs-φ pool growth produces exactly such a trajectory.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from repro.analysis.least_squares import linear_fit
from repro.corpus.dataset import CuisineView
from repro.errors import AnalysisError
from repro.transactions import TransactionPlane

__all__ = ["HeapsFit", "vocabulary_growth_curve", "fit_heaps", "growth_from_sets"]


@dataclass(frozen=True)
class HeapsFit:
    """Heaps-law fit ``V(n) = K * n^beta``.

    Attributes:
        k: Prefactor.
        beta: Growth exponent (sub-linear growth when < 1).
        r_squared: Goodness of fit in log-log space.
    """

    k: float
    beta: float
    r_squared: float


def growth_from_sets(
    recipe_sets: TransactionPlane | Iterable[frozenset[int]],
) -> np.ndarray:
    """Distinct-ingredient count after each recipe, in given order.

    Read from the recipes' transaction plane (a plane passes through
    as it is): the vocabulary after recipe ``i`` counts the ingredients
    whose first recipe is at most ``i``.

    Args:
        recipe_sets: Recipes as ingredient-id sets, in arrival order.

    Returns:
        ``(n_recipes,)`` int64 array: ``result[i]`` is the vocabulary
        size after the first ``i + 1`` recipes.
    """
    lengths, positions = TransactionPlane.of(recipe_sets).csr()
    row_of = np.repeat(np.arange(lengths.size), lengths)
    _ids, first = np.unique(positions, return_index=True)
    return np.cumsum(np.bincount(row_of[first], minlength=lengths.size))


def vocabulary_growth_curve(view: CuisineView) -> np.ndarray:
    """Vocabulary growth for an empirical cuisine in stored order."""
    if not view:
        raise AnalysisError(f"cuisine {view.region_code!r} has no recipes")
    return growth_from_sets(view.transaction_plane())


def fit_heaps(growth: Sequence[int] | np.ndarray) -> HeapsFit:
    """Least-squares fit of ``V(n) = K n^beta`` in log-log space.

    Raises:
        AnalysisError: On fewer than three points.
    """
    values = np.asarray(growth, dtype=float)
    if values.size < 3:
        raise AnalysisError("need at least three growth points to fit")
    n = np.arange(1, values.size + 1, dtype=float)
    slope, intercept, rvalue = linear_fit(np.log(n), np.log(values))
    return HeapsFit(
        k=float(np.exp(intercept)),
        beta=slope,
        r_squared=rvalue**2,
    )
