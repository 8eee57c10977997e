"""Recipe size distributions (Fig. 1).

The paper reports that recipe sizes are Gaussian-like, bounded in
[2, 38], mean ≈ 9, and that the per-cuisine histograms are homogeneous.
This module computes the per-cuisine and aggregate histograms plus the
maximum-likelihood Gaussian fit (sample mean, and the standard deviation
with divisor n) so the ``fig1`` experiment can report both the curves
and the fitted parameters.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.corpus.dataset import RecipeDataset
from repro.errors import AnalysisError

__all__ = [
    "SizeDistribution",
    "size_distribution",
    "cuisine_size_distributions",
    "aggregate_size_distribution",
]


@dataclass(frozen=True)
class SizeDistribution:
    """A recipe-size histogram with a Gaussian fit.

    Attributes:
        label: Cuisine code or ``"ALL"`` for the aggregate.
        sizes: Histogram support (distinct sizes, ascending).
        counts: Recipe counts per size.
        fractions: ``counts`` normalized by total recipes.
        mean: Sample mean size.
        std: Sample standard deviation.
        min_size: Smallest observed size.
        max_size: Largest observed size.
        gaussian_mu: Fitted normal location.
        gaussian_sigma: Fitted normal scale.
    """

    label: str
    sizes: np.ndarray
    counts: np.ndarray
    fractions: np.ndarray
    mean: float
    std: float
    min_size: int
    max_size: int
    gaussian_mu: float
    gaussian_sigma: float

    @property
    def n_recipes(self) -> int:
        return int(self.counts.sum())

    def fraction_at(self, size: int) -> float:
        """Fraction of recipes having exactly ``size`` ingredients."""
        index = np.searchsorted(self.sizes, size)
        if index < self.sizes.size and self.sizes[index] == size:
            return float(self.fractions[index])
        return 0.0


def size_distribution(sizes: np.ndarray, label: str) -> SizeDistribution:
    """Build a :class:`SizeDistribution` from raw sizes."""
    if sizes.size == 0:
        raise AnalysisError(f"no sizes to analyze for {label!r}")
    values, counts = np.unique(sizes, return_counts=True)
    # Maximum-likelihood normal fit, in scipy.stats.norm.fit's operation order.
    mu = sizes.mean()
    sigma = np.sqrt(((sizes - mu) ** 2).mean())
    return SizeDistribution(
        label=label,
        sizes=values.astype(np.int64),
        counts=counts.astype(np.int64),
        fractions=counts / counts.sum(),
        mean=float(sizes.mean()),
        std=float(sizes.std()),
        min_size=int(values.min()),
        max_size=int(values.max()),
        gaussian_mu=float(mu),
        gaussian_sigma=float(sigma),
    )


def cuisine_size_distributions(
    dataset: RecipeDataset,
) -> dict[str, SizeDistribution]:
    """Per-cuisine Fig. 1 curves, keyed by region code."""
    return {
        code: size_distribution(dataset.cuisine(code).sizes(), code)
        for code in dataset.region_codes()
    }


def aggregate_size_distribution(dataset: RecipeDataset) -> SizeDistribution:
    """The Fig. 1 inset: all cuisines pooled."""
    return size_distribution(dataset.sizes(), "ALL")
