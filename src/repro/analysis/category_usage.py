"""Per-category ingredient usage (Fig. 2).

Fig. 2 shows, for each of the 21 categories, boxplots over cuisines of
the *average number of ingredients used per recipe from that category*.
We compute the per-(cuisine, category) means plus five-number summaries
across cuisines, which is all the figure displays.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.corpus.dataset import RecipeDataset
from repro.errors import AnalysisError
from repro.lexicon.categories import Category
from repro.lexicon.lexicon import Lexicon

__all__ = [
    "CategoryUsage",
    "BoxplotStats",
    "category_usage_matrix",
    "category_boxplots",
    "dominant_categories",
]


@dataclass(frozen=True)
class CategoryUsage:
    """Mean per-recipe usage of one category in one cuisine."""

    region_code: str
    category: Category
    mean_per_recipe: float


@dataclass(frozen=True)
class BoxplotStats:
    """Five-number summary of per-cuisine means for one category.

    Attributes mirror a standard boxplot: quartiles plus whisker ends
    (1.5 IQR convention) and outliers.
    """

    category: Category
    minimum: float
    q1: float
    median: float
    q3: float
    maximum: float
    whisker_low: float
    whisker_high: float
    outliers: tuple[float, ...]
    mean: float

    @classmethod
    def from_values(cls, category: Category, values: np.ndarray) -> "BoxplotStats":
        if values.size == 0:
            raise AnalysisError(f"no values for category {category}")
        q1, median, q3 = np.percentile(values, [25, 50, 75])
        iqr = q3 - q1
        low_limit = q1 - 1.5 * iqr
        high_limit = q3 + 1.5 * iqr
        inside = values[(values >= low_limit) & (values <= high_limit)]
        whisker_low = float(inside.min()) if inside.size else float(values.min())
        whisker_high = float(inside.max()) if inside.size else float(values.max())
        outliers = tuple(
            float(v) for v in values[(values < low_limit) | (values > high_limit)]
        )
        return cls(
            category=category,
            minimum=float(values.min()),
            q1=float(q1),
            median=float(median),
            q3=float(q3),
            maximum=float(values.max()),
            whisker_low=whisker_low,
            whisker_high=whisker_high,
            outliers=outliers,
            mean=float(values.mean()),
        )


def category_usage_matrix(
    dataset: RecipeDataset, lexicon: Lexicon
) -> dict[str, dict[Category, float]]:
    """region code -> category -> mean ingredients-per-recipe.

    Every category appears in every cuisine's row (0.0 when unused), so
    downstream consumers can rely on a dense matrix.
    """
    id_to_category = lexicon.id_to_category_array()
    matrix: dict[str, dict[Category, float]] = {}
    for code in dataset.region_codes():
        view = dataset.cuisine(code)
        totals = {category: 0 for category in Category}
        # Rows are duplicate-free, so an ingredient's recipe count is its
        # number of uses.
        for ingredient_id, uses in view.ingredient_recipe_counts().items():
            totals[id_to_category[ingredient_id]] += uses
        n = max(len(view), 1)
        matrix[code] = {
            category: totals[category] / n for category in Category
        }
    return matrix


def category_boxplots(
    dataset: RecipeDataset, lexicon: Lexicon
) -> dict[Category, BoxplotStats]:
    """Fig. 2: per-category boxplot stats across cuisines."""
    matrix = category_usage_matrix(dataset, lexicon)
    if not matrix:
        raise AnalysisError("dataset has no cuisines")
    return {
        category: BoxplotStats.from_values(
            category,
            np.array([row[category] for row in matrix.values()]),
        )
        for category in Category
    }


def dominant_categories(
    dataset: RecipeDataset, lexicon: Lexicon, k: int = 7
) -> list[Category]:
    """Categories with the highest median per-recipe usage.

    The paper singles out Vegetable, Additive, Spice, Dairy, Herb, Plant
    and Fruit as the globally dominant seven.
    """
    boxplots = category_boxplots(dataset, lexicon)
    ranked = sorted(
        boxplots.values(), key=lambda stats: (-stats.median, stats.category.value)
    )
    return [stats.category for stats in ranked[:k]]
