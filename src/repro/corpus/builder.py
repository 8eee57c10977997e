"""The data compilation (ETL) pipeline of Sec. II.

Turns raw website records into a standardized :class:`RecipeDataset`:

1. resolve each free-text ingredient mention through the aliasing
   protocol against the lexicon;
2. drop mentions that resolve to nothing (the paper's lexicon filtering);
3. deduplicate resolved entities within a recipe (recipes are sets);
4. enforce the paper's validity bounds on recipe size (2-38 after
   standardization; Fig. 1 reports the distribution is bounded there);
5. attach the region-level annotation as the recipe's cuisine.

The pipeline reports per-stage counts so data-quality loss is visible,
mirroring the care a real compilation requires.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

from repro.config import PAPER
from repro.corpus.dataset import RecipeDataset
from repro.corpus.recipe import RawRecipe, Recipe
from repro.corpus.regions import get_region
from repro.errors import UnknownRegionError
from repro.lexicon.lexicon import Lexicon

__all__ = [
    "CompilationReport",
    "CompilationResult",
    "compile_corpus",
]


@dataclass
class CompilationReport:
    """Per-stage bookkeeping for one compilation run.

    Attributes:
        n_raw: Raw records received.
        n_compiled: Standardized recipes produced.
        n_dropped_unknown_region: Records with unresolvable region labels.
        n_dropped_too_small: Records below the minimum size after
            standardization.
        n_dropped_too_large: Records above the maximum size.
        n_mentions_total: Ingredient mentions seen.
        n_mentions_resolved: Mentions the aliasing protocol resolved.
        unresolved_samples: Up to 50 distinct unresolved mention strings,
            useful for extending the alias table.
    """

    n_raw: int = 0
    n_compiled: int = 0
    n_dropped_unknown_region: int = 0
    n_dropped_too_small: int = 0
    n_dropped_too_large: int = 0
    n_mentions_total: int = 0
    n_mentions_resolved: int = 0
    unresolved_samples: list[str] = field(default_factory=list)

    @property
    def resolution_rate(self) -> float:
        """Fraction of mentions the protocol resolved."""
        if self.n_mentions_total == 0:
            return 0.0
        return self.n_mentions_resolved / self.n_mentions_total

    def record_unresolved(self, mention: str, limit: int = 50) -> None:
        if len(self.unresolved_samples) < limit and mention not in self.unresolved_samples:
            self.unresolved_samples.append(mention)


@dataclass(frozen=True)
class CompilationResult:
    """Output of :func:`compile_corpus`."""

    dataset: RecipeDataset
    report: CompilationReport


def compile_corpus(
    raw_recipes: Iterable[RawRecipe],
    lexicon: Lexicon,
    min_size: int = PAPER.recipe_size_min,
    max_size: int = PAPER.recipe_size_max,
    start_recipe_id: int = 0,
) -> CompilationResult:
    """Standardize raw records into a :class:`RecipeDataset`.

    Args:
        raw_recipes: Raw website records.
        lexicon: Standardized ingredient dictionary to resolve against.
        min_size: Minimum distinct-ingredient count to keep a recipe.
        max_size: Maximum distinct-ingredient count to keep a recipe.
        start_recipe_id: First recipe id to assign.

    Returns:
        The standardized dataset plus a :class:`CompilationReport`.
    """
    report = CompilationReport()
    recipes: list[Recipe] = []
    for raw in raw_recipes:
        report.n_raw += 1
        try:
            region = get_region(raw.region)
        except UnknownRegionError:
            report.n_dropped_unknown_region += 1
            continue

        resolved_ids: set[int] = set()
        for mention in raw.mentions:
            report.n_mentions_total += 1
            resolution = lexicon.resolve(mention)
            if resolution.ingredient is None:
                report.record_unresolved(mention)
                continue
            report.n_mentions_resolved += 1
            resolved_ids.add(resolution.ingredient.ingredient_id)

        if len(resolved_ids) < min_size:
            report.n_dropped_too_small += 1
            continue
        if len(resolved_ids) > max_size:
            report.n_dropped_too_large += 1
            continue

        recipes.append(Recipe(
            recipe_id=start_recipe_id + len(recipes),
            region_code=region.code,
            ingredient_ids=tuple(sorted(resolved_ids)),
            title=raw.title,
            source=raw.source,
        ))
    report.n_compiled = len(recipes)
    return CompilationResult(dataset=RecipeDataset(recipes), report=report)
