"""Library-wide constants mirroring the paper's reported setup.

These values come directly from the published text (Secs. II and VI) and
are referenced throughout the corpus, synthesis, analysis and model
subsystems so that "the paper's numbers" live in exactly one place.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = [
    "PaperConstants",
    "PAPER",
    "MiningConfig",
    "DEFAULT_MINING",
]


@dataclass(frozen=True)
class PaperConstants:
    """Constants reported by the paper.

    Attributes:
        total_recipes: Total recipes compiled (Sec. II).
        n_regions: Number of geo-cultural regions ("cuisines").
        n_lexicon_entities: Entities in the standardized ingredient lexicon.
        n_compound_ingredients: Compound ingredients added to FlavorDB base.
        n_categories: Manually assigned ingredient categories.
        recipe_size_min: Lower bound of the recipe size distribution (Fig. 1).
        recipe_size_max: Upper bound of the recipe size distribution (Fig. 1).
        recipe_size_mean: Approximate mean recipe size (Fig. 1).
        combination_min_support: Support threshold for "frequent"
            combinations (Sec. IV): at least 5% of a cuisine's recipes.
        reported_avg_mae_ingredients: Paper's average pairwise MAE between
            cuisine rank-frequency curves of ingredient combinations.
        reported_avg_mae_categories: Same for category combinations.
        model_initial_pool_size: ``m`` in Algorithm 1 (Sec. VI).
        model_mutations_cm_r: ``M`` for the CM-R variant (Sec. VI).
        model_mutations_cm_c: ``M`` for the CM-C variant (Sec. VI).
        model_mutations_cm_m: ``M`` for the CM-M variant (Sec. VI).
        model_ensemble_runs: Number of independent model runs aggregated.
    """

    total_recipes: int = 158544
    n_regions: int = 25
    n_lexicon_entities: int = 721
    n_compound_ingredients: int = 96
    n_categories: int = 21

    recipe_size_min: int = 2
    recipe_size_max: int = 38
    recipe_size_mean: float = 9.0

    combination_min_support: float = 0.05
    reported_avg_mae_ingredients: float = 0.035
    reported_avg_mae_categories: float = 0.052

    model_initial_pool_size: int = 20
    model_mutations_cm_r: int = 4
    model_mutations_cm_c: int = 6
    model_mutations_cm_m: int = 6
    model_ensemble_runs: int = 100


#: The singleton constants object used across the library.
PAPER = PaperConstants()


@dataclass(frozen=True)
class MiningConfig:
    """Configuration for frequent-combination mining (Sec. IV).

    Attributes:
        min_support: Relative support threshold (fraction of recipes).
        max_size: Optional cap on itemset size; ``None`` mines all sizes.
            The paper mines "size 1 and greater" with no stated cap.
        algorithm: Always ``"bitset"``, the one miner in
            :mod:`repro.analysis.itemsets`; kept so configs that name it
            still construct, and checked here so a typo fails before a
            sweep rather than at mining time.
    """

    min_support: float = PAPER.combination_min_support
    max_size: int | None = None
    algorithm: str = "bitset"

    def __post_init__(self) -> None:
        if not 0.0 < self.min_support <= 1.0:
            raise ValueError(
                f"min_support must be in (0, 1], got {self.min_support}"
            )
        if self.max_size is not None and self.max_size < 1:
            raise ValueError(f"max_size must be >= 1, got {self.max_size}")
        if self.algorithm != "bitset":
            raise ValueError(
                f"unknown mining algorithm {self.algorithm!r}; the only "
                "miner is 'bitset'"
            )


DEFAULT_MINING = MiningConfig()
