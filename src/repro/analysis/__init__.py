"""Statistical analyses of the paper (Secs. III, IV and VI)."""

from repro.analysis.category_usage import (
    BoxplotStats,
    CategoryUsage,
    category_boxplots,
    category_usage_matrix,
    dominant_categories,
)
from repro.analysis.ingredient_usage import (
    ZipfFit,
    cuisine_ingredient_curves,
    fit_zipf,
    ingredient_invariance,
    ingredient_rank_frequency,
)
from repro.analysis.invariants import (
    InvariantAnalysis,
    analyze_invariants,
    combination_curve,
)
from repro.analysis.itemsets import (
    CATEGORY_INDEX,
    FrequentItemset,
    MiningResult,
    category_transactions,
    ingredient_transactions,
    mine_frequencies,
    mine_frequent_itemsets,
)
from repro.analysis.mae import (
    PairwiseDistances,
    curve_distance,
    pairwise_distance_matrix,
)
from repro.analysis.model_eval import (
    ModelEvaluation,
    evaluate_models,
    model_curve_from_runs,
)
from repro.analysis.overrepresentation import (
    OverrepresentationEntry,
    overrepresentation_scores,
    overrepresentation_table,
    top_overrepresented,
)
from repro.analysis.rank_frequency import (
    RankFrequencyCurve,
    average_curves,
    curve_from_counts,
    curve_from_mining,
)
from repro.analysis.size_distribution import (
    SizeDistribution,
    aggregate_size_distribution,
    cuisine_size_distributions,
    size_distribution,
)
from repro.analysis.vocabulary_growth import (
    HeapsFit,
    fit_heaps,
    growth_from_sets,
    vocabulary_growth_curve,
)

__all__ = [
    "ZipfFit",
    "cuisine_ingredient_curves",
    "fit_zipf",
    "ingredient_invariance",
    "ingredient_rank_frequency",
    "BoxplotStats",
    "CategoryUsage",
    "category_boxplots",
    "category_usage_matrix",
    "dominant_categories",
    "InvariantAnalysis",
    "analyze_invariants",
    "combination_curve",
    "CATEGORY_INDEX",
    "FrequentItemset",
    "MiningResult",
    "category_transactions",
    "ingredient_transactions",
    "mine_frequencies",
    "mine_frequent_itemsets",
    "PairwiseDistances",
    "curve_distance",
    "pairwise_distance_matrix",
    "ModelEvaluation",
    "evaluate_models",
    "model_curve_from_runs",
    "OverrepresentationEntry",
    "overrepresentation_scores",
    "overrepresentation_table",
    "top_overrepresented",
    "RankFrequencyCurve",
    "average_curves",
    "curve_from_counts",
    "curve_from_mining",
    "SizeDistribution",
    "aggregate_size_distribution",
    "cuisine_size_distributions",
    "size_distribution",
    "HeapsFit",
    "fit_heaps",
    "growth_from_sets",
    "vocabulary_growth_curve",
]
