"""Statistical analyses of the paper (Secs. III, IV and VI)."""

from repro import _lazy_exports

__getattr__, __dir__, __all__ = _lazy_exports(__name__, {
    "category_usage": (
        "BoxplotStats",
        "CategoryUsage",
        "category_boxplots",
        "category_usage_matrix",
        "dominant_categories",
    ),
    "ingredient_usage": (
        "ZipfFit",
        "cuisine_ingredient_curves",
        "fit_zipf",
        "ingredient_invariance",
        "ingredient_rank_frequency",
    ),
    "invariants": ("InvariantAnalysis", "analyze_invariants", "combination_curve"),
    "itemsets": (
        "CATEGORY_INDEX",
        "FrequentItemset",
        "MiningResult",
        "category_transactions",
        "ingredient_transactions",
        "mine_frequencies",
        "mine_frequent_itemsets",
    ),
    "mae": ("PairwiseDistances", "curve_distance", "pairwise_distance_matrix"),
    "model_eval": ("ModelEvaluation", "evaluate_models", "model_curve_from_runs"),
    "overrepresentation": (
        "OverrepresentationEntry",
        "overrepresentation_scores",
        "overrepresentation_table",
        "top_overrepresented",
    ),
    "rank_frequency": (
        "RankFrequencyCurve",
        "average_curves",
        "average_frequencies",
        "curve_from_counts",
        "curve_from_mining",
    ),
    "size_distribution": (
        "SizeDistribution",
        "aggregate_size_distribution",
        "cuisine_size_distributions",
        "size_distribution",
    ),
    "vocabulary_growth": (
        "HeapsFit",
        "fit_heaps",
        "growth_from_sets",
        "vocabulary_growth_curve",
    ),
})
