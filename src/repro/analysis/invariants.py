"""Cross-cuisine invariance analysis (Sec. IV, Fig. 3).

Computes, for every cuisine, the rank-frequency curve of frequent
combinations of ingredients (Fig. 3a) and of ingredient categories
(Fig. 3b), the aggregate (pooled) curve shown in the insets, and the
pairwise Eq. 2 distances quantifying cross-cuisine similarity.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from repro.analysis.itemsets import (
    MiningResult,
    category_transactions,
    ingredient_transactions,
    mine_frequent_itemsets,
)
from repro.analysis.mae import PairwiseDistances, pairwise_distance_matrix
from repro.analysis.rank_frequency import RankFrequencyCurve, curve_from_mining
from repro.config import DEFAULT_MINING, MiningConfig
from repro.corpus.dataset import RecipeDataset
from repro.errors import AnalysisError, RunCacheError
from repro.lexicon.lexicon import Lexicon
from repro.runtime.curve_cache import (
    CurveCache,
    curve_key,
    transactions_fingerprint,
)
from repro.transactions import TransactionPlane

__all__ = ["InvariantAnalysis", "analyze_invariants", "combination_curve"]


def _mine_cached(
    transactions: Iterable[Iterable[int]],
    mining: MiningConfig,
    level: str,
    curve_cache: CurveCache | None,
) -> MiningResult:
    """Mine transactions, consulting the mined-curve cache when given.

    Empirical callers need the full :class:`MiningResult` (itemset
    drill-down), so entries store the result object itself under
    ``kind="mining"`` under a content key (:func:`curve_key`): a corpus
    has no run key, unlike the ensemble path's run-keyed frequency
    arrays.
    """
    # One conversion serves both the fingerprint and the miner.
    transactions = TransactionPlane.of(transactions)
    if curve_cache is None:
        return mine_frequent_itemsets(
            transactions,
            min_support=mining.min_support,
            max_size=mining.max_size,
        )
    key = curve_key(
        transactions_fingerprint(transactions), mining,
        level=level, kind="mining",
    )
    cached = curve_cache.get(key)
    if isinstance(cached, MiningResult):
        return cached
    result = mine_frequent_itemsets(
        transactions,
        min_support=mining.min_support,
        max_size=mining.max_size,
    )
    try:
        curve_cache.put(key, result)
    except RunCacheError:
        pass  # the cache is an optimization; never fail the analysis
    return result


@dataclass(frozen=True)
class InvariantAnalysis:
    """Fig. 3 contents for one level (ingredient or category).

    Attributes:
        level: ``"ingredient"`` or ``"category"``.
        curves: Per-cuisine rank-frequency curves, keyed by region code.
        aggregate: Pooled curve over all recipes (the figure inset).
        distances: Pairwise Eq. 2 distances between cuisine curves.
        mining: Per-cuisine raw mining results (for drill-down).
    """

    level: str
    curves: dict[str, RankFrequencyCurve]
    aggregate: RankFrequencyCurve
    distances: PairwiseDistances
    mining: dict[str, MiningResult]

    @property
    def average_distance(self) -> float:
        """The paper's headline number (0.035 / 0.052)."""
        return self.distances.average()


def _transactions_for(
    dataset: RecipeDataset,
    region_code: str,
    lexicon: Lexicon,
    level: str,
) -> list[frozenset[int]]:
    view = dataset.cuisine(region_code)
    if level == "ingredient":
        return ingredient_transactions(view)
    if level == "category":
        return category_transactions(view, lexicon)
    raise AnalysisError(f"unknown level {level!r}; use 'ingredient' or 'category'")


def combination_curve(
    dataset: RecipeDataset,
    region_code: str,
    lexicon: Lexicon,
    level: str = "ingredient",
    mining: MiningConfig = DEFAULT_MINING,
    curve_cache: CurveCache | None = None,
) -> tuple[RankFrequencyCurve, MiningResult]:
    """Rank-frequency curve of frequent combinations for one cuisine.

    With a ``curve_cache``, the mining result is served from disk when
    the cuisine's transaction content and mining config match a prior
    call, and stored otherwise — the empirical half of the warm
    zero-mining path (DESIGN.md §6).
    """
    transactions = _transactions_for(dataset, region_code, lexicon, level)
    result = _mine_cached(transactions, mining, level, curve_cache)
    return curve_from_mining(result, region_code), result


def analyze_invariants(
    dataset: RecipeDataset,
    lexicon: Lexicon,
    level: str = "ingredient",
    mining: MiningConfig = DEFAULT_MINING,
    distance_kind: str = "absolute",
    curve_cache: CurveCache | None = None,
) -> InvariantAnalysis:
    """Full Fig. 3 analysis at one level.

    Args:
        dataset: Multi-cuisine corpus.
        lexicon: Lexicon (category map for the category level).
        level: ``"ingredient"`` (Fig. 3a) or ``"category"`` (Fig. 3b).
        mining: Mining configuration (paper: min_support=0.05).
        distance_kind: Eq. 2 reading (see :mod:`repro.analysis.mae`).
        curve_cache: Optional mined-curve cache; per-cuisine and pooled
            mining results are reused across invocations when the
            corpus content and mining config are unchanged.

    Returns:
        An :class:`InvariantAnalysis`.
    """
    codes = dataset.region_codes()
    if len(codes) < 2:
        raise AnalysisError(
            "invariance analysis requires at least two cuisines, got "
            f"{len(codes)}"
        )
    curves: dict[str, RankFrequencyCurve] = {}
    results: dict[str, MiningResult] = {}
    for code in codes:
        curve, result = combination_curve(
            dataset, code, lexicon, level=level, mining=mining,
            curve_cache=curve_cache,
        )
        curves[code] = curve
        results[code] = result

    # Aggregate inset: all recipes pooled into one transaction set.
    pooled: list[frozenset[int]] = []
    for code in codes:
        pooled.extend(_transactions_for(dataset, code, lexicon, level))
    pooled_result = _mine_cached(pooled, mining, level, curve_cache)
    aggregate = curve_from_mining(pooled_result, "ALL")

    distances = pairwise_distance_matrix(
        [curves[code] for code in codes], kind=distance_kind
    )
    return InvariantAnalysis(
        level=level,
        curves=curves,
        aggregate=aggregate,
        distances=distances,
        mining=results,
    )
