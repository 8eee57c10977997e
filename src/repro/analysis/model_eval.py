"""Model-vs-empirical evaluation harness (Sec. VI, Fig. 4).

Given the empirical rank-frequency curve of a cuisine's frequent
combinations and the aggregated curves of candidate evolution models,
computes Eq. 2 distances and identifies the best-fitting model.  The
aggregation follows Sec. V: each of the (paper: 100) independent runs is
mined at the same support threshold — all runs in one stacked pass, each
with its own curve — and the per-run curves are rank-aligned averaged.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

from repro.analysis.itemsets import mine_frequencies
from repro.analysis.mae import curve_distance
from repro.analysis.rank_frequency import RankFrequencyCurve, average_frequencies
from repro.config import DEFAULT_MINING, MiningConfig
from repro.errors import AnalysisError

__all__ = ["ModelEvaluation", "model_curve_from_runs", "evaluate_models"]


def model_curve_from_runs(
    runs: Sequence[Sequence[frozenset[int]]],
    label: str,
    mining: MiningConfig = DEFAULT_MINING,
) -> RankFrequencyCurve:
    """Aggregate a model's runs into one rank-frequency curve.

    Args:
        runs: One transaction list (generated recipe pool) per run.
        label: Curve label (model name).
        mining: Mining configuration shared with the empirical analysis.

    Returns:
        The rank-aligned mean curve over runs.
    """
    if not runs:
        raise AnalysisError(f"model {label!r} has no runs to aggregate")
    frequencies = mine_frequencies(
        runs, min_support=mining.min_support, max_size=mining.max_size
    )
    return RankFrequencyCurve(label, average_frequencies(frequencies))


@dataclass(frozen=True)
class ModelEvaluation:
    """Fig. 4 content for one cuisine.

    Attributes:
        region_code: Cuisine evaluated.
        level: ``"ingredient"`` or ``"category"``.
        empirical: Empirical rank-frequency curve.
        model_curves: Aggregated model curves keyed by model name.
        distances: Eq. 2 distance of each model to the empirical curve
            (the numbers printed in Fig. 4's legends).
        distance_kind: Which Eq. 2 reading produced the distances.
    """

    region_code: str
    level: str
    empirical: RankFrequencyCurve
    model_curves: dict[str, RankFrequencyCurve]
    distances: dict[str, float]
    distance_kind: str

    @property
    def best_model(self) -> str:
        """Model with the smallest distance to the empirical curve."""
        return min(self.distances, key=lambda name: (self.distances[name], name))

    def ranking(self) -> list[tuple[str, float]]:
        """Models sorted by ascending distance."""
        return sorted(self.distances.items(), key=lambda kv: (kv[1], kv[0]))


def evaluate_models(
    region_code: str,
    empirical: RankFrequencyCurve,
    model_curves: Mapping[str, RankFrequencyCurve],
    level: str = "ingredient",
    distance_kind: str = "absolute",
) -> ModelEvaluation:
    """Score aggregated model curves against the empirical curve.

    Raises:
        AnalysisError: If no model curves are supplied or any model curve
            shares no ranks with the empirical curve.
    """
    if not model_curves:
        raise AnalysisError("no model curves to evaluate")
    if len(empirical) == 0:
        raise AnalysisError(
            f"empirical curve for {region_code!r} is empty; lower the "
            "support threshold or supply more recipes"
        )
    distances = {
        name: curve_distance(empirical, curve, kind=distance_kind)
        for name, curve in model_curves.items()
    }
    return ModelEvaluation(
        region_code=region_code,
        level=level,
        empirical=empirical,
        model_curves=dict(model_curves),
        distances=distances,
        distance_kind=distance_kind,
    )
