"""Experiment ``fig3``: cross-cuisine invariance of combination curves.

Fig. 3 plots per-cuisine rank-frequency distributions of frequent
combinations of (a) ingredients and (b) ingredient categories, with the
pooled aggregate inset; the paper reports average pairwise MAE of 0.035
(ingredients) and 0.052 (categories) and notes that the small-corpus
cuisines are the most distinct.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis.invariants import InvariantAnalysis, analyze_invariants
from repro.config import PAPER
from repro.experiments.base import ExperimentContext
from repro.viz.ascii import render_curves, render_table
from repro.viz.export import write_curves_csv

__all__ = ["Fig3Result", "run_fig3"]


@dataclass(frozen=True)
class Fig3Result:
    """Regenerated Fig. 3 (both levels)."""

    ingredient: InvariantAnalysis
    category: InvariantAnalysis
    scale: float

    def render(self) -> str:
        sections = []
        for label, analysis, paper_value in (
            ("(a) ingredient combinations", self.ingredient,
             PAPER.reported_avg_mae_ingredients),
            ("(b) category combinations", self.category,
             PAPER.reported_avg_mae_categories),
        ):
            curves = {
                code: list(curve.frequencies)
                for code, curve in sorted(analysis.curves.items())
            }
            curves["ALL"] = list(analysis.aggregate.frequencies)
            plot = render_curves(
                curves,
                title=(
                    f"Fig. 3{label}: rank-frequency, "
                    f"avg pairwise distance "
                    f"{analysis.average_distance:.4f} "
                    f"(paper: {paper_value})"
                ),
            )
            distinct = render_table(
                ("Most distinct cuisines", "Mean distance"),
                [
                    (code, f"{value:.4f}")
                    for code, value in analysis.distances.most_distinct(3)
                ],
            )
            sections.append(f"{plot}\n\n{distinct}")
        return "\n\n".join(sections)

    def to_payload(self) -> dict:
        return {
            "experiment": "fig3",
            "scale": self.scale,
            "avg_distance_ingredient": self.ingredient.average_distance,
            "paper_avg_mae_ingredient": PAPER.reported_avg_mae_ingredients,
            "avg_distance_category": self.category.average_distance,
            "paper_avg_mae_category": PAPER.reported_avg_mae_categories,
            "most_distinct_ingredient": self.ingredient.distances.most_distinct(3),
            "curve_lengths": {
                code: len(curve)
                for code, curve in self.ingredient.curves.items()
            },
        }


def run_fig3(context: ExperimentContext) -> Fig3Result:
    """Regenerate Fig. 3 from the context's corpus.

    With a ``--cache-dir`` runtime, every per-cuisine and pooled mining
    result is served from the mined-curve cache on repeat invocations.
    """
    curve_cache = context.curve_cache()
    ingredient, category = (
        analyze_invariants(
            context.dataset, context.lexicon, level=level,
            mining=context.mining, curve_cache=curve_cache,
        )
        for level in ("ingredient", "category")
    )
    result = Fig3Result(
        ingredient=ingredient, category=category, scale=context.scale
    )
    for level, analysis in (("ingredient", ingredient), ("category", category)):
        path = context.artifact_path(f"fig3_{level}.csv")
        if path is not None:
            curves = {
                code: list(curve.frequencies)
                for code, curve in analysis.curves.items()
            }
            curves["ALL"] = list(analysis.aggregate.frequencies)
            write_curves_csv(path, curves)
    return result
