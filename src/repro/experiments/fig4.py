"""Experiment ``fig4``: evolution models vs empirical distributions.

Fig. 4 compares, per cuisine, the empirical rank-frequency curve of
frequent ingredient combinations against the aggregated curves of CM-R,
CM-C, CM-M and the Null Model, with Eq. 2 distances in the legend.  The
paper's findings encoded here:

* every copy-mutate variant tracks the empirical curve; the null model
  does not (rapid, abrupt decline; much higher distance);
* the best CM variant differs across cuisines;
* at the *category* level even the null model fits, so that statistic
  does not discriminate (the ``level="category"`` variant).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.analysis.invariants import combination_curve
from repro.analysis.model_eval import ModelEvaluation, evaluate_models
from repro.experiments.base import ExperimentContext
from repro.models.ensemble import ensemble_curves
from repro.models.params import CuisineSpec
from repro.models.registry import PAPER_MODELS, create_model
from repro.runtime import execute_sweep, plan_grid, select_regions
from repro.viz.ascii import render_curves, render_table
from repro.viz.export import write_curves_csv

__all__ = ["Fig4Result", "run_fig4"]


@dataclass(frozen=True)
class Fig4Result:
    """Regenerated Fig. 4 at one level.

    Attributes:
        evaluations: Per-cuisine model evaluations, keyed by region code.
        level: ``"ingredient"`` (the figure) or ``"category"`` (the
            Sec. VI negative result).
        n_runs: Ensemble runs aggregated per model.
        scale: Corpus scale.
    """

    evaluations: dict[str, ModelEvaluation]
    level: str
    n_runs: int
    scale: float

    def best_model_by_cuisine(self) -> dict[str, str]:
        return {
            code: evaluation.best_model
            for code, evaluation in self.evaluations.items()
        }

    def mean_distance(self, model_name: str) -> float:
        """Mean Eq. 2 distance of one model across cuisines."""
        values = [
            evaluation.distances[model_name]
            for evaluation in self.evaluations.values()
            if model_name in evaluation.distances
        ]
        return float(np.mean(values)) if values else float("nan")

    def null_separation(self) -> float:
        """Mean NM distance divided by mean best-CM distance.

        Values well above 1 reproduce the paper's key claim that the
        null model fails where copy-mutate succeeds.
        """
        cm_best = [
            min(
                value
                for name, value in evaluation.distances.items()
                if name != "NM"
            )
            for evaluation in self.evaluations.values()
            if len(evaluation.distances) > 1
        ]
        nm = [
            evaluation.distances["NM"]
            for evaluation in self.evaluations.values()
            if "NM" in evaluation.distances
        ]
        if not cm_best or not nm:
            return float("nan")
        denominator = max(float(np.mean(cm_best)), 1e-12)
        return float(np.mean(nm)) / denominator

    def render(self) -> str:
        model_names = sorted(
            next(iter(self.evaluations.values())).distances
        ) if self.evaluations else []
        rows = []
        for code in sorted(self.evaluations):
            evaluation = self.evaluations[code]
            rows.append(
                (
                    code,
                    *(f"{evaluation.distances[name]:.4f}" for name in model_names),
                    evaluation.best_model,
                )
            )
        table = render_table(
            ("Region", *model_names, "Best"),
            rows,
            title=(
                f"Fig. 4 reproduction ({self.level} level, scale="
                f"{self.scale}, {self.n_runs} runs/model): Eq. 2 distance "
                f"to empirical curve; NM/CM separation "
                f"{self.null_separation():.1f}x"
            ),
        )
        sections = [table]
        # Render one representative cuisine's curves.
        if self.evaluations:
            code = sorted(self.evaluations)[0]
            evaluation = self.evaluations[code]
            curves = {"empirical": list(evaluation.empirical.frequencies)}
            curves.update(
                {
                    name: list(curve.frequencies)
                    for name, curve in sorted(evaluation.model_curves.items())
                }
            )
            sections.append(
                render_curves(
                    curves,
                    title=f"Example cuisine {code}: empirical vs models",
                )
            )
        return "\n\n".join(sections)

    def to_payload(self) -> dict:
        return {
            "experiment": "fig4",
            "level": self.level,
            "scale": self.scale,
            "n_runs": self.n_runs,
            "null_separation": self.null_separation(),
            "best_model_by_cuisine": self.best_model_by_cuisine(),
            "distances": {
                code: dict(evaluation.distances)
                for code, evaluation in self.evaluations.items()
            },
        }


def run_fig4(
    context: ExperimentContext,
    level: str = "ingredient",
    model_names: tuple[str, ...] = PAPER_MODELS,
    region_codes: tuple[str, ...] | None = None,
) -> Fig4Result:
    """Regenerate Fig. 4 from the context's corpus.

    The full (model × cuisine × seed) grid is planned and executed as
    one sweep (:mod:`repro.runtime.sweep`): every cell's work items go
    through a single backend pass instead of one ensemble at a
    time, which saturates a many-core box end to end while staying
    bit-identical to the per-cell path for a fixed ``context.seed``.
    With a ``--cache-dir`` runtime both layers warm: cached runs skip
    simulation, and the mined-curve cache (empirical and per-run model
    curves alike) makes a repeat invocation perform zero mining calls.

    Args:
        context: Experiment context (corpus + mining + ensemble size).
        level: ``"ingredient"`` or ``"category"``.
        model_names: Models to evaluate (default: the paper's four).
        region_codes: Cuisines to include (default: all in the corpus).
    """
    codes = select_regions(context.dataset.region_codes(), region_codes)
    specs = {
        code: CuisineSpec.from_view(
            context.dataset.cuisine(code), context.lexicon
        )
        for code in codes
    }
    plan = plan_grid(
        [create_model(name, engine=context.engine) for name in model_names],
        [specs[code] for code in codes],
        n_runs=context.ensemble_runs,
        seed=context.seed,
    )
    sweep = execute_sweep(plan, runtime=context.runtime)
    curve_cache = context.curve_cache()
    # Mine the whole (cuisine × model) grid in one executor pass
    # instead of one pool per cell (ensemble_curves); per-cell averages
    # are bit-identical to the per-cell path.
    cells = [
        (sweep.runs_for(name, code), name)
        for code in codes
        for name in model_names
    ]
    grid_curves = ensemble_curves(
        cells, mining=context.mining, level=level,
        lexicon=context.lexicon if level == "category" else None,
        runtime=context.runtime, curve_cache=curve_cache,
    )
    evaluations: dict[str, ModelEvaluation] = {}
    for position, code in enumerate(codes):
        empirical, _mining = combination_curve(
            context.dataset, code, context.lexicon,
            level=level, mining=context.mining, curve_cache=curve_cache,
        )
        model_curves = dict(
            zip(
                model_names,
                grid_curves[
                    position * len(model_names):
                    (position + 1) * len(model_names)
                ],
            )
        )
        evaluations[code] = evaluate_models(
            code, empirical, model_curves, level=level
        )
    result = Fig4Result(
        evaluations=evaluations,
        level=level,
        n_runs=context.ensemble_runs,
        scale=context.scale,
    )
    path = context.artifact_path(f"fig4_{level}.csv")
    if path is not None:
        curves = {}
        for code, evaluation in evaluations.items():
            curves[f"{code}:empirical"] = list(evaluation.empirical.frequencies)
            for name, curve in evaluation.model_curves.items():
                curves[f"{code}:{name}"] = list(curve.frequencies)
        write_curves_csv(path, curves)
    return result
