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
from repro.analysis.rank_frequency import RankFrequencyCurve
from repro.config import MiningConfig
from repro.experiments.base import ExperimentContext
from repro.models.base import EvolutionRun
from repro.models.ensemble import EnsembleCell, ensemble_curves
from repro.models.params import CuisineSpec
from repro.models.registry import PAPER_MODELS, create_model
from repro.runtime import CurveCache, execute_sweep, plan_grid, select_regions
from repro.runtime.sweep import SweepCell
from repro.viz.ascii import render_curves, render_table
from repro.viz.export import write_curves_csv

__all__ = ["CellCurve", "Fig4Result", "run_fig4"]


@dataclass(frozen=True)
class CellCurve:
    """A sweep cell's runs reduced to the cell's averaged curve.

    The per-cell reducer of the grid drivers
    (:func:`~repro.runtime.sweep.execute_sweep` ``reduce=``): it mines
    the cell with :func:`ensemble_curves` on a serial runtime, wherever
    the cell ran, so a worker sends back one curve instead of the
    cell's planes.  The cell's curves are cached as one entry under the
    run keys the sweep handed over — the keys the run cache used — so
    they are never derived a second time.  Its state is picklable, which keeps it on
    the process and distributed backends.

    Attributes:
        mining: Support/size configuration.
        level: ``"ingredient"`` or ``"category"`` (categories come from
            the cell's spec).
        cache_dir: Mined-curve cache directory, or ``None`` for none.
    """

    mining: MiningConfig
    level: str = "ingredient"
    cache_dir: str | None = None

    @classmethod
    def of(
        cls, context: ExperimentContext, level: str = "ingredient",
        mining: MiningConfig | None = None,
    ) -> "CellCurve":
        """The reducer a context implies (its mining config and cache)."""
        cache_dir = context.runtime.cache_dir
        return cls(
            mining=context.mining if mining is None else mining,
            level=level,
            cache_dir=None if cache_dir is None else str(cache_dir),
        )

    def __call__(
        self,
        cell: SweepCell,
        runs: tuple[EvolutionRun, ...],
        keys: tuple[str, ...] | None,
    ) -> RankFrequencyCurve:
        return ensemble_curves(
            [EnsembleCell(runs, cell.model_name, keys, cell.spec)],
            mining=self.mining, level=self.level,
            curve_cache=(
                None if self.cache_dir is None else CurveCache(self.cache_dir)
            ),
        )[0]


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
    one sweep (:mod:`repro.runtime.sweep`): every cell goes through a
    single backend pass instead of one ensemble at a time, which
    saturates a many-core box end to end while staying bit-identical
    to the per-cell path for a fixed ``context.seed``.  Each cell is
    simulated and mined in one task (:class:`CellCurve`), so only one
    cell's runs are alive per task and workers return curves.
    With a ``--cache-dir`` runtime both layers warm: cached runs skip
    simulation, and the mined-curve cache (empirical curves keyed by
    content, each cell's model curves by its run keys) makes a repeat
    invocation perform zero mining calls and fingerprint no plane.

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
    # Each cell is mined where it ran and comes back as its curve.
    sweep = execute_sweep(
        plan, runtime=context.runtime, reduce=CellCurve.of(context, level)
    )
    curve_cache = context.curve_cache()
    evaluations: dict[str, ModelEvaluation] = {}
    for code in codes:
        empirical, _mining = combination_curve(
            context.dataset, code, context.lexicon,
            level=level, mining=context.mining, curve_cache=curve_cache,
        )
        model_curves = {
            name: sweep.reduction_for(name, code) for name in model_names
        }
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
