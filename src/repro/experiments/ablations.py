"""Ablation experiments over the design choices DESIGN.md calls out.

* ``ablation_m`` — initial ingredient pool size ``m`` (paper fixes 20);
* ``ablation_M`` — mutation count ``M`` (paper: 4 for CM-R, 6 for
  CM-C/CM-M);
* ``ablation_minsup`` — the 5% support threshold behind "frequent"
  combinations;
* ``ablation_metric`` — Eq. 2 read as mean absolute vs mean squared
  error (the paper's name/formula mismatch).

Each driver returns an :class:`AblationResult` with one row per swept
value so benches can print the sweep directly.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from repro.analysis.invariants import analyze_invariants, combination_curve
from repro.analysis.mae import curve_distance
from repro.analysis.model_eval import evaluate_models
from repro.config import MiningConfig
from repro.experiments.base import ExperimentContext
from repro.models.ensemble import ensemble_curve
from repro.models.params import CuisineSpec, ModelParams
from repro.models.registry import PAPER_MODELS, create_model
from repro.runtime import execute_sweep, plan_grid
from repro.viz.ascii import render_table

__all__ = [
    "AblationResult",
    "run_ablation_m",
    "run_ablation_mutations",
    "run_ablation_minsup",
    "run_ablation_metric",
    "run_ablation_null_sampling",
]

#: Default cuisine subset for model ablations: one large, one medium,
#: one small corpus — enough spread to see scale effects cheaply.
_DEFAULT_REGIONS = ("ITA", "GRC", "KOR")


@dataclass(frozen=True)
class AblationResult:
    """A parameter sweep summary.

    Attributes:
        name: Ablation identifier.
        parameter: Swept parameter name.
        headers: Column names (first column is the parameter value).
        rows: One row per swept value.
    """

    name: str
    parameter: str
    headers: tuple[str, ...]
    rows: tuple[tuple[object, ...], ...]

    def render(self) -> str:
        return render_table(
            self.headers, self.rows, title=f"Ablation: {self.name}"
        )

    def to_payload(self) -> dict:
        return {
            "experiment": self.name,
            "parameter": self.parameter,
            "headers": list(self.headers),
            "rows": [list(row) for row in self.rows],
        }

    def column(self, header: str) -> list[object]:
        """Values of one column across the sweep."""
        index = self.headers.index(header)
        return [row[index] for row in self.rows]


def _spec_for(context: ExperimentContext, code: str) -> CuisineSpec:
    return CuisineSpec.from_view(
        context.dataset.cuisine(code), context.lexicon
    )


def _mean_model_distance(
    context: ExperimentContext,
    model_name: str,
    params: ModelParams,
    region_codes: tuple[str, ...],
    mining: MiningConfig | None = None,
) -> float:
    """Mean Eq. 2 distance of one configured model across cuisines.

    The per-cuisine ensembles execute as one sweep, planned in
    cuisine order so the seed draws replay the serial per-cell path.
    """
    mining = mining if mining is not None else context.mining
    plan = plan_grid(
        [create_model(model_name, params=params, engine=context.engine)],
        [_spec_for(context, code) for code in region_codes],
        n_runs=context.ensemble_runs,
        seed=context.seed,
    )
    sweep = execute_sweep(plan, runtime=context.runtime)
    curve_cache = context.curve_cache()
    distances = []
    for code in region_codes:
        empirical, _mining_result = combination_curve(
            context.dataset, code, context.lexicon, mining=mining,
            curve_cache=curve_cache,
        )
        curve = ensemble_curve(
            sweep.runs_for(model_name, code), model_name, mining=mining,
            runtime=context.runtime, curve_cache=curve_cache,
        )
        distances.append(curve_distance(empirical, curve))
    return float(np.mean(distances))


def run_ablation_m(
    context: ExperimentContext,
    values: tuple[int, ...] = (5, 10, 20, 40, 80),
    model_name: str = "CM-R",
    region_codes: tuple[str, ...] = _DEFAULT_REGIONS,
) -> AblationResult:
    """Sweep the initial pool size ``m`` for one model."""
    base = create_model(model_name).params
    rows = []
    for m in values:
        params = replace(base, initial_pool_size=m)
        distance = _mean_model_distance(
            context, model_name, params, region_codes
        )
        rows.append((m, model_name, f"{distance:.4f}"))
    return AblationResult(
        name="ablation_m",
        parameter="initial_pool_size",
        headers=("m", "model", "mean_distance"),
        rows=tuple(rows),
    )


def run_ablation_mutations(
    context: ExperimentContext,
    values: tuple[int, ...] = (1, 2, 4, 6, 8, 12),
    model_names: tuple[str, ...] = ("CM-R", "CM-C"),
    region_codes: tuple[str, ...] = _DEFAULT_REGIONS,
) -> AblationResult:
    """Sweep the mutation count ``M`` for the CM variants."""
    rows = []
    for mutations in values:
        row: list[object] = [mutations]
        for name in model_names:
            params = create_model(name).params.with_mutations(mutations)
            distance = _mean_model_distance(context, name, params, region_codes)
            row.append(f"{distance:.4f}")
        rows.append(tuple(row))
    return AblationResult(
        name="ablation_M",
        parameter="mutations",
        headers=("M", *model_names),
        rows=tuple(rows),
    )


def run_ablation_minsup(
    context: ExperimentContext,
    values: tuple[float, ...] = (0.02, 0.05, 0.08, 0.12),
) -> AblationResult:
    """Sweep the support threshold defining "frequent" combinations."""
    curve_cache = context.curve_cache()
    rows = []
    for min_support in values:
        mining = MiningConfig(
            min_support=min_support,
            max_size=context.mining.max_size,
        )
        analysis = analyze_invariants(
            context.dataset, context.lexicon, level="ingredient",
            mining=mining, curve_cache=curve_cache,
        )
        mean_len = float(
            np.mean([len(curve) for curve in analysis.curves.values()])
        )
        rows.append(
            (
                min_support,
                f"{analysis.average_distance:.4f}",
                f"{mean_len:.1f}",
            )
        )
    return AblationResult(
        name="ablation_minsup",
        parameter="min_support",
        headers=("min_support", "avg_pairwise_distance", "mean_curve_len"),
        rows=tuple(rows),
    )


def run_ablation_null_sampling(
    context: ExperimentContext,
    region_codes: tuple[str, ...] = _DEFAULT_REGIONS,
) -> AblationResult:
    """Resolve the NM sampling-universe ambiguity empirically.

    Sec. V's text says null recipes sample "from the ingredient pool
    (I)" — symbolically the *full* list, verbally the growing pool.  We
    run both readings; the paper's conclusion (NM fails) must hold under
    either for the reproduction to be robust.
    """
    from repro.models.null_model import NullModel

    # Two of the three grid columns share the registry name "NM", so the
    # merged cells are addressed positionally: cuisine-major plan order
    # puts cuisine i's columns at cells[3 * i + column].
    models = [
        create_model("CM-R", engine=context.engine),
        NullModel(sample_from="pool", engine=context.engine),
        NullModel(sample_from="universe", engine=context.engine),
    ]
    plan = plan_grid(
        models,
        [_spec_for(context, code) for code in region_codes],
        n_runs=context.ensemble_runs,
        seed=context.seed,
    )
    sweep = execute_sweep(plan, runtime=context.runtime)
    curve_cache = context.curve_cache()
    rows = []
    for cuisine_index, code in enumerate(region_codes):
        empirical, _mining_result = combination_curve(
            context.dataset, code, context.lexicon, mining=context.mining,
            curve_cache=curve_cache,
        )
        row: list[object] = [code]
        for column, model in enumerate(models):
            cell = sweep.cells[len(models) * cuisine_index + column]
            curve = ensemble_curve(
                cell.runs, model.name, mining=context.mining,
                runtime=context.runtime, curve_cache=curve_cache,
            )
            row.append(f"{curve_distance(empirical, curve):.4f}")
        rows.append(tuple(row))
    return AblationResult(
        name="ablation_null_sampling",
        parameter="sample_from",
        headers=("region", "CM-R", "NM(pool)", "NM(universe)"),
        rows=tuple(rows),
    )


def run_ablation_metric(
    context: ExperimentContext,
    region_codes: tuple[str, ...] = _DEFAULT_REGIONS,
) -> AblationResult:
    """Compare Eq. 2 readings: name ("absolute") vs formula ("squared").

    Reports, per cuisine, the best model under each reading and the
    NM-vs-best-CM separation — the paper's conclusions should be
    invariant (NM always loses; best model unchanged or tied).
    """
    plan = plan_grid(
        [create_model(name, engine=context.engine) for name in PAPER_MODELS],
        [_spec_for(context, code) for code in region_codes],
        n_runs=context.ensemble_runs,
        seed=context.seed,
    )
    sweep = execute_sweep(plan, runtime=context.runtime)
    curve_cache = context.curve_cache()
    rows = []
    for code in region_codes:
        empirical, _mining_result = combination_curve(
            context.dataset, code, context.lexicon, mining=context.mining,
            curve_cache=curve_cache,
        )
        model_curves = {
            name: ensemble_curve(
                sweep.runs_for(name, code), name, mining=context.mining,
                runtime=context.runtime, curve_cache=curve_cache,
            )
            for name in PAPER_MODELS
        }
        by_kind = {}
        for kind in ("absolute", "squared"):
            evaluation = evaluate_models(
                code, empirical, model_curves, distance_kind=kind
            )
            nm = evaluation.distances["NM"]
            best_cm = min(
                value for name, value in evaluation.distances.items()
                if name != "NM"
            )
            by_kind[kind] = (evaluation.best_model, nm / max(best_cm, 1e-12))
        rows.append(
            (
                code,
                by_kind["absolute"][0],
                f"{by_kind['absolute'][1]:.1f}x",
                by_kind["squared"][0],
                f"{by_kind['squared'][1]:.1f}x",
            )
        )
    return AblationResult(
        name="ablation_metric",
        parameter="distance_kind",
        headers=(
            "region", "best(absolute)", "NM/CM(absolute)",
            "best(squared)", "NM/CM(squared)",
        ),
        rows=tuple(rows),
    )
