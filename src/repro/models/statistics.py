"""Ensemble-level statistics beyond the aggregated curve.

Sec. V aggregates 100 runs into one rank-frequency curve; for diagnosis
and ablations it is equally useful to know how *dispersed* the runs are
and what the mutation machinery actually did.  This module summarizes an
ensemble's trace counters and the run-to-run variability of its curves.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.analysis.itemsets import mine_frequencies
from repro.config import DEFAULT_MINING, MiningConfig
from repro.errors import ModelError
from repro.models.base import EvolutionRun

__all__ = ["EnsembleStatistics", "summarize_ensemble"]


@dataclass(frozen=True)
class EnsembleStatistics:
    """Summary of an ensemble of evolution runs.

    Attributes:
        model_name: Model that produced the runs.
        n_runs: Number of runs summarized.
        mean_final_pool: Mean final ingredient-pool size ``m``.
        mean_recipes: Mean recipe-pool size (identical across runs for
            fixed specs; kept for generality).
        mutation_acceptance_rate: Accepted / attempted mutations, pooled
            over runs (0 for the null model).
        rejection_fitness_rate: Share of attempts rejected by the
            fitness comparison.
        rejection_duplicate_rate: Share rejected as duplicates.
        skip_no_candidate_rate: Share skipped for lack of a same-category
            candidate (CM-C/CM-M only).
        curve_length_mean: Mean per-run frequent-combination curve length.
        curve_length_std: Its standard deviation across runs.
        top_frequency_mean: Mean rank-1 relative support across runs.
        top_frequency_std: Its standard deviation.
    """

    model_name: str
    n_runs: int
    mean_final_pool: float
    mean_recipes: float
    mutation_acceptance_rate: float
    rejection_fitness_rate: float
    rejection_duplicate_rate: float
    skip_no_candidate_rate: float
    curve_length_mean: float
    curve_length_std: float
    top_frequency_mean: float
    top_frequency_std: float


def summarize_ensemble(
    runs: list[EvolutionRun] | tuple[EvolutionRun, ...],
    mining: MiningConfig = DEFAULT_MINING,
) -> EnsembleStatistics:
    """Summarize runs of one model on one cuisine.

    Raises:
        ModelError: If ``runs`` is empty or mixes models.
    """
    if not runs:
        raise ModelError("cannot summarize zero runs")
    names = {run.model_name for run in runs}
    if len(names) != 1:
        raise ModelError(f"runs mix models: {sorted(names)}")

    attempted = sum(run.trace.mutations_attempted for run in runs)
    accepted = sum(run.trace.mutations_accepted for run in runs)
    rejected_fitness = sum(
        run.trace.mutations_rejected_fitness for run in runs
    )
    rejected_duplicate = sum(
        run.trace.mutations_rejected_duplicate for run in runs
    )
    skipped = sum(
        run.trace.mutations_skipped_no_candidate for run in runs
    )
    denominator = max(attempted, 1)

    curves = mine_frequencies(
        [run.transactions for run in runs],
        min_support=mining.min_support,
        max_size=mining.max_size,
    )
    lengths = [curve.size for curve in curves]
    top_frequencies = [
        float(curve[0]) if curve.size else 0.0 for curve in curves
    ]

    return EnsembleStatistics(
        model_name=runs[0].model_name,
        n_runs=len(runs),
        mean_final_pool=float(
            np.mean([run.final_pool_size for run in runs])
        ),
        mean_recipes=float(np.mean([run.n_recipes for run in runs])),
        mutation_acceptance_rate=accepted / denominator,
        rejection_fitness_rate=rejected_fitness / denominator,
        rejection_duplicate_rate=rejected_duplicate / denominator,
        skip_no_candidate_rate=skipped / denominator,
        curve_length_mean=float(np.mean(lengths)),
        curve_length_std=float(np.std(lengths)),
        top_frequency_mean=float(np.mean(top_frequencies)),
        top_frequency_std=float(np.std(top_frequencies)),
    )
