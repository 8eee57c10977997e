"""Experiment ``islands``: the paper's invariants across migration regimes.

Sec. VII names horizontal (cross-region) transmission as the open
modeling frontier.  This experiment co-evolves a neighbourhood of
cuisines under the island engine (DESIGN.md §10) across several
migration topologies — isolated, ring, star, full mesh — and measures
how migration deforms the paper's invariants:

* **rank-frequency / combination curves** — mean pairwise curve
  distance between islands (migration should pull cuisines together)
  and each regime's mean curve distance to the isolated baseline;
* **vocabulary growth** — mean Heaps exponent of the evolved recipe
  pools (sub-linear growth must survive migration);
* **borrowing volume** — total borrowed recipe steps per regime.

Every regime runs the *same* master seeds (paired comparison), so the
isolated regime is bit-identical to what each island would have done
alone and all differences are attributable to migration.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis.mae import curve_distance
from repro.analysis.rank_frequency import RankFrequencyCurve
from repro.analysis.vocabulary_growth import fit_heaps, growth_from_sets
from repro.errors import ExperimentError
from repro.experiments.base import ExperimentContext
from repro.models.copy_mutate import CopyMutateRandom
from repro.models.ensemble import ensemble_curves
from repro.models.islands import (
    IslandSimulation,
    MigrationTopology,
    run_island_ensemble,
)
from repro.models.params import CuisineSpec
from repro.viz.ascii import render_table
from repro.viz.export import write_csv

__all__ = ["IslandsRegime", "IslandsResult", "run_islands"]

#: Per-edge migration rate shared by the default regimes.  Kept modest
#: so inbound sums stay well below 1 even on the full mesh.
DEFAULT_EDGE_RATE = 0.1

#: How many cuisines the default neighbourhood holds.
DEFAULT_N_ISLANDS = 3


@dataclass(frozen=True)
class IslandsRegime:
    """Measured invariants for one migration regime.

    Attributes:
        name: Regime label (``isolated``/``ring``/``star``/``mesh``).
        borrow_events: Total borrowed recipe steps across islands and
            ensemble runs.
        pairwise_distance: Mean pairwise distance between the islands'
            ensemble-averaged combination curves.
        distance_to_isolated: Mean per-island curve distance to the
            isolated regime (0 for the isolated row itself).
        heaps_beta: Mean Heaps exponent of the evolved pools (first run
            per island); sub-linear growth keeps it < 1.
    """

    name: str
    borrow_events: int
    pairwise_distance: float
    distance_to_isolated: float
    heaps_beta: float


@dataclass(frozen=True)
class IslandsResult:
    """Migration-regime comparison over one cuisine neighbourhood."""

    codes: tuple[str, ...]
    n_runs: int
    scale: float
    regimes: tuple[IslandsRegime, ...]

    def render(self) -> str:
        rows = [
            (
                regime.name,
                regime.borrow_events,
                f"{regime.pairwise_distance:.4f}",
                f"{regime.distance_to_isolated:.4f}",
                f"{regime.heaps_beta:.3f}",
            )
            for regime in self.regimes
        ]
        return render_table(
            ("Regime", "Borrows", "Pairwise dist", "Dist to isolated",
             "Heaps beta"),
            rows,
            title=(
                f"Island migration regimes over {', '.join(self.codes)} "
                f"(scale={self.scale}, {self.n_runs} runs; DESIGN.md §10) — "
                "more migration should pull the islands' curves together"
            ),
        )

    def to_payload(self) -> dict:
        return {
            "experiment": "islands",
            "codes": list(self.codes),
            "n_runs": self.n_runs,
            "scale": self.scale,
            "regimes": [
                {
                    "name": regime.name,
                    "borrow_events": regime.borrow_events,
                    "pairwise_distance": regime.pairwise_distance,
                    "distance_to_isolated": regime.distance_to_isolated,
                    "heaps_beta": regime.heaps_beta,
                }
                for regime in self.regimes
            ],
        }


def _default_regimes(
    codes: tuple[str, ...], rate: float
) -> tuple[tuple[str, MigrationTopology], ...]:
    return (
        ("isolated", MigrationTopology.isolated()),
        ("ring", MigrationTopology.ring(codes, rate)),
        ("star", MigrationTopology.star(codes[0], codes[1:], rate)),
        ("mesh", MigrationTopology.full_mesh(codes, rate)),
    )


def _mean_pairwise(curves: list[RankFrequencyCurve]) -> float:
    total, pairs = 0.0, 0
    for i in range(len(curves)):
        for j in range(i + 1, len(curves)):
            total += curve_distance(curves[i], curves[j])
            pairs += 1
    return total / pairs if pairs else 0.0


def run_islands(
    context: ExperimentContext,
    region_codes: tuple[str, ...] | None = None,
    edge_rate: float = DEFAULT_EDGE_RATE,
) -> IslandsResult:
    """Compare migration regimes over a neighbourhood of cuisines.

    Args:
        context: Shared corpus/runtime inputs; ``ensemble_runs``
            archipelago executions run per regime, dispatched through
            ``context.runtime`` and cached per island.
        region_codes: The neighbourhood (default: the corpus's first
            :data:`DEFAULT_N_ISLANDS` regions, sorted).
        edge_rate: Per-edge migration rate for the non-isolated
            regimes.
    """
    codes = (
        tuple(region_codes)
        if region_codes is not None
        else context.dataset.region_codes()[:DEFAULT_N_ISLANDS]
    )
    if len(codes) < 2:
        raise ExperimentError(
            f"islands experiment needs at least two cuisines, got {codes}"
        )
    specs = [
        CuisineSpec.from_view(context.dataset.cuisine(code), context.lexicon)
        for code in codes
    ]
    model = CopyMutateRandom()
    curve_cache = context.curve_cache()

    per_regime_curves: dict[str, list[RankFrequencyCurve]] = {}
    rows: list[IslandsRegime] = []
    regimes = _default_regimes(codes, edge_rate)
    for name, topology in regimes:
        simulation = IslandSimulation(model, specs, topology)
        ensemble = run_island_ensemble(
            simulation,
            context.ensemble_runs,
            seed=context.seed,
            runtime=context.runtime,
        )
        curves = ensemble_curves(
            [
                (
                    ensemble.runs[code], f"{name}:{code}",
                    None if ensemble.keys is None else ensemble.keys[code],
                )
                for code in codes
            ],
            mining=context.mining,
            runtime=context.runtime,
            curve_cache=curve_cache,
        )
        per_regime_curves[name] = curves
        betas = [
            fit_heaps(growth_from_sets(ensemble.runs[code][0].transactions)).beta
            for code in codes
        ]
        rows.append(
            IslandsRegime(
                name=name,
                borrow_events=sum(
                    run.trace.recipes_borrowed
                    for code in codes
                    for run in ensemble.runs[code]
                ),
                pairwise_distance=_mean_pairwise(curves),
                distance_to_isolated=0.0,  # filled below
                heaps_beta=sum(betas) / len(betas),
            )
        )

    isolated_curves = per_regime_curves[regimes[0][0]]
    rows = [
        IslandsRegime(
            name=row.name,
            borrow_events=row.borrow_events,
            pairwise_distance=row.pairwise_distance,
            distance_to_isolated=(
                sum(
                    curve_distance(curve, isolated)
                    for curve, isolated in zip(
                        per_regime_curves[row.name], isolated_curves
                    )
                )
                / len(codes)
            ),
            heaps_beta=row.heaps_beta,
        )
        for row in rows
    ]

    result = IslandsResult(
        codes=codes,
        n_runs=context.ensemble_runs,
        scale=context.scale,
        regimes=tuple(rows),
    )
    path = context.artifact_path("islands.csv")
    if path is not None:
        write_csv(
            path,
            ("regime", "borrow_events", "pairwise_distance",
             "distance_to_isolated", "heaps_beta"),
            [
                (
                    regime.name,
                    regime.borrow_events,
                    f"{regime.pairwise_distance:.6f}",
                    f"{regime.distance_to_isolated:.6f}",
                    f"{regime.heaps_beta:.6f}",
                )
                for regime in result.regimes
            ],
        )
    return result
