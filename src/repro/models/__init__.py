"""Culinary evolution models (Sec. V — the paper's core contribution)."""

from repro.models.base import (
    CopyMutateBase,
    CulinaryEvolutionModel,
    EvolutionRun,
)
from repro.models.batched import (
    BATCHED_KINDS,
    BATCHED_STREAM_VERSION,
    run_batched,
)
from repro.models.copy_mutate import (
    CopyMutateCategory,
    CopyMutateMixture,
    CopyMutateRandom,
)
from repro.models.ensemble import (
    EnsembleResult,
    aggregate_ensemble,
    ensemble_curve,
    ensemble_curves,
    run_ensemble,
)
from repro.models.islands import (
    ISLANDS_STREAM_VERSION,
    IslandEnsembleResult,
    IslandMemberModel,
    IslandOutcome,
    IslandSimulation,
    MigrationEdge,
    MigrationTopology,
    island_seed_streams,
    run_island_ensemble,
)
from repro.models.fitness import (
    FitnessStrategy,
    RankBiasedFitness,
    ScoredFitness,
    UniformFitness,
)
from repro.models.null_model import NullModel
from repro.models.params import ENGINES, CuisineSpec, ModelParams
from repro.models.registry import (
    PAPER_MODELS,
    available_models,
    create_model,
    register_model,
)
from repro.models.state import EvolutionState, EvolutionTraceCounters
from repro.models.statistics import EnsembleStatistics, summarize_ensemble

__all__ = [
    "BATCHED_KINDS",
    "BATCHED_STREAM_VERSION",
    "ENGINES",
    "ISLANDS_STREAM_VERSION",
    "IslandEnsembleResult",
    "IslandMemberModel",
    "IslandOutcome",
    "IslandSimulation",
    "MigrationEdge",
    "MigrationTopology",
    "island_seed_streams",
    "run_island_ensemble",
    "run_batched",
    "CopyMutateBase",
    "CulinaryEvolutionModel",
    "EvolutionRun",
    "CopyMutateCategory",
    "CopyMutateMixture",
    "CopyMutateRandom",
    "EnsembleResult",
    "aggregate_ensemble",
    "ensemble_curve",
    "ensemble_curves",
    "run_ensemble",
    "FitnessStrategy",
    "RankBiasedFitness",
    "ScoredFitness",
    "UniformFitness",
    "NullModel",
    "CuisineSpec",
    "ModelParams",
    "PAPER_MODELS",
    "available_models",
    "create_model",
    "register_model",
    "EvolutionState",
    "EvolutionTraceCounters",
    "EnsembleStatistics",
    "summarize_ensemble",
]
