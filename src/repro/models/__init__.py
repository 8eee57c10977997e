"""Culinary evolution models (Sec. V — the paper's core contribution)."""

from repro import _lazy_exports

__getattr__, __dir__, __all__ = _lazy_exports(__name__, {
    "base": ("CopyMutateBase", "CulinaryEvolutionModel", "EvolutionRun"),
    "batched": ("BATCHED_KINDS", "BATCHED_STREAM_VERSION", "run_batched"),
    "copy_mutate": ("CopyMutateCategory", "CopyMutateMixture", "CopyMutateRandom"),
    "ensemble": (
        "EnsembleCell",
        "EnsembleResult",
        "aggregate_ensemble",
        "ensemble_curve",
        "ensemble_curves",
        "run_ensemble",
    ),
    "islands": (
        "ISLANDS_STREAM_VERSION",
        "IslandEnsembleResult",
        "IslandMemberModel",
        "IslandOutcome",
        "IslandSimulation",
        "MigrationEdge",
        "MigrationTopology",
        "island_seed_streams",
        "run_island_ensemble",
    ),
    "fitness": (
        "FitnessStrategy",
        "RankBiasedFitness",
        "ScoredFitness",
        "UniformFitness",
    ),
    "null_model": ("NullModel",),
    "params": ("ENGINES", "CuisineSpec", "ModelParams"),
    "registry": ("PAPER_MODELS", "available_models", "create_model", "register_model"),
    "state": ("EvolutionState", "EvolutionTraceCounters"),
})
