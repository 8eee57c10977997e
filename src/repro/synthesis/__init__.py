"""Synthetic corpus generation (the data substitution; DESIGN.md §2)."""

from repro import _lazy_exports

__getattr__, __dir__, __all__ = _lazy_exports(__name__, {
    "archetypes": (
        "ARCHETYPES",
        "REGION_PROFILES",
        "CuisineProfile",
        "DishArchetype",
        "validate_archetypes",
    ),
    "calibration": ("CalibrationSummary", "RegionCalibration", "check_calibration"),
    "noise": ("MentionRenderer",),
    "popularity": ("gumbel_topk", "truncated_normal_sizes", "zipf_weights"),
    "worldgen": ("CuisineBlueprint", "WorldKitchen", "generate_world_corpus"),
})
