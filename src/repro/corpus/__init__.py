"""Recipe corpus substrate (Sec. II).

Datatypes (:class:`Recipe`, :class:`RawRecipe`), the 25-region Table I
registry, the nine-source registry, dataset containers with per-cuisine
views, JSONL/CSV persistence, descriptive statistics and the raw-to-
standardized compilation pipeline.
"""

from repro import _lazy_exports

__getattr__, __dir__, __all__ = _lazy_exports(__name__, {
    "builder": ("CompilationReport", "CompilationResult", "compile_corpus"),
    "dataset": ("CuisineView", "RecipeDataset"),
    "io": (
        "load_csv",
        "load_jsonl",
        "load_raw_jsonl",
        "save_csv",
        "save_jsonl",
        "save_raw_jsonl",
    ),
    "recipe": ("RawRecipe", "Recipe"),
    "regions": ("ALL_REGION_CODES", "REGIONS", "Region", "get_region", "iter_regions"),
    "sources": ("SOURCES", "RecipeSource", "source_weights", "total_source_recipes"),
    "stats": ("CorpusStats", "CuisineStats", "corpus_stats", "cuisine_stats"),
})
