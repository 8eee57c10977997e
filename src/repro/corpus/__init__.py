"""Recipe corpus substrate (Sec. II).

Datatypes (:class:`Recipe`, :class:`RawRecipe`), the 25-region Table I
registry, the nine-source registry, dataset containers with per-cuisine
views, JSONL/CSV persistence, descriptive statistics and the raw-to-
standardized compilation pipeline.
"""

from repro.corpus.builder import (
    CompilationReport,
    CompilationResult,
    compile_corpus,
)
from repro.corpus.dataset import CuisineView, RecipeDataset
from repro.corpus.io import (
    load_csv,
    load_jsonl,
    load_raw_jsonl,
    save_csv,
    save_jsonl,
    save_raw_jsonl,
)
from repro.corpus.merge import merge_datasets, reassign_ids, subsample_dataset
from repro.corpus.recipe import RawRecipe, Recipe
from repro.corpus.regions import (
    ALL_REGION_CODES,
    REGIONS,
    Region,
    get_region,
    iter_regions,
)
from repro.corpus.sources import (
    SOURCES,
    RecipeSource,
    source_weights,
    total_source_recipes,
)
from repro.corpus.stats import CorpusStats, CuisineStats, corpus_stats, cuisine_stats

__all__ = [
    "CompilationReport",
    "CompilationResult",
    "compile_corpus",
    "CuisineView",
    "RecipeDataset",
    "load_csv",
    "load_jsonl",
    "load_raw_jsonl",
    "save_csv",
    "save_jsonl",
    "save_raw_jsonl",
    "merge_datasets",
    "reassign_ids",
    "subsample_dataset",
    "RawRecipe",
    "Recipe",
    "ALL_REGION_CODES",
    "REGIONS",
    "Region",
    "get_region",
    "iter_regions",
    "SOURCES",
    "RecipeSource",
    "source_weights",
    "total_source_recipes",
    "CorpusStats",
    "CuisineStats",
    "corpus_stats",
    "cuisine_stats",
]
