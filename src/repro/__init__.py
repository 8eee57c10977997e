"""repro — reproduction of "Computational Models for the Evolution of
World Cuisines" (Tuwani, Sahoo, Singh & Bagler, ICDE 2019).

Quickstart::

    from repro import standard_lexicon, WorldKitchen
    from repro import CuisineSpec, create_model, run_ensemble
    from repro import combination_curve, curve_distance

    lexicon = standard_lexicon()
    corpus = WorldKitchen(lexicon, seed=0).generate_dataset(scale=0.05)
    spec = CuisineSpec.from_view(corpus.cuisine("ITA"), lexicon)
    ensemble = run_ensemble(create_model("CM-R"), spec, n_runs=10, seed=1)
    empirical, _ = combination_curve(corpus, "ITA", lexicon)
    print(curve_distance(empirical, ensemble.ingredient_curve))

Subpackages: :mod:`repro.lexicon` (ingredient dictionary + aliasing),
:mod:`repro.corpus` (recipes, regions, ETL, the JSONL corpus file),
:mod:`repro.synthesis` (calibrated corpus generator),
:mod:`repro.analysis` (Secs. III-IV metrics and mining),
:mod:`repro.models` (Sec. V evolution models),
:mod:`repro.experiments` (per-table/figure drivers),
:mod:`repro.runtime` (parallel ensemble execution + run caching).
"""

from repro.analysis import (
    analyze_invariants,
    combination_curve,
    curve_distance,
    mine_frequent_itemsets,
    overrepresentation_scores,
    pairwise_distance_matrix,
    top_overrepresented,
)
from repro.config import DEFAULT_MINING, PAPER, MiningConfig, PaperConstants
from repro.corpus import (
    RawRecipe,
    Recipe,
    RecipeDataset,
    Region,
    compile_corpus,
    corpus_stats,
    get_region,
    iter_regions,
    load_jsonl,
    save_jsonl,
)
from repro.errors import ReproError
from repro.lexicon import (
    Category,
    Ingredient,
    Lexicon,
    build_standard_lexicon,
    standard_lexicon,
)
from repro.models import (
    CopyMutateCategory,
    CopyMutateMixture,
    CopyMutateRandom,
    CuisineSpec,
    ModelParams,
    NullModel,
    PAPER_MODELS,
    create_model,
    run_ensemble,
)
from repro.runtime import (
    CurveCache,
    RunCache,
    RuntimeConfig,
    execute_runs,
    get_executor,
    parallel_map,
)
from repro.synthesis import WorldKitchen, generate_world_corpus

__version__ = "1.0.0"

__all__ = [
    "analyze_invariants",
    "combination_curve",
    "curve_distance",
    "mine_frequent_itemsets",
    "overrepresentation_scores",
    "pairwise_distance_matrix",
    "top_overrepresented",
    "DEFAULT_MINING",
    "PAPER",
    "MiningConfig",
    "PaperConstants",
    "RawRecipe",
    "Recipe",
    "RecipeDataset",
    "Region",
    "compile_corpus",
    "corpus_stats",
    "get_region",
    "iter_regions",
    "load_jsonl",
    "save_jsonl",
    "ReproError",
    "Category",
    "Ingredient",
    "Lexicon",
    "build_standard_lexicon",
    "standard_lexicon",
    "CopyMutateCategory",
    "CopyMutateMixture",
    "CopyMutateRandom",
    "CuisineSpec",
    "ModelParams",
    "NullModel",
    "PAPER_MODELS",
    "create_model",
    "run_ensemble",
    "CurveCache",
    "RunCache",
    "RuntimeConfig",
    "execute_runs",
    "get_executor",
    "parallel_map",
    "WorldKitchen",
    "generate_world_corpus",
    "__version__",
]
