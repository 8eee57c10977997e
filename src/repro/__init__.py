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

Every package imports its re-exports on first access (PEP 562), so a
process loads only the modules it uses: importing :mod:`repro` loads
nothing else, and a fig4 run never loads the other experiments.
"""

import importlib
import sys
import types
from typing import Callable


def _lazy_exports(
    package: str, modules: dict[str, tuple[str, ...]]
) -> tuple[Callable[[str], object], Callable[[], list[str]], list[str]]:
    """``(__getattr__, __dir__, __all__)`` for a package whose re-exports
    import on first access (PEP 562).

    ``modules`` maps each submodule, relative to ``package``, to the
    names it defines that the package re-exports.  A name is imported
    from its submodule the first time it is read and then bound in the
    package, so a process loads only the modules it uses.  A name that
    is also its submodule's name (``repro.analysis.size_distribution``)
    stays the re-exported object after that submodule is imported.
    """
    home = {name: module for module, names in modules.items() for name in names}
    namespace = sys.modules[package].__dict__

    def __getattr__(name: str) -> object:
        module = home.get(name)
        if module is None:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}"
            )
        value = getattr(importlib.import_module(f"{package}.{module}"), name)
        namespace[name] = value
        return value

    def __dir__() -> list[str]:
        return sorted(set(namespace) | set(home))

    shadowed = {name for name, module in home.items() if name == module}
    if shadowed:

        class _Package(types.ModuleType):
            def __setattr__(self, name: str, value: object) -> None:
                # The import system binds a loaded submodule on its
                # package; keep the same-named re-export instead.
                if name in shadowed and isinstance(value, types.ModuleType):
                    value = getattr(value, name)
                super().__setattr__(name, value)

        sys.modules[package].__class__ = _Package

    return __getattr__, __dir__, sorted(home)


__getattr__, __dir__, __all__ = _lazy_exports(__name__, {
    "analysis": (
        "analyze_invariants",
        "combination_curve",
        "curve_distance",
        "mine_frequent_itemsets",
        "overrepresentation_scores",
        "pairwise_distance_matrix",
        "top_overrepresented",
    ),
    "config": ("DEFAULT_MINING", "PAPER", "MiningConfig", "PaperConstants"),
    "corpus": (
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
    ),
    "errors": ("ReproError",),
    "lexicon": (
        "Category",
        "Ingredient",
        "Lexicon",
        "build_standard_lexicon",
        "standard_lexicon",
    ),
    "models": (
        "CopyMutateCategory",
        "CopyMutateMixture",
        "CopyMutateRandom",
        "CuisineSpec",
        "ModelParams",
        "NullModel",
        "PAPER_MODELS",
        "create_model",
        "run_ensemble",
    ),
    "runtime": (
        "CurveCache",
        "RunCache",
        "RuntimeConfig",
        "execute_runs",
        "get_executor",
        "parallel_map",
    ),
    "synthesis": ("WorldKitchen", "generate_world_corpus"),
})

__version__ = "1.0.0"

__all__.append("__version__")
