"""Model parameters and the per-cuisine inputs of Algorithm 1.

Algorithm 1 takes, per cuisine: the ingredient list ``I``, average recipe
size ``s̄``, initial pool sizes ``m`` and ``n``, target recipe count
``N``, mutation count ``M`` and the ingredients-per-recipes ratio ``φ``.
:class:`CuisineSpec` packages the cuisine-derived quantities;
:class:`ModelParams` the model-side knobs with the paper's Sec. VI
defaults (m=20, n=m/φ, M=4 for CM-R and 6 for CM-C/CM-M).
"""

from __future__ import annotations

from dataclasses import dataclass, replace


from repro.config import PAPER
from repro.corpus.dataset import CuisineView
from repro.errors import ParameterError
from repro.lexicon.categories import Category
from repro.lexicon.lexicon import Lexicon

__all__ = ["ENGINES", "ModelParams", "CuisineSpec"]

#: Recognized simulation engines (see DESIGN.md §5 and §7).
#: ``"reference"`` is the scalar Algorithm 1 loop kept as the executable
#: specification; ``"batched"`` (the default) stacks a whole same-cell
#: ensemble into ``(runs, …)`` arrays and advances every run per step in
#: one numpy pass, under its own versioned per-run determinism contract.
ENGINES: tuple[str, ...] = ("reference", "batched")


@dataclass(frozen=True)
class ModelParams:
    """Knobs of the copy-mutate family (Algorithm 1 + our resolutions).

    Attributes:
        initial_pool_size: ``m`` — ingredients in the starting pool
            (paper: 20).
        mutations: ``M`` — mutation attempts per copied recipe.
        initial_recipes: ``n`` — starting recipe pool size; ``None``
            derives the paper's ``n = m/φ`` (rounded, at least 1).
        duplicate_policy: What to do when the chosen replacement already
            occurs in the recipe: ``"skip"`` (default; recipes stay sets)
            or ``"allow"`` (paper is silent; kept for ablation — the
            duplicate is dropped at recipe-set construction either way,
            shrinking the recipe).
        category_fallback: CM-C behaviour when the pool holds no
            same-category candidate: ``"skip"`` the mutation (default) or
            fall back to ``"random"`` pool-wide choice.
        mixture_category_probability: CM-M's probability of using the
            category-restricted choice (paper: exactly half the time).
        engine: Simulation engine executing Algorithm 1:
            ``"batched"`` (default; whole-ensemble run stacking, a
            single run is a batch of one) or ``"reference"`` (the
            scalar loop, kept as the executable spec).  Both are
            deterministic per seed; the reference engine consumes the
            RNG stream in a different order, so its runs — and its
            run-cache keys — differ (DESIGN.md §5, §7).
    """

    initial_pool_size: int = PAPER.model_initial_pool_size
    mutations: int = PAPER.model_mutations_cm_r
    initial_recipes: int | None = None
    duplicate_policy: str = "skip"
    category_fallback: str = "skip"
    mixture_category_probability: float = 0.5
    engine: str = "batched"

    def __post_init__(self) -> None:
        if self.initial_pool_size < 1:
            raise ParameterError(
                f"initial_pool_size must be >= 1, got {self.initial_pool_size}"
            )
        if self.mutations < 0:
            raise ParameterError(f"mutations must be >= 0, got {self.mutations}")
        if self.initial_recipes is not None and self.initial_recipes < 1:
            raise ParameterError(
                f"initial_recipes must be >= 1, got {self.initial_recipes}"
            )
        if self.duplicate_policy not in ("skip", "allow"):
            raise ParameterError(
                f"duplicate_policy must be 'skip' or 'allow', got "
                f"{self.duplicate_policy!r}"
            )
        if self.category_fallback not in ("skip", "random"):
            raise ParameterError(
                f"category_fallback must be 'skip' or 'random', got "
                f"{self.category_fallback!r}"
            )
        if not 0.0 <= self.mixture_category_probability <= 1.0:
            raise ParameterError(
                "mixture_category_probability must be in [0, 1], got "
                f"{self.mixture_category_probability}"
            )
        if self.engine not in ENGINES:
            raise ParameterError(
                f"engine must be one of {ENGINES}, got {self.engine!r}"
            )

    def with_mutations(self, mutations: int) -> "ModelParams":
        """Copy with a different ``M``."""
        return replace(self, mutations=mutations)

    def with_engine(self, engine: str) -> "ModelParams":
        """Copy selecting a different simulation engine."""
        return replace(self, engine=engine)

    def derive_initial_recipes(self, phi: float) -> int:
        """The paper's ``n = m/φ`` (Sec. VI), unless overridden."""
        if self.initial_recipes is not None:
            return self.initial_recipes
        if phi <= 0:
            raise ParameterError(f"phi must be > 0, got {phi}")
        return max(1, int(round(self.initial_pool_size / phi)))


@dataclass(frozen=True)
class CuisineSpec:
    """The cuisine-side inputs of Algorithm 1.

    Attributes:
        region_code: Cuisine label (carried through to outputs).
        ingredient_ids: The cuisine's ingredient list ``I`` (sorted).
        categories: Category of each entry of ``ingredient_ids``.
        avg_recipe_size: ``s̄`` (rounded to int >= 1 at use).
        n_recipes: ``N`` — total recipes to evolve to.
        phi: ``φ`` — unique ingredients / recipes.
    """

    region_code: str
    ingredient_ids: tuple[int, ...]
    categories: tuple[Category, ...]
    avg_recipe_size: float
    n_recipes: int
    phi: float

    def __post_init__(self) -> None:
        if not self.ingredient_ids:
            raise ParameterError("cuisine spec has an empty ingredient list")
        if len(self.categories) != len(self.ingredient_ids):
            raise ParameterError(
                "categories must align with ingredient_ids: "
                f"{len(self.categories)} vs {len(self.ingredient_ids)}"
            )
        if self.avg_recipe_size < 1:
            raise ParameterError(
                f"avg_recipe_size must be >= 1, got {self.avg_recipe_size}"
            )
        if self.n_recipes < 1:
            raise ParameterError(f"n_recipes must be >= 1, got {self.n_recipes}")
        if self.phi <= 0:
            raise ParameterError(f"phi must be > 0, got {self.phi}")

    @property
    def recipe_size(self) -> int:
        """``s̄`` as the integer used when composing recipes."""
        return max(1, int(round(self.avg_recipe_size)))

    @property
    def n_ingredients(self) -> int:
        return len(self.ingredient_ids)

    @classmethod
    def from_view(cls, view: CuisineView, lexicon: Lexicon) -> "CuisineSpec":
        """Derive the spec of an empirical cuisine (the paper's inputs)."""
        universe = view.ingredient_universe()
        return cls(
            region_code=view.region_code,
            ingredient_ids=universe,
            categories=tuple(lexicon.category_of(i) for i in universe),
            avg_recipe_size=view.average_recipe_size(),
            n_recipes=view.n_recipes,
            phi=view.phi(),
        )

    def scaled(self, n_recipes: int) -> "CuisineSpec":
        """Copy targeting a different recipe count, keeping φ and s̄.

        Useful for quick experiments: evolve fewer recipes while keeping
        the cuisine's structural parameters.
        """
        if n_recipes < 1:
            raise ParameterError(f"n_recipes must be >= 1, got {n_recipes}")
        return replace(self, n_recipes=n_recipes)
