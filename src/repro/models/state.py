"""Mutable simulation state of the reference Algorithm 1 engine.

:class:`EvolutionState` tracks the ingredient universe ``I``, the
growing pool ``I₀``, the growing recipe pool ``R₀``, per-ingredient
fitness, and the pool-ratio bookkeeping (∂ = m/n vs φ) for the scalar
loop of DESIGN.md §5.  Its public surface speaks ingredient *ids*
(recipes are lists of ids, draws return ids) because the scalar loop,
the island engine and the extensions (:mod:`repro.models.extensions`)
are written in id space.  Internally fitness and category live in dense
position-indexed arrays behind one id→position index, and per-category
pool membership is a contiguous list per category code.  (The batched
engine keeps its own stacked position planes; see
:mod:`repro.models.batched`.)

Invariants (enforced by the property tests):

* the pool is always a subset of the original universe;
* pool and remaining universe are disjoint and their union is constant;
* ``m`` and ``n`` always equal the actual container sizes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ModelError
from repro.lexicon.categories import Category
from repro.models.params import CuisineSpec
from repro.transactions import TransactionPlane

__all__ = [
    "CATEGORY_CODES",
    "EvolutionState",
    "EvolutionTraceCounters",
]

#: Stable category → dense integer code mapping (enum declaration order).
CATEGORY_CODES: dict[Category, int] = {
    category: code for code, category in enumerate(Category)
}

#: Dense code → category, inverse of :data:`CATEGORY_CODES`.
CATEGORIES_BY_CODE: tuple[Category, ...] = tuple(Category)


@dataclass
class EvolutionTraceCounters:
    """Event counts accumulated during one run.

    Attributes:
        recipes_added: Copy-mutate (or null) recipe additions.
        ingredients_added: Pool growth events.
        mutations_attempted: Mutation attempts (g-loop iterations).
        mutations_accepted: Replacements actually applied.
        mutations_rejected_fitness: Rejected because fitness(j) <= fitness(i).
        mutations_rejected_duplicate: Rejected because j was already in r.
        mutations_skipped_no_candidate: CM-C attempts with no same-category
            candidate in the pool (under the "skip" fallback).
        recipes_borrowed: Recipe steps whose mother came from another
            island (DESIGN.md §10); always 0 for single-population runs.
    """

    recipes_added: int = 0
    ingredients_added: int = 0
    mutations_attempted: int = 0
    mutations_accepted: int = 0
    mutations_rejected_fitness: int = 0
    mutations_rejected_duplicate: int = 0
    mutations_skipped_no_candidate: int = 0
    recipes_borrowed: int = 0


class EvolutionState:
    """Live state of one reference-engine Algorithm 1 run (id space)."""

    def __init__(
        self,
        spec: CuisineSpec,
        fitness: np.ndarray,
        rng: np.random.Generator,
        initial_pool_size: int,
        initial_recipes: int,
    ):
        if fitness.shape != (len(spec.ingredient_ids),):
            raise ModelError(
                f"fitness must align with the universe: {fitness.shape} vs "
                f"{len(spec.ingredient_ids)}"
            )
        m = min(initial_pool_size, len(spec.ingredient_ids))
        if m < 1:
            raise ModelError("initial pool must hold at least one ingredient")

        self.spec = spec
        self._rng = rng
        # Dense position-indexed value arrays behind one id→position
        # index.
        self._position_of = {
            int(ingredient_id): position
            for position, ingredient_id in enumerate(spec.ingredient_ids)
        }
        self._fitness_list: list[float] = (
            np.asarray(fitness, dtype=np.float64).tolist()
        )
        self._category_codes: list[int] = [
            CATEGORY_CODES[category] for category in spec.categories
        ]

        # Step 2: I0 <- m random ingredients; I <- I - I0.
        universe = np.asarray(spec.ingredient_ids, dtype=np.int64)
        picked = rng.choice(universe.size, size=m, replace=False)
        mask = np.zeros(universe.size, dtype=bool)
        mask[picked] = True
        self._pool: list[int] = [int(i) for i in universe[mask]]
        self._pool_set: set[int] = set(self._pool)
        self._remaining: list[int] = [int(i) for i in universe[~mask]]
        # Contiguous pool-membership list per category code (append-only:
        # the pool never shrinks).
        self._pool_by_code: list[list[int]] = [
            [] for _ in CATEGORIES_BY_CODE
        ]
        for ingredient_id in self._pool:
            code = self._category_codes[self._position_of[ingredient_id]]
            self._pool_by_code[code].append(ingredient_id)

        # R0 <- n recipes of s̄ distinct pool ingredients each.
        size = min(spec.recipe_size, len(self._pool))
        self.recipes: list[list[int]] = []
        for _ in range(initial_recipes):
            rows = rng.choice(len(self._pool), size=size, replace=False)
            self.recipes.append([self._pool[int(row)] for row in rows])

        self.trace = EvolutionTraceCounters()

    # ------------------------------------------------------------------
    # Bookkeeping accessors
    # ------------------------------------------------------------------

    @property
    def m(self) -> int:
        """Current ingredient pool size."""
        return len(self._pool)

    @property
    def n(self) -> int:
        """Current recipe pool size."""
        return len(self.recipes)

    @property
    def pool(self) -> tuple[int, ...]:
        return tuple(self._pool)

    @property
    def remaining_universe(self) -> tuple[int, ...]:
        return tuple(self._remaining)

    def pool_ratio(self) -> float:
        """∂ = m/n (Algorithm 1, line 8)."""
        return self.m / max(self.n, 1)

    def fitness_of(self, ingredient_id: int) -> float:
        try:
            return self._fitness_list[self._position_of[ingredient_id]]
        except KeyError:
            raise ModelError(
                f"ingredient {ingredient_id} is not in this cuisine's universe"
            ) from None

    def category_of(self, ingredient_id: int) -> Category:
        try:
            code = self._category_codes[self._position_of[ingredient_id]]
        except KeyError:
            raise ModelError(
                f"ingredient {ingredient_id} is not in this cuisine's universe"
            ) from None
        return CATEGORIES_BY_CODE[code]

    # ------------------------------------------------------------------
    # Algorithm steps
    # ------------------------------------------------------------------

    def in_universe(self, ingredient_id: int) -> bool:
        """Whether the ingredient belongs to this cuisine's universe."""
        return ingredient_id in self._position_of

    def in_pool(self, ingredient_id: int) -> bool:
        """Whether the ingredient is currently in the pool ``I₀``."""
        return ingredient_id in self._pool_set

    def can_grow_pool(self) -> bool:
        return bool(self._remaining)

    def grow_pool(self) -> int:
        """Lines 22-25: move a random universe ingredient into the pool."""
        if not self._remaining:
            raise ModelError("ingredient universe is exhausted")
        row = int(self._rng.integers(0, len(self._remaining)))
        # O(1) removal: swap with last, pop.
        ingredient_id = self._remaining[row]
        self._remaining[row] = self._remaining[-1]
        self._remaining.pop()
        self._pool.append(ingredient_id)
        self._pool_set.add(ingredient_id)
        code = self._category_codes[self._position_of[ingredient_id]]
        self._pool_by_code[code].append(ingredient_id)
        self.trace.ingredients_added += 1
        return ingredient_id

    def adopt_ingredient(self, ingredient_id: int) -> None:
        """Move a *specific* remaining ingredient into the pool.

        The directed counterpart of :meth:`grow_pool`, used by the
        island engine (DESIGN.md §10) when a borrowed recipe carries an
        ingredient this cuisine knows but has not pooled yet.  Counted
        in ``trace.ingredients_added`` so the m/n invariant Algorithm 1
        enforces (∂ vs φ) keeps holding under migration.
        """
        if ingredient_id in self._pool_set:
            raise ModelError(
                f"ingredient {ingredient_id} is already in the pool"
            )
        if ingredient_id not in self._position_of:
            raise ModelError(
                f"ingredient {ingredient_id} is not in this cuisine's universe"
            )
        row = self._remaining.index(ingredient_id)
        self._remaining[row] = self._remaining[-1]
        self._remaining.pop()
        self._pool.append(ingredient_id)
        self._pool_set.add(ingredient_id)
        code = self._category_codes[self._position_of[ingredient_id]]
        self._pool_by_code[code].append(ingredient_id)
        self.trace.ingredients_added += 1

    def random_recipe_index(self) -> int:
        return int(self._rng.integers(0, len(self.recipes)))

    def random_pool_ingredient(self) -> int:
        """Uniform draw from the pool (CM-R's j)."""
        return self._pool[int(self._rng.integers(0, len(self._pool)))]

    def random_pool_ingredient_of_category(
        self, category: Category
    ) -> int | None:
        """Uniform draw from pool ∩ category (CM-C's j); None if empty."""
        members = self._pool_by_code[CATEGORY_CODES[category]]
        if not members:
            return None
        return members[int(self._rng.integers(0, len(members)))]

    def add_recipe(self, recipe: list[int]) -> None:
        """Line 19: append a mutated copy to the recipe pool."""
        if not recipe:
            raise ModelError("cannot add an empty recipe")
        self.recipes.append(recipe)
        self.trace.recipes_added += 1

    # ------------------------------------------------------------------
    # Output
    # ------------------------------------------------------------------

    def transactions(self) -> TransactionPlane:
        """Recipe pool as itemset transactions (mining input)."""
        return TransactionPlane.of(self.recipes)
