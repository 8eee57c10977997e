"""Variable recipe size copy-mutate (the paper's future work).

Sec. VII: "Future studies should explore the effect of variable recipe
sizes ...".  This extension augments the CM-R mutation step with
insertion and deletion moves so recipe sizes drift within the paper's
empirical bounds [2, 38] instead of staying pinned at s̄:

* with probability ``p_insert`` a pool ingredient is *added* (if the
  recipe is below the maximum size);
* with probability ``p_delete`` a random ingredient is *removed* (if
  above the minimum size);
* otherwise the standard fitness-gated replacement applies.
"""

from __future__ import annotations

import numpy as np

from repro.config import PAPER
from repro.errors import ParameterError
from repro.models.base import CopyMutateBase
from repro.models.params import ModelParams
from repro.models.registry import register_model
from repro.models.state import EvolutionState

__all__ = ["VariableSizeCopyMutate"]


class VariableSizeCopyMutate(CopyMutateBase):
    """CM-V: copy-mutate with size-changing moves.

    Args:
        params: Standard model parameters.
        fitness: Fitness strategy.
        p_insert: Probability a mutation is an insertion.
        p_delete: Probability a mutation is a deletion.
        min_size: Smallest allowed recipe (paper bound: 2).
        max_size: Largest allowed recipe (paper bound: 38).
        engine: Convenience override for ``params.engine``.  CM-V
            declares no ``batched_kind``: its recipes change length, so
            there is no fixed row width for the batched engine to
            stack, and every run executes on the ``"reference"``
            engine (DESIGN.md §7).
    """

    name = "CM-V"

    def __init__(
        self,
        params: ModelParams | None = None,
        fitness=None,
        p_insert: float = 0.15,
        p_delete: float = 0.15,
        min_size: int = PAPER.recipe_size_min,
        max_size: int = PAPER.recipe_size_max,
        engine: str | None = None,
    ):
        super().__init__(params=params, fitness=fitness, engine=engine)
        if p_insert < 0 or p_delete < 0 or p_insert + p_delete > 1:
            raise ParameterError(
                f"require p_insert, p_delete >= 0 and p_insert + p_delete "
                f"<= 1; got {p_insert}, {p_delete}"
            )
        if not 1 <= min_size <= max_size:
            raise ParameterError(
                f"invalid size bounds [{min_size}, {max_size}]"
            )
        self.p_insert = p_insert
        self.p_delete = p_delete
        self.min_size = min_size
        self.max_size = max_size

    @classmethod
    def default_params(cls) -> ModelParams:
        return ModelParams(mutations=PAPER.model_mutations_cm_r)

    def _recipe_step(
        self, state: EvolutionState, rng: np.random.Generator
    ) -> None:
        mother = state.recipes[state.random_recipe_index()]
        recipe = list(mother)
        for _g in range(self.params.mutations):
            state.trace.mutations_attempted += 1
            move = rng.random()
            if move < self.p_insert:
                if len(recipe) >= self.max_size:
                    continue
                candidate = state.random_pool_ingredient()
                if candidate in recipe:
                    state.trace.mutations_rejected_duplicate += 1
                    continue
                recipe.append(candidate)
                state.trace.mutations_accepted += 1
            elif move < self.p_insert + self.p_delete:
                if len(recipe) <= self.min_size:
                    continue
                recipe.pop(int(rng.integers(0, len(recipe))))
                state.trace.mutations_accepted += 1
            else:
                victim_position = int(rng.integers(0, len(recipe)))
                victim = recipe[victim_position]
                replacement = self._choose_replacement(state, victim, rng)
                if replacement is None or replacement == victim:
                    state.trace.mutations_rejected_duplicate += 1
                    continue
                if state.fitness_of(replacement) <= state.fitness_of(victim):
                    state.trace.mutations_rejected_fitness += 1
                    continue
                if replacement in recipe:
                    state.trace.mutations_rejected_duplicate += 1
                    continue
                recipe[victim_position] = replacement
                state.trace.mutations_accepted += 1
        state.add_recipe(recipe)

    def _choose_replacement(
        self,
        state: EvolutionState,
        victim: int,
        rng: np.random.Generator,
    ) -> int | None:
        return state.random_pool_ingredient()


register_model(VariableSizeCopyMutate.name, VariableSizeCopyMutate)
