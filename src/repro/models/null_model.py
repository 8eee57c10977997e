"""The Null Model (Sec. V control).

"No mutations — a new recipe is created at each iteration by randomly
sampling s̄ ingredients from the ingredient pool.  All the other steps
remain as it is."  The pool bookkeeping (∂ vs φ growth) is therefore kept
identical to the copy-mutate family; only the recipe step differs.

The paper's sentence cites the symbol ``I`` (the full ingredient list)
while calling it "the ingredient pool"; we default to sampling from the
growing pool ``I₀`` (the controlled comparison) and expose
``sample_from="universe"`` for the literal reading — the ``fig4``
conclusions hold under both (see the ablation bench).
"""

from __future__ import annotations

import numpy as np

from repro.errors import ModelError
from repro.models.base import CulinaryEvolutionModel
from repro.models.fitness import FitnessStrategy
from repro.models.params import ModelParams
from repro.models.state import EvolutionState

__all__ = ["NullModel"]


class NullModel(CulinaryEvolutionModel):
    """NM: fresh random recipes, no copying, no mutation.

    Args:
        params: Shared model parameters (mutation count is ignored).
        fitness: Ignored by the recipe step (kept for interface parity —
            fitness plays no role without mutations).
        sample_from: ``"pool"`` (default) draws recipes from the growing
            ingredient pool; ``"universe"`` draws from the full cuisine
            ingredient list.
        engine: Convenience override for ``params.engine``.
    """

    name = "NM"
    batched_kind = "null"

    def __init__(
        self,
        params: ModelParams | None = None,
        fitness: FitnessStrategy | None = None,
        sample_from: str = "pool",
        engine: str | None = None,
    ):
        super().__init__(params=params, fitness=fitness, engine=engine)
        if sample_from not in ("pool", "universe"):
            raise ModelError(
                f"sample_from must be 'pool' or 'universe', got {sample_from!r}"
            )
        self.sample_from = sample_from

    def _recipe_step(
        self, state: EvolutionState, rng: np.random.Generator
    ) -> None:
        if self.sample_from == "pool":
            candidates = state.pool
        else:
            candidates = tuple(state.spec.ingredient_ids)
        size = min(state.spec.recipe_size, len(candidates))
        rows = rng.choice(len(candidates), size=size, replace=False)
        state.add_recipe([candidates[int(row)] for row in rows])
