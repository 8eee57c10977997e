"""The three copy-mutate variants of Sec. V.

* **CM-R** (Copy-Mutate Random): the replacement ``j`` is drawn
  uniformly from the ingredient pool — the vanilla Algorithm 1.
* **CM-C** (Copy-Mutate Category only): ``j`` is drawn from the pool
  ingredients sharing the victim's category.
* **CM-M** (Copy-Mutate Mixture): half the time category-restricted,
  otherwise pool-wide.

Sec. VI uses M=4 mutations for CM-R and M=6 for CM-C and CM-M, reflected
in each variant's default parameters.
"""

from __future__ import annotations

import numpy as np

from repro.config import PAPER
from repro.models.base import CopyMutateBase
from repro.models.params import ModelParams
from repro.models.state import EvolutionState

__all__ = ["CopyMutateRandom", "CopyMutateCategory", "CopyMutateMixture"]


class CopyMutateRandom(CopyMutateBase):
    """CM-R: unrestricted replacement choice."""

    name = "CM-R"
    batched_kind = "pool"

    @classmethod
    def default_params(cls) -> ModelParams:
        return ModelParams(mutations=PAPER.model_mutations_cm_r)

    def _choose_replacement(
        self,
        state: EvolutionState,
        victim: int,
        rng: np.random.Generator,
    ) -> int | None:
        return state.random_pool_ingredient()


class CopyMutateCategory(CopyMutateBase):
    """CM-C: replacement restricted to the victim's category."""

    name = "CM-C"
    batched_kind = "category"

    @classmethod
    def default_params(cls) -> ModelParams:
        return ModelParams(mutations=PAPER.model_mutations_cm_c)

    def _choose_replacement(
        self,
        state: EvolutionState,
        victim: int,
        rng: np.random.Generator,
    ) -> int | None:
        candidate = state.random_pool_ingredient_of_category(
            state.category_of(victim)
        )
        if candidate is None and self.params.category_fallback == "random":
            return state.random_pool_ingredient()
        return candidate


class CopyMutateMixture(CopyMutateBase):
    """CM-M: category-restricted exactly half the time."""

    name = "CM-M"
    batched_kind = "mixture"

    @classmethod
    def default_params(cls) -> ModelParams:
        return ModelParams(mutations=PAPER.model_mutations_cm_m)

    def _choose_replacement(
        self,
        state: EvolutionState,
        victim: int,
        rng: np.random.Generator,
    ) -> int | None:
        if rng.random() < self.params.mixture_category_probability:
            candidate = state.random_pool_ingredient_of_category(
                state.category_of(victim)
            )
            if candidate is None and self.params.category_fallback == "random":
                return state.random_pool_ingredient()
            return candidate
        return state.random_pool_ingredient()
