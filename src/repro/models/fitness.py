"""Fitness assignment strategies (Algorithm 1, Step 1).

The paper samples every ingredient's fitness from Uniform(0, 1) and
interprets it as "worthiness ... based on intrinsic properties such as
cost, availability, and nutritional content".  :class:`UniformFitness` is
that default; :class:`ScoredFitness` grounds the interpretation by
letting callers supply explicit scores, and :class:`RankBiasedFitness` supports
ablations where fitness correlates with empirical popularity.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Protocol, Sequence

import numpy as np

from repro.errors import ModelError

__all__ = [
    "FitnessStrategy",
    "UniformFitness",
    "ScoredFitness",
    "RankBiasedFitness",
]


class FitnessStrategy(Protocol):
    """Assigns a fitness value to every ingredient of a cuisine."""

    def assign(
        self, ingredient_ids: Sequence[int], rng: np.random.Generator
    ) -> np.ndarray:
        """Fitness array aligned with ``ingredient_ids``."""
        ...  # pragma: no cover - protocol


@dataclass(frozen=True)
class UniformFitness:
    """The paper's Step 1: fitness ~ Uniform(0, 1), i.i.d."""

    def assign(
        self, ingredient_ids: Sequence[int], rng: np.random.Generator
    ) -> np.ndarray:
        return rng.uniform(0.0, 1.0, size=len(ingredient_ids))


@dataclass(frozen=True)
class ScoredFitness:
    """Fitness from explicit per-ingredient scores.

    Scores are min-max normalized to [0, 1]; unknown ingredients get
    ``default``.  Optional ``jitter`` adds uniform noise to break ties
    (mutations compare fitness strictly, so exact ties never replace).

    Attributes:
        scores: ingredient id -> raw score.
        default: Score for ingredients absent from ``scores``.
        jitter: Half-width of the uniform tie-breaking noise.
    """

    scores: Mapping[int, float]
    default: float = 0.5
    jitter: float = 0.0

    def assign(
        self, ingredient_ids: Sequence[int], rng: np.random.Generator
    ) -> np.ndarray:
        if self.jitter < 0:
            raise ModelError(f"jitter must be >= 0, got {self.jitter}")
        raw = np.array(
            [float(self.scores.get(i, self.default)) for i in ingredient_ids]
        )
        low, high = raw.min(), raw.max()
        if high > low:
            raw = (raw - low) / (high - low)
        else:
            raw = np.full_like(raw, 0.5)
        if self.jitter > 0:
            raw = raw + rng.uniform(-self.jitter, self.jitter, size=raw.size)
        return np.clip(raw, 0.0, 1.0)


@dataclass(frozen=True)
class RankBiasedFitness:
    """Fitness decreasing with a supplied popularity rank (ablation aid).

    Ranks are normalized by the largest provided rank, then
    ``fitness = (1 - rank/(max_rank + 1)) ** gamma`` plus uniform noise,
    so low ranks (popular ingredients) receive high fitness.  Ingredients
    absent from ``ranks`` get the worst rank.  With ``gamma=0`` the rank
    signal vanishes and only the noise term remains.
    """

    ranks: Mapping[int, int]
    gamma: float = 1.0
    noise: float = 0.1

    def assign(
        self, ingredient_ids: Sequence[int], rng: np.random.Generator
    ) -> np.ndarray:
        if self.gamma < 0 or self.noise < 0:
            raise ModelError("gamma and noise must be >= 0")
        max_rank = max(self.ranks.values(), default=0)
        scale = float(max_rank + 1)
        base = np.array(
            [
                (1.0 - self.ranks.get(i, max_rank) / scale) ** self.gamma
                for i in ingredient_ids
            ]
        )
        return np.clip(
            base + rng.uniform(0.0, self.noise, size=base.size), 0.0, 1.0
        )
