"""Shared fixtures.

Expensive objects (the standard lexicon, a small multi-cuisine corpus)
are session-scoped; tests must treat them as immutable.

Fast mode: setting ``REPRO_FAST=1`` (CI does) shrinks the ensemble
sizes integration tests request, via the :func:`ensemble_runs` fixture,
so the suite stays within a few minutes on shared runners.
"""

from __future__ import annotations

import os
from typing import Callable

import pytest

from repro.corpus.dataset import RecipeDataset
from repro.corpus.recipe import Recipe
from repro.lexicon.builder import standard_lexicon
from repro.lexicon.categories import Category
from repro.lexicon.ingredient import Ingredient
from repro.lexicon.lexicon import Lexicon
from repro.runtime import events
from repro.synthesis.worldgen import WorldKitchen

#: True when the suite runs in fast mode (``REPRO_FAST=1``).
FAST_MODE = os.environ.get("REPRO_FAST", "") == "1"

#: Ensemble-size ceiling applied in fast mode.
FAST_MAX_RUNS = 2


@pytest.fixture(autouse=True)
def _empty_event_log():
    """Every test starts and ends with an empty runtime event log.

    The log and its warn-once gate are process-wide, so a test that
    records (or warns) would otherwise leak into the next one.
    """
    events.clear()
    yield
    events.clear()


@pytest.fixture(scope="session")
def ensemble_runs() -> Callable[[int], int]:
    """Scale an ensemble size for the current mode.

    Tests ask for the run count they want at full fidelity
    (``ensemble_runs(4)``); in fast mode the count is capped at
    :data:`FAST_MAX_RUNS` so CI smoke jobs stay quick.
    """

    def scaled(n: int) -> int:
        return min(n, FAST_MAX_RUNS) if FAST_MODE else n

    return scaled


@pytest.fixture(scope="session")
def lexicon() -> Lexicon:
    """The paper-exact 721-entity lexicon."""
    return standard_lexicon()


@pytest.fixture(scope="session")
def tiny_lexicon() -> Lexicon:
    """A 10-entity lexicon for fast, fully controlled tests."""
    return Lexicon(
        [
            Ingredient(0, "tomato", Category.VEGETABLE, aliases=("roma tomato",)),
            Ingredient(1, "onion", Category.VEGETABLE),
            Ingredient(2, "garlic", Category.VEGETABLE, aliases=("garlic clove",)),
            Ingredient(3, "butter", Category.DAIRY),
            Ingredient(4, "milk", Category.DAIRY),
            Ingredient(5, "cumin", Category.SPICE),
            Ingredient(6, "paprika", Category.SPICE),
            Ingredient(7, "basil", Category.HERB),
            Ingredient(8, "flour", Category.CEREAL, aliases=("plain flour",)),
            Ingredient(
                9,
                "tomato puree",
                Category.ADDITIVE,
                is_compound=True,
                components=("tomato",),
            ),
        ]
    )


@pytest.fixture(scope="session")
def small_corpus(lexicon: Lexicon) -> RecipeDataset:
    """A three-cuisine corpus at small scale (deterministic)."""
    kitchen = WorldKitchen(lexicon, seed=1234)
    return kitchen.generate_dataset(
        region_codes=("ITA", "KOR", "MEX"), scale=0.06
    )


@pytest.fixture(scope="session")
def world_corpus(lexicon: Lexicon) -> RecipeDataset:
    """All 25 cuisines at very small scale (for cross-cuisine tests)."""
    kitchen = WorldKitchen(lexicon, seed=99)
    return kitchen.generate_dataset(scale=0.02)


@pytest.fixture()
def tiny_dataset(tiny_lexicon: Lexicon) -> RecipeDataset:
    """A hand-written 8-recipe, 2-cuisine dataset over the tiny lexicon."""
    return RecipeDataset(
        [
            Recipe(0, "ITA", (0, 1, 2, 7)),
            Recipe(1, "ITA", (0, 2, 7)),
            Recipe(2, "ITA", (0, 1, 7)),
            Recipe(3, "ITA", (3, 4, 8)),
            Recipe(4, "KOR", (1, 2, 5)),
            Recipe(5, "KOR", (2, 5, 6)),
            Recipe(6, "KOR", (1, 5, 6)),
            Recipe(7, "KOR", (0, 5, 6, 9)),
        ]
    )
