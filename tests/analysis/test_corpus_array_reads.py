"""Fig. 2's category usage and the vocabulary growth curve read arrays.

Both are computed from a cuisine's CSR arrays.  Here each is checked
against the same quantity computed the plain way from
:class:`~repro.corpus.recipe.Recipe` objects, and checked to build no
recipe object itself.  ``growth_from_sets``, which computes the curve,
is also checked on model runs' planes against a set count.
"""

from __future__ import annotations

from collections import Counter

import numpy as np

from repro.analysis.category_usage import category_usage_matrix
from repro.analysis.vocabulary_growth import (
    growth_from_sets,
    vocabulary_growth_curve,
)
from repro.corpus.recipe import Recipe
from repro.lexicon.categories import Category
from repro.models.batched import run_batched
from repro.models.copy_mutate import CopyMutateRandom
from repro.models.params import CuisineSpec
from repro.models.registry import create_model
from repro.rng import rng_from_seed
from repro.synthesis.worldgen import WorldKitchen


def _usage_from_recipes(dataset, lexicon):
    category_of = lexicon.id_to_category_array()
    matrix = {}
    for code in dataset.region_codes():
        recipes = dataset.cuisine(code).recipes
        totals = Counter(
            category_of[ingredient_id]
            for recipe in recipes
            for ingredient_id in recipe.ingredient_ids
        )
        n = max(len(recipes), 1)
        matrix[code] = {category: totals[category] / n for category in Category}
    return matrix


def _growth_from_sets(recipe_sets):
    """The vocabulary size after each recipe, counted with a set."""
    seen = set()
    growth = []
    for recipe in recipe_sets:
        seen.update(recipe)
        growth.append(len(seen))
    return np.asarray(growth, dtype=np.int64)


def _growth_from_recipes(view):
    return _growth_from_sets(
        frozenset(recipe.ingredient_ids) for recipe in view.recipes
    )


def test_array_reads_equal_recipe_reads(world_corpus, small_corpus, lexicon):
    for dataset in (world_corpus, small_corpus):
        assert category_usage_matrix(dataset, lexicon) == _usage_from_recipes(
            dataset, lexicon
        )
        for code in dataset.region_codes():
            view = dataset.cuisine(code)
            growth = vocabulary_growth_curve(view)
            assert growth.dtype == np.int64
            assert np.array_equal(growth, _growth_from_recipes(view))


def test_growth_from_sets_equals_a_set_count(world_corpus, lexicon):
    """Model runs' planes and plain set lists, as the experiments pass them."""
    spec = CuisineSpec.from_view(world_corpus.cuisine("KOR"), lexicon)
    planes = [CopyMutateRandom().run(spec, seed=1).transactions] + [
        run.transactions
        for run in run_batched(
            create_model("CM-M"), spec, [rng_from_seed(s) for s in (2, 3)]
        )
    ]
    for plane in planes:
        rows = list(plane)
        for recipe_sets in (plane, rows, iter(rows), rows[:1], []):
            growth = growth_from_sets(recipe_sets)
            assert growth.dtype == np.int64
            assert np.array_equal(growth, _growth_from_sets(rows[: len(growth)]))
        assert len(growth_from_sets(plane)) == len(rows)


def test_array_reads_build_no_recipe(monkeypatch, lexicon):
    built = []
    original = Recipe.__post_init__

    def counting(self):
        built.append(self.recipe_id)
        original(self)

    monkeypatch.setattr(Recipe, "__post_init__", counting)
    # A fresh copy of the world_corpus fixture: the session's copy may
    # already hold the recipe objects another test asked for.
    dataset = WorldKitchen(lexicon, seed=99).generate_dataset(scale=0.02)
    category_usage_matrix(dataset, lexicon)
    for code in dataset.region_codes():
        vocabulary_growth_curve(dataset.cuisine(code))
    assert built == []
