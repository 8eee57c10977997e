"""The CSR-backed corpus answers exactly what its recipe objects answer.

:class:`~repro.corpus.dataset.CuisineView` computes every paper quantity
from its dataset's arrays.  Each answer is checked here against the same
quantity computed the plain way from :class:`~repro.corpus.recipe.Recipe`
objects, on generated corpora and on corpora read back from JSONL, and
the view's cached transaction plane against the plane of its id sets.
Generating a corpus and running fig4 over it build no recipe object.
"""

from __future__ import annotations

import tempfile
from collections import Counter
from itertools import chain
from pathlib import Path

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.itemsets import (
    CATEGORY_INDEX,
    category_transactions,
    ingredient_transactions,
)
from repro.config import MiningConfig
from repro.corpus import dataset as dataset_module
from repro.corpus.io import load_jsonl, save_jsonl
from repro.corpus.recipe import Recipe
from repro.corpus.regions import ALL_REGION_CODES
from repro.experiments import fig4
from repro.experiments.base import ExperimentContext
from repro.runtime import RuntimeConfig, transactions_fingerprint
from repro.synthesis.worldgen import WorldKitchen
from repro.transactions import TransactionPlane


def _same_plane(plane: TransactionPlane, other: TransactionPlane) -> None:
    assert np.array_equal(plane.positions, other.positions)
    assert plane.positions.dtype == other.positions.dtype
    assert (plane.lengths is None) == (other.lengths is None)
    if plane.lengths is not None:
        assert np.array_equal(plane.lengths, other.lengths)
    assert np.array_equal(plane.ids, other.ids)
    assert transactions_fingerprint(plane) == transactions_fingerprint(other)


def _check_view(view, lexicon) -> None:
    recipes = view.recipes
    sets = [frozenset(recipe.ingredient_ids) for recipe in recipes]
    universe = tuple(sorted(set().union(*sets)))
    assert view.n_recipes == len(view) == len(recipes)
    assert view.ingredient_universe() == universe
    assert view.n_ingredients == len(universe)
    sizes = [recipe.size for recipe in recipes]
    assert view.average_recipe_size() == float(np.mean(sizes))
    assert view.phi() == len(universe) / len(recipes)
    assert view.sizes().dtype == np.int64
    assert view.sizes().tolist() == sizes
    assert view.ingredient_recipe_counts() == Counter(
        chain.from_iterable(recipe.ingredient_ids for recipe in recipes)
    )
    assert view.as_id_sets() == sets
    assert all(recipe.region_code == view.region_code for recipe in recipes)

    plane = view.transaction_plane()
    assert view.transaction_plane() is plane  # cached
    assert ingredient_transactions(view) is plane
    _same_plane(plane, TransactionPlane.of(sets))
    category_of = lexicon.id_to_category_array()
    _same_plane(
        category_transactions(view, lexicon),
        TransactionPlane.of(
            [frozenset(CATEGORY_INDEX[category_of[i]] for i in s) for s in sets]
        ),
    )


def _check_dataset(dataset, lexicon) -> None:
    recipes = dataset.recipes
    assert len(dataset) == len(recipes) == len(list(dataset))
    assert dataset.ingredient_universe() == tuple(
        sorted(set(chain.from_iterable(r.ingredient_ids for r in recipes)))
    )
    assert dataset.global_ingredient_recipe_counts() == Counter(
        chain.from_iterable(r.ingredient_ids for r in recipes)
    )
    assert dataset.sizes().tolist() == [r.size for r in recipes]
    assert dataset.total_recipes_by_region() == dict(
        Counter(r.region_code for r in recipes)
    )
    assert dataset.region_codes() == tuple(
        sorted({r.region_code for r in recipes})
    )
    for code in dataset.region_codes():
        view = dataset.cuisine(code)
        assert view.recipes == tuple(r for r in recipes if r.region_code == code)
        _check_view(view, lexicon)


@given(
    st.integers(0, 2**31),
    st.lists(
        st.sampled_from(ALL_REGION_CODES), min_size=1, max_size=3, unique=True
    ),
    st.sampled_from([0.001, 0.01, 0.02]),
)
@settings(max_examples=15, deadline=None)
def test_generated_views_answer_as_their_recipes(lexicon, seed, codes, scale):
    dataset = WorldKitchen(lexicon, seed=seed).generate_dataset(
        region_codes=codes, scale=scale
    )
    _check_dataset(dataset, lexicon)
    with tempfile.TemporaryDirectory() as directory:
        path = Path(directory) / "corpus.jsonl"
        save_jsonl(dataset, path)
        loaded = load_jsonl(path)
    assert loaded.recipes == dataset.recipes
    _check_dataset(loaded, lexicon)


_RECIPE_ROWS = st.lists(
    st.tuples(
        st.sampled_from(("ITA", "KOR", "MEX")),
        st.lists(st.integers(0, 720), min_size=1, max_size=12),
    ),
    min_size=1,
    max_size=40,
)


@given(_RECIPE_ROWS)
@settings(max_examples=40, deadline=None)
def test_loaded_views_answer_as_their_recipes(lexicon, rows):
    """Interleaved regions, unsorted and repeated ids, read from JSONL."""
    recipes = [
        Recipe(recipe_id, code, tuple(ids))
        for recipe_id, (code, ids) in enumerate(rows)
    ]
    with tempfile.TemporaryDirectory() as directory:
        path = Path(directory) / "corpus.jsonl"
        save_jsonl(recipes, path)
        loaded = load_jsonl(path)
    assert loaded.recipes == tuple(recipes)
    _check_dataset(loaded, lexicon)


def test_generation_and_fig4_build_no_recipe(monkeypatch, tmp_path):
    """Set-up and fig4, cold and warm, never construct a recipe object."""
    built = []
    original = Recipe.__post_init__

    def counting(self):
        built.append(self.recipe_id)
        original(self)

    monkeypatch.setattr(Recipe, "__post_init__", counting)
    assert dataset_module.Recipe is Recipe
    for _pass in ("cold", "warm"):
        context = ExperimentContext.create(
            scale=0.03,
            seed=9,
            region_codes=("KOR", "JPN"),
            mining=MiningConfig(min_support=0.05),
            ensemble_runs=2,
            runtime=RuntimeConfig(cache_dir=tmp_path),
            engine="batched",
        )
        fig4.run_fig4(context, level="ingredient")
    assert any(tmp_path.iterdir())
    assert built == []
    kor = context.dataset.cuisine("KOR").recipes  # built on request, once
    assert len(kor) == context.dataset.cuisine("KOR").n_recipes
    assert len(built) == len(context.dataset)
    context.dataset.cuisine("JPN").recipes
    assert len(built) == len(context.dataset)
