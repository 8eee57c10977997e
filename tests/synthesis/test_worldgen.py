"""Tests for the WorldKitchen generator."""

from __future__ import annotations

import pytest

from repro.config import PAPER
from repro.corpus.regions import get_region
from repro.errors import SynthesisError
from repro.synthesis.worldgen import WorldKitchen, generate_world_corpus


@pytest.fixture(scope="module")
def kitchen(lexicon):
    return WorldKitchen(lexicon, seed=77)


def test_generate_cuisine_count(kitchen):
    recipes = kitchen.generate_cuisine("KOR", n_recipes=100)
    assert len(recipes) == 100
    assert all(recipe.region_code == "KOR" for recipe in recipes)


def test_default_count_is_table1(kitchen):
    recipes = kitchen.generate_cuisine("CAM")
    assert len(recipes) == get_region("CAM").n_recipes


def test_sizes_in_paper_bounds(kitchen):
    recipes = kitchen.generate_cuisine("ITA", n_recipes=500)
    for recipe in recipes:
        assert PAPER.recipe_size_min <= recipe.size <= PAPER.recipe_size_max


def test_recipe_ids_sequential(kitchen):
    recipes = kitchen.generate_cuisine("KOR", n_recipes=10, start_recipe_id=50)
    assert [recipe.recipe_id for recipe in recipes] == list(range(50, 60))


def test_vocabulary_respects_region_target(kitchen):
    blueprint = kitchen.blueprint("KOR")
    assert blueprint.vocabulary_ids.size == get_region("KOR").n_ingredients


def test_signatures_in_vocabulary(kitchen, lexicon):
    blueprint = kitchen.blueprint("MEX")
    vocab = set(int(i) for i in blueprint.vocabulary_ids)
    for name in get_region("MEX").overrepresented:
        assert lexicon.by_name(name).ingredient_id in vocab


def test_deterministic_generation(lexicon):
    a = WorldKitchen(lexicon, seed=5).generate_cuisine("THA", n_recipes=50)
    b = WorldKitchen(lexicon, seed=5).generate_cuisine("THA", n_recipes=50)
    assert [r.ingredient_ids for r in a] == [r.ingredient_ids for r in b]


def test_seed_changes_output(lexicon):
    a = WorldKitchen(lexicon, seed=5).generate_cuisine("THA", n_recipes=50)
    b = WorldKitchen(lexicon, seed=6).generate_cuisine("THA", n_recipes=50)
    assert [r.ingredient_ids for r in a] != [r.ingredient_ids for r in b]


def test_generate_dataset_scale(kitchen):
    dataset = kitchen.generate_dataset(region_codes=("KOR", "CAM"), scale=0.1)
    assert dataset.cuisine("KOR").n_recipes == round(1228 * 0.1)
    # CAM would be 47; min_recipes floor default is 30, so 47 stands.
    assert dataset.cuisine("CAM").n_recipes == 47


def test_generate_dataset_min_floor(kitchen):
    dataset = kitchen.generate_dataset(region_codes=("CAM",), scale=0.01)
    assert dataset.cuisine("CAM").n_recipes == 30


def test_invalid_inputs(kitchen):
    with pytest.raises(SynthesisError):
        kitchen.generate_dataset(scale=0.0)
    with pytest.raises(SynthesisError):
        kitchen.generate_cuisine("KOR", n_recipes=-1)


def test_zero_recipes(kitchen):
    assert kitchen.generate_cuisine("KOR", n_recipes=0) == []


def test_raw_generation_roundtrips_through_etl(kitchen, lexicon):
    from repro.corpus.builder import compile_corpus

    raws = kitchen.generate_raw_cuisine("GRC", n_recipes=40)
    assert len(raws) == 40
    assert all(raw.region == "GRC" for raw in raws)
    assert all(raw.source for raw in raws)
    result = compile_corpus(raws, lexicon)
    # The renderer guarantees recoverability, so nearly everything
    # survives standardization (only the rare sub-minimum recipe drops).
    assert result.report.resolution_rate > 0.97
    assert result.report.n_compiled >= 38


def test_convenience_wrapper(lexicon):
    dataset = generate_world_corpus(
        lexicon, seed=3, scale=0.02, region_codes=("KOR", "JPN")
    )
    assert set(dataset.region_codes()) == {"JPN", "KOR"}


def test_titles_carry_archetype(kitchen):
    recipes = kitchen.generate_cuisine("ITA", n_recipes=20)
    assert all(recipe.title.startswith("ITA ") for recipe in recipes)


# ---------------------------------------------------------------------------
# Property-based checks
# ---------------------------------------------------------------------------

from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from repro.corpus.regions import ALL_REGION_CODES  # noqa: E402


@given(
    st.sampled_from(ALL_REGION_CODES),
    st.integers(1, 120),
    st.integers(0, 2**31),
)
@settings(max_examples=25, deadline=None)
def test_generation_properties(lexicon, code, count, seed):
    """Any cuisine, any count, any seed: sizes bounded, ids valid,
    vocabulary within the blueprint, deterministic."""
    kitchen = WorldKitchen(lexicon, seed=seed)
    recipes = kitchen.generate_cuisine(code, n_recipes=count)
    assert len(recipes) == count
    vocabulary = set(int(i) for i in kitchen.blueprint(code).vocabulary_ids)
    for recipe in recipes:
        assert PAPER.recipe_size_min <= recipe.size
        assert recipe.size <= PAPER.recipe_size_max
        assert set(recipe.ingredient_ids) <= vocabulary
    again = WorldKitchen(lexicon, seed=seed).generate_cuisine(
        code, n_recipes=count
    )
    assert [r.ingredient_ids for r in again] == [
        r.ingredient_ids for r in recipes
    ]
