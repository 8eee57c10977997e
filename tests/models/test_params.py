"""Tests for ModelParams and CuisineSpec."""

from __future__ import annotations

import pytest

from repro.errors import ParameterError
from repro.lexicon.categories import Category
from repro.models.params import CuisineSpec, ModelParams


def test_defaults_match_paper():
    params = ModelParams()
    assert params.initial_pool_size == 20
    assert params.mutations == 4
    assert params.initial_recipes is None
    assert params.mixture_category_probability == 0.5


def test_derive_initial_recipes():
    params = ModelParams(initial_pool_size=20)
    # n = m / phi  (Sec. VI).
    assert params.derive_initial_recipes(0.1) == 200
    assert params.derive_initial_recipes(2.0) == 10
    assert params.derive_initial_recipes(100.0) == 1  # floor at 1


def test_derive_respects_override():
    params = ModelParams(initial_recipes=7)
    assert params.derive_initial_recipes(0.1) == 7


def test_derive_invalid_phi():
    with pytest.raises(ParameterError):
        ModelParams().derive_initial_recipes(0.0)


@pytest.mark.parametrize(
    "kwargs",
    [
        {"initial_pool_size": 0},
        {"mutations": -1},
        {"initial_recipes": 0},
        {"duplicate_policy": "explode"},
        {"category_fallback": "panic"},
        {"mixture_category_probability": 1.5},
        {"engine": "quantum"},
    ],
)
def test_invalid_params_rejected(kwargs):
    with pytest.raises(ParameterError):
        ModelParams(**kwargs)


def test_with_mutations():
    params = ModelParams(mutations=4).with_mutations(6)
    assert params.mutations == 6
    assert params.initial_pool_size == 20


def test_engine_default_and_with_engine():
    assert ModelParams().engine == "batched"
    params = ModelParams().with_engine("reference")
    assert params.engine == "reference"
    assert params.initial_pool_size == 20


def test_spec_from_view(tiny_dataset, tiny_lexicon):
    spec = CuisineSpec.from_view(tiny_dataset.cuisine("ITA"), tiny_lexicon)
    assert spec.region_code == "ITA"
    assert spec.ingredient_ids == (0, 1, 2, 3, 4, 7, 8)
    assert spec.categories[0] is Category.VEGETABLE
    assert spec.n_recipes == 4
    assert spec.avg_recipe_size == pytest.approx(3.25)
    assert spec.phi == pytest.approx(7 / 4)
    assert spec.recipe_size == 3
    assert spec.n_ingredients == 7


def test_spec_validation():
    with pytest.raises(ParameterError):
        CuisineSpec("X", (), (), 5.0, 10, 0.5)
    with pytest.raises(ParameterError):
        CuisineSpec("X", (1,), (), 5.0, 10, 0.5)  # misaligned categories
    with pytest.raises(ParameterError):
        CuisineSpec("X", (1,), (Category.SPICE,), 0.0, 10, 0.5)
    with pytest.raises(ParameterError):
        CuisineSpec("X", (1,), (Category.SPICE,), 5.0, 0, 0.5)
    with pytest.raises(ParameterError):
        CuisineSpec("X", (1,), (Category.SPICE,), 5.0, 10, 0.0)


def test_spec_scaled(tiny_dataset, tiny_lexicon):
    spec = CuisineSpec.from_view(tiny_dataset.cuisine("ITA"), tiny_lexicon)
    scaled = spec.scaled(100)
    assert scaled.n_recipes == 100
    assert scaled.phi == spec.phi
    with pytest.raises(ParameterError):
        spec.scaled(0)
