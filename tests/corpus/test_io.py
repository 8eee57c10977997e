"""Tests for dataset persistence (JSONL + CSV), incl. property round-trips."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.corpus.dataset import RecipeDataset
from repro.corpus.io import (
    load_csv,
    load_jsonl,
    load_raw_jsonl,
    save_csv,
    save_jsonl,
    save_raw_jsonl,
)
from repro.corpus.recipe import RawRecipe, Recipe
from repro.errors import SerializationError


def _as_records(dataset: RecipeDataset) -> list[tuple]:
    return [
        (r.recipe_id, r.region_code, r.ingredient_ids, r.title, r.source)
        for r in dataset
    ]


recipe_strategy = st.builds(
    Recipe,
    recipe_id=st.integers(0, 10**6),
    region_code=st.sampled_from(["ITA", "KOR", "MEX", "USA"]),
    ingredient_ids=st.sets(st.integers(0, 720), min_size=1, max_size=20).map(tuple),
    title=st.text(
        alphabet=st.characters(blacklist_categories=("Cs", "Cc")), max_size=20
    ),
    source=st.sampled_from(["", "allrecipes", "epicurious"]),
)


@st.composite
def dataset_strategy(draw):
    recipes = draw(st.lists(recipe_strategy, max_size=25))
    unique = {}
    for recipe in recipes:
        unique[recipe.recipe_id] = recipe
    return RecipeDataset(unique.values())


@given(dataset_strategy())
@settings(max_examples=40, deadline=None)
def test_jsonl_roundtrip(tmp_path_factory, dataset):
    path = tmp_path_factory.mktemp("io") / "corpus.jsonl"
    count = save_jsonl(dataset, path)
    assert count == len(dataset)
    loaded = load_jsonl(path)
    assert _as_records(loaded) == _as_records(dataset)


@given(dataset_strategy())
@settings(max_examples=40, deadline=None)
def test_csv_roundtrip(tmp_path_factory, dataset):
    path = tmp_path_factory.mktemp("io") / "corpus.csv"
    save_csv(dataset, path)
    loaded = load_csv(path)
    assert _as_records(loaded) == _as_records(dataset)


def test_jsonl_missing_file():
    with pytest.raises(SerializationError):
        load_jsonl("/nonexistent/corpus.jsonl")


def test_csv_missing_file():
    with pytest.raises(SerializationError):
        load_csv("/nonexistent/corpus.csv")


def test_jsonl_malformed_json(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text("not json at all\n")
    with pytest.raises(SerializationError):
        load_jsonl(path)


def test_jsonl_malformed_record(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text('{"recipe_id": 1}\n')
    with pytest.raises(SerializationError):
        load_jsonl(path)


def test_jsonl_skips_blank_lines(tmp_path):
    path = tmp_path / "ok.jsonl"
    save_jsonl([Recipe(0, "ITA", (1, 2))], path)
    content = path.read_text() + "\n\n"
    path.write_text(content)
    assert len(load_jsonl(path)) == 1


def test_save_accepts_iterable(tmp_path):
    path = tmp_path / "it.jsonl"
    save_jsonl(iter([Recipe(0, "ITA", (1,))]), path)
    assert len(load_jsonl(path)) == 1


def test_raw_jsonl_roundtrip(tmp_path):
    raws = [
        RawRecipe(0, "Pasta", ("2 cups flour", "1 egg"), "Europe", "ITA",
                  country="Italy", source="allrecipes", instructions="Mix."),
        RawRecipe(1, "Soup", ("1 onion",), "Asia", "KOR"),
    ]
    path = tmp_path / "raw.jsonl"
    assert save_raw_jsonl(raws, path) == 2
    loaded = load_raw_jsonl(path)
    assert loaded == raws


def test_raw_jsonl_missing_file():
    with pytest.raises(SerializationError):
        load_raw_jsonl("/nonexistent/raw.jsonl")


def test_raw_jsonl_malformed(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text('{"raw_id": 1}\n')
    with pytest.raises(SerializationError):
        load_raw_jsonl(path)
