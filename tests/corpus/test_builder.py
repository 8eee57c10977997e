"""Tests for the raw-to-standardized compilation pipeline."""

from __future__ import annotations

import pytest

from repro.corpus.builder import compile_corpus
from repro.corpus.recipe import RawRecipe


def _raw(raw_id, mentions, region="ITA"):
    return RawRecipe(
        raw_id=raw_id,
        title=f"recipe {raw_id}",
        mentions=tuple(mentions),
        continent="Europe",
        region=region,
        source="allrecipes",
    )


def test_compile_resolves_and_assigns_region(lexicon):
    raws = [_raw(0, ["2 tomatoes", "1 onion", "fresh basil"])]
    result = compile_corpus(raws, lexicon)
    assert result.report.n_compiled == 1
    recipe = result.dataset.recipes[0]
    assert recipe.region_code == "ITA"
    names = {lexicon.by_id(i).name for i in recipe.ingredient_ids}
    assert names == {"tomato", "onion", "basil"}


def test_compile_drops_unknown_region(lexicon):
    raws = [_raw(0, ["2 tomatoes", "1 onion"], region="NARNIA")]
    result = compile_corpus(raws, lexicon)
    assert result.report.n_dropped_unknown_region == 1
    assert len(result.dataset) == 0


def test_compile_drops_too_small(lexicon):
    # Only one resolvable mention -> below the min size of 2.
    raws = [_raw(0, ["2 tomatoes", "1 cup powdered unicorn"])]
    result = compile_corpus(raws, lexicon)
    assert result.report.n_dropped_too_small == 1
    assert result.report.unresolved_samples


def test_compile_respects_max_size(lexicon):
    names = [i.name for i in list(lexicon)[:50]]
    raws = [_raw(0, names)]
    result = compile_corpus(raws, lexicon, max_size=10)
    assert result.report.n_dropped_too_large == 1


def test_compile_dedupes_mentions(lexicon):
    raws = [_raw(0, ["tomato", "roma tomato", "tomatoes", "onion"])]
    result = compile_corpus(raws, lexicon)
    recipe = result.dataset.recipes[0]
    assert recipe.size == 2  # tomato (x3 mentions) + onion


def test_resolution_rate(lexicon):
    raws = [_raw(0, ["tomato", "onion", "powdered unicorn horn"])]
    result = compile_corpus(raws, lexicon, min_size=1)
    assert result.report.n_mentions_total == 3
    assert result.report.n_mentions_resolved == 2
    assert result.report.resolution_rate == pytest.approx(2 / 3)


def test_empty_input(lexicon):
    result = compile_corpus([], lexicon)
    assert result.report.n_raw == 0
    assert result.report.resolution_rate == 0.0
    assert len(result.dataset) == 0


def test_recipe_ids_sequential(lexicon):
    raws = [
        _raw(0, ["tomato", "onion"]),
        _raw(1, ["butter", "flour"], region="FRA"),
    ]
    result = compile_corpus(raws, lexicon, start_recipe_id=100)
    ids = [recipe.recipe_id for recipe in result.dataset]
    assert ids == [100, 101]


def test_region_accepts_full_names(lexicon):
    raws = [
        RawRecipe(0, "t", ("tomato", "onion"), "Europe", "Italy"),
    ]
    result = compile_corpus(raws, lexicon)
    assert result.dataset.recipes[0].region_code == "ITA"
