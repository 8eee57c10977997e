"""Micro-benchmarks for the hot components under the experiments.

These are genuine performance benchmarks (multiple rounds) covering the
pipeline stages whose cost dominates the table/figure regeneration:
corpus synthesis, mention resolution, itemset mining and single model
runs.
"""

from __future__ import annotations

import pytest

from repro.analysis.itemsets import (
    ingredient_transactions,
    mine_frequent_itemsets,
)
from repro.models.params import CuisineSpec
from repro.models.registry import create_model
from repro.synthesis.noise import MentionRenderer
from repro.synthesis.worldgen import WorldKitchen


@pytest.fixture(scope="module")
def ita_transactions(world_context):
    return ingredient_transactions(world_context.dataset.cuisine("ITA"))


def test_corpus_generation(benchmark, lexicon):
    kitchen = WorldKitchen(lexicon, seed=1)

    def generate():
        return kitchen.generate_cuisine("ITA", n_recipes=2000)

    recipes = benchmark(generate)
    assert len(recipes) == 2000


def test_mention_resolution(benchmark, lexicon):
    renderer = MentionRenderer(seed=2)
    mentions = [
        renderer.render(ingredient) for ingredient in list(lexicon)[:200]
    ]

    def resolve_all():
        return [lexicon.resolve(mention) for mention in mentions]

    resolutions = benchmark(resolve_all)
    assert sum(1 for r in resolutions if r.ingredient is not None) > 190


def test_itemset_mining(benchmark, ita_transactions):
    result = benchmark(mine_frequent_itemsets, ita_transactions, 0.05)
    assert len(result) > 10


@pytest.mark.parametrize("model_name", ["CM-R", "CM-C", "CM-M", "NM"])
def test_single_model_run(benchmark, world_context, model_name):
    view = world_context.dataset.cuisine("GRC")
    spec = CuisineSpec.from_view(view, world_context.lexicon)
    model = create_model(model_name)

    def run():
        return model.run(spec, seed=3)

    run_result = benchmark(run)
    assert run_result.n_recipes == spec.n_recipes

