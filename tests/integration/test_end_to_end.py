"""Integration tests: full pipelines across subsystems."""

from __future__ import annotations

import pytest

from repro.analysis.invariants import combination_curve
from repro.analysis.mae import curve_distance
from repro.analysis.overrepresentation import top_overrepresented
from repro.corpus.builder import compile_corpus
from repro.corpus.io import load_jsonl, save_jsonl
from repro.corpus.regions import get_region
from repro.corpus.stats import corpus_stats
from repro.models.ensemble import run_ensemble
from repro.models.params import CuisineSpec
from repro.models.registry import PAPER_MODELS, create_model
from repro.synthesis.worldgen import WorldKitchen


def test_raw_to_analysis_pipeline(lexicon, tmp_path):
    """Website-style records -> ETL -> persistence -> analysis, end to end."""
    kitchen = WorldKitchen(lexicon, seed=31)
    raws = []
    for code in ("GRC", "THA"):
        raws.extend(
            kitchen.generate_raw_cuisine(code, n_recipes=60,
                                         start_raw_id=len(raws))
        )

    result = compile_corpus(raws, lexicon)
    assert result.report.resolution_rate > 0.97
    dataset = result.dataset
    assert set(dataset.region_codes()) == {"GRC", "THA"}

    # Persistence round-trip.
    path = tmp_path / "compiled.jsonl"
    save_jsonl(dataset, path)
    dataset = load_jsonl(path)

    # Diversity analysis: Thai signatures differ from Greek ones.
    grc_top = {e.name for e in top_overrepresented(dataset, "GRC", lexicon)}
    tha_top = {e.name for e in top_overrepresented(dataset, "THA", lexicon)}
    assert grc_top != tha_top

    # Stats narrative.
    stats = corpus_stats(dataset)
    assert stats.n_cuisines == 2
    assert 2 <= stats.mean_recipe_size <= 38


def test_full_model_comparison_pipeline(lexicon, ensemble_runs):
    """Generate cuisine -> evolve all four models -> NM loses (Fig. 4)."""
    kitchen = WorldKitchen(lexicon, seed=17)
    dataset = kitchen.generate_dataset(region_codes=("CBN",), scale=0.12)
    view = dataset.cuisine("CBN")
    spec = CuisineSpec.from_view(view, lexicon)
    empirical, _ = combination_curve(dataset, "CBN", lexicon)

    distances = {}
    for name in PAPER_MODELS:
        ensemble = run_ensemble(
            create_model(name), spec, n_runs=ensemble_runs(4), seed=23
        )
        distances[name] = curve_distance(empirical, ensemble.ingredient_curve)

    assert distances["NM"] > 2 * min(
        distances["CM-R"], distances["CM-C"], distances["CM-M"]
    )


def test_spec_matches_paper_inputs(lexicon):
    """CuisineSpec derived from a generated cuisine matches its stats."""
    kitchen = WorldKitchen(lexicon, seed=41)
    dataset = kitchen.generate_dataset(region_codes=("IRL",), scale=0.3)
    view = dataset.cuisine("IRL")
    spec = CuisineSpec.from_view(view, lexicon)
    region = get_region("IRL")
    assert spec.n_recipes == round(region.n_recipes * 0.3)
    assert spec.phi == pytest.approx(view.n_ingredients / view.n_recipes)
    assert 2 <= spec.recipe_size <= 38
