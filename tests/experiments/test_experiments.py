"""Tests for the experiment drivers (table1, fig1-fig4)."""

from __future__ import annotations

import json

import pytest

from repro.cli import main
from repro.corpus.io import save_jsonl
from repro.errors import ExecutionError, ExperimentError
from repro.experiments.base import ExperimentContext
from repro.experiments.fig1 import run_fig1
from repro.experiments.fig2 import run_fig2
from repro.experiments.fig3 import run_fig3
from repro.experiments.fig4 import run_fig4
from repro.experiments.table1 import run_table1
from repro.synthesis.worldgen import WorldKitchen


@pytest.fixture(scope="module")
def context(lexicon, small_corpus):
    return ExperimentContext(
        lexicon=lexicon,
        dataset=small_corpus,
        scale=0.06,
        seed=5,
        ensemble_runs=3,
    )


def test_context_create_builds_corpus(lexicon):
    context = ExperimentContext.create(
        scale=0.02, seed=1, region_codes=("KOR", "JPN")
    )
    assert set(context.dataset.region_codes()) == {"JPN", "KOR"}
    assert context.scale == 0.02


def test_context_create_reads_a_jsonl_corpus(lexicon, tmp_path):
    path = tmp_path / "corpus.jsonl"
    assert main([
        "generate", str(path), "--scale", "0.02", "--seed", "3",
        "--regions", "KOR", "JPN",
    ]) == 0
    from_file = ExperimentContext.create(corpus_path=path, seed=3)
    generated = WorldKitchen(lexicon, seed=3).generate_dataset(
        region_codes=("KOR", "JPN"), scale=0.02
    )
    assert from_file.dataset.recipes == generated.recipes


def test_context_create_refuses_regions_the_jsonl_corpus_lacks(
    lexicon, tmp_path
):
    dataset = WorldKitchen(lexicon, seed=1).generate_dataset(
        region_codes=("KOR",), scale=0.02
    )
    path = tmp_path / "kor.jsonl"
    save_jsonl(dataset, path)
    context = ExperimentContext.create(corpus_path=path, region_codes=("KOR",))
    assert context.dataset.region_codes() == ("KOR",)
    with pytest.raises(ExecutionError, match=r"\['ITA'\].*\('KOR',\)"):
        ExperimentContext.create(
            corpus_path=path, region_codes=("KOR", "ITA")
        )


def test_context_create_validation():
    with pytest.raises(ExperimentError):
        ExperimentContext.create(scale=0)
    with pytest.raises(ExperimentError):
        ExperimentContext.create(ensemble_runs=0)


def test_context_artifact_path(tmp_path, lexicon, small_corpus):
    context = ExperimentContext(
        lexicon=lexicon, dataset=small_corpus, scale=0.06,
        artifacts_dir=tmp_path,
    )
    assert context.artifact_path("x.csv") == tmp_path / "x.csv"
    no_artifacts = ExperimentContext(
        lexicon=lexicon, dataset=small_corpus, scale=0.06
    )
    assert no_artifacts.artifact_path("x.csv") is None


# ---------------------------------------------------------------------------
# table1
# ---------------------------------------------------------------------------


def test_table1_rows_and_overlap(context):
    result = run_table1(context)
    assert len(result.rows) == 3
    assert result.mean_top5_overlap() >= 3.0
    rendered = result.render()
    assert "ITA" in rendered and "Overlap" in rendered
    payload = result.to_payload()
    assert payload["experiment"] == "table1"
    json.dumps(payload)  # serializable


def test_table1_artifact_written(lexicon, small_corpus, tmp_path):
    context = ExperimentContext(
        lexicon=lexicon, dataset=small_corpus, scale=0.06,
        artifacts_dir=tmp_path,
    )
    run_table1(context)
    assert (tmp_path / "table1.csv").exists()


# ---------------------------------------------------------------------------
# fig1
# ---------------------------------------------------------------------------


def test_fig1_bounds_and_mean(context):
    result = run_fig1(context)
    assert result.all_in_paper_bounds()
    assert 7.0 <= result.aggregate.mean <= 11.0
    assert set(result.per_cuisine) == {"ITA", "KOR", "MEX"}
    assert "Fig. 1" in result.render()
    json.dumps(result.to_payload())


# ---------------------------------------------------------------------------
# fig2
# ---------------------------------------------------------------------------


def test_fig2_narrative_checks(lexicon, world_corpus):
    context = ExperimentContext(
        lexicon=lexicon, dataset=world_corpus, scale=0.02
    )
    result = run_fig2(context)
    spice_heavy, spice_light = result.spice_contrast()
    assert spice_heavy > spice_light
    dairy_heavy, dairy_light = result.dairy_contrast()
    assert dairy_heavy > dairy_light
    assert len(result.dominant) == 7
    assert "Fig. 2" in result.render()
    json.dumps(result.to_payload())


# ---------------------------------------------------------------------------
# fig3
# ---------------------------------------------------------------------------


def test_fig3_homogeneity(context):
    result = run_fig3(context)
    assert result.ingredient.average_distance < 0.15
    assert result.category.average_distance >= 0
    rendered = result.render()
    assert "rank-frequency" in rendered
    json.dumps(result.to_payload())


def test_fig3_artifacts(lexicon, small_corpus, tmp_path):
    context = ExperimentContext(
        lexicon=lexicon, dataset=small_corpus, scale=0.06,
        artifacts_dir=tmp_path,
    )
    run_fig3(context)
    assert (tmp_path / "fig3_ingredient.csv").exists()
    assert (tmp_path / "fig3_category.csv").exists()


# ---------------------------------------------------------------------------
# fig4
# ---------------------------------------------------------------------------


def test_fig4_headline_result(context):
    """Copy-mutate models beat the null model on every cuisine."""
    result = run_fig4(context, region_codes=("KOR",))
    evaluation = result.evaluations["KOR"]
    nm = evaluation.distances["NM"]
    for name in ("CM-R", "CM-C", "CM-M"):
        assert evaluation.distances[name] < nm
    assert result.null_separation() > 2.0
    assert evaluation.best_model != "NM"
    rendered = result.render()
    assert "Fig. 4" in rendered
    json.dumps(result.to_payload())


def test_fig4_category_level_non_discriminating(context):
    """Sec. VI: at the category level even NM fits (no discrimination)."""
    result = run_fig4(context, level="category", region_codes=("KOR",))
    separation = result.null_separation()
    # Category curves: NM is within a small factor of CM, far from the
    # ingredient-level blowout.
    assert separation < 2.0


def test_fig4_mean_distance(context):
    result = run_fig4(context, region_codes=("KOR",))
    assert result.mean_distance("NM") > result.mean_distance("CM-R")
    assert result.best_model_by_cuisine()["KOR"] in ("CM-R", "CM-C", "CM-M")
