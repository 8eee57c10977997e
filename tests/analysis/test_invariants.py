"""Tests for the Fig. 3 invariance analysis."""

from __future__ import annotations

import pytest

from repro.analysis.invariants import analyze_invariants, combination_curve
from repro.config import MiningConfig
from repro.errors import AnalysisError


def test_combination_curve_levels(small_corpus, lexicon):
    ing_curve, ing_result = combination_curve(small_corpus, "ITA", lexicon)
    cat_curve, cat_result = combination_curve(
        small_corpus, "ITA", lexicon, level="category"
    )
    assert len(ing_curve) == len(ing_result)
    assert len(cat_curve) == len(cat_result)
    # Category alphabet is tiny, so category curves are much longer per
    # item (more dense combos) but over fewer items.
    assert ing_curve.frequencies[0] <= 1.0


def test_unknown_level_raises(small_corpus, lexicon):
    with pytest.raises(AnalysisError):
        combination_curve(small_corpus, "ITA", lexicon, level="molecule")


def test_analysis_structure(small_corpus, lexicon):
    analysis = analyze_invariants(small_corpus, lexicon)
    assert set(analysis.curves) == {"ITA", "KOR", "MEX"}
    assert analysis.level == "ingredient"
    assert analysis.aggregate.label == "ALL"
    assert analysis.distances.labels == ("ITA", "KOR", "MEX")
    assert analysis.average_distance > 0


def test_single_cuisine_rejected(small_corpus, lexicon):
    ita_only = small_corpus.subset(["ITA"])
    with pytest.raises(AnalysisError):
        analyze_invariants(ita_only, lexicon)


def test_homogeneity_of_synthetic_curves(world_corpus, lexicon):
    """The paper's headline: cross-cuisine curves are nearly identical.

    At tiny scale the distances are noisier than the paper's 0.035, but
    must stay well below the null-model regime (~0.3+).
    """
    analysis = analyze_invariants(world_corpus, lexicon)
    assert analysis.average_distance < 0.12


def test_mining_config_respected(small_corpus, lexicon):
    loose = analyze_invariants(
        small_corpus, lexicon,
        mining=MiningConfig(min_support=0.02),
    )
    strict = analyze_invariants(
        small_corpus, lexicon,
        mining=MiningConfig(min_support=0.2),
    )
    for code in loose.curves:
        assert len(loose.curves[code]) >= len(strict.curves[code])


def test_category_level_distances(small_corpus, lexicon):
    analysis = analyze_invariants(small_corpus, lexicon, level="category")
    assert analysis.level == "category"
    assert analysis.average_distance >= 0
