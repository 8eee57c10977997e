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


# ---------------------------------------------------------------------------
# Memory-mapped columnar fast path
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def packed_small(tmp_path_factory, small_corpus):
    from repro.storage.columnar import pack_dataset

    path = tmp_path_factory.mktemp("invariants") / "small.col"
    with pack_dataset(small_corpus, path) as corpus:
        yield corpus


def test_columnar_curves_match_object_path(packed_small, small_corpus, lexicon):
    import numpy as np

    for level in ("ingredient", "category"):
        code = small_corpus.region_codes()[0]
        from_objects, result_objects = combination_curve(
            small_corpus, code, lexicon, level=level
        )
        from_planes, result_planes = combination_curve(
            packed_small, code, lexicon, level=level
        )
        assert np.array_equal(
            from_objects.frequencies, from_planes.frequencies
        )
        assert result_objects.itemsets == result_planes.itemsets


def test_columnar_analysis_matches_object_path(
    packed_small, small_corpus, lexicon
):
    from_objects = analyze_invariants(small_corpus, lexicon)
    from_planes = analyze_invariants(packed_small, lexicon)
    assert from_objects.average_distance == from_planes.average_distance
    assert set(from_objects.curves) == set(from_planes.curves)


def test_columnar_path_warms_object_path_cache(
    packed_small, small_corpus, lexicon, tmp_path, monkeypatch
):
    """Either representation's mining results serve the other (§6/§11)."""
    from repro.runtime.curve_cache import CurveCache
    import repro.analysis.invariants as invariants_module

    cache = CurveCache(tmp_path)
    code = small_corpus.region_codes()[0]
    _, packed_result = combination_curve(
        packed_small, code, lexicon, curve_cache=cache
    )

    def explode(*_args, **_kwargs):  # pragma: no cover - must not run
        raise AssertionError("cache miss: object path re-mined")

    monkeypatch.setattr(
        invariants_module, "mine_frequent_itemsets", explode
    )
    _, object_result = combination_curve(
        small_corpus, code, lexicon, curve_cache=cache
    )
    assert object_result.itemsets == packed_result.itemsets
