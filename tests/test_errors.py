"""Tests for the exception hierarchy."""

from __future__ import annotations

import pytest

from repro import errors


def test_all_errors_derive_from_repro_error():
    for name in errors.__all__:
        cls = getattr(errors, name)
        assert issubclass(cls, errors.ReproError)


def test_unknown_ingredient_error_is_key_error():
    with pytest.raises(KeyError):
        raise errors.UnknownIngredientError("dragon scale")


def test_unknown_ingredient_error_carries_query():
    exc = errors.UnknownIngredientError("dragon scale")
    assert exc.query == "dragon scale"
    assert "dragon scale" in str(exc)


def test_unknown_category_error_carries_query():
    exc = errors.UnknownCategoryError("Mythical")
    assert exc.query == "Mythical"


def test_alias_conflict_error_names_both_entities():
    exc = errors.AliasConflictError("soy", "soybean", "soybean sauce")
    assert exc.alias == "soy"
    assert "soybean" in str(exc)
    assert "soybean sauce" in str(exc)


def test_parameter_error_is_value_error():
    assert issubclass(errors.ParameterError, ValueError)


def test_domain_errors_are_catchable_by_domain():
    assert issubclass(errors.MiningError, errors.AnalysisError)
    assert issubclass(errors.MetricError, errors.AnalysisError)
    assert issubclass(errors.CalibrationError, errors.SynthesisError)
    assert issubclass(errors.UnknownRegionError, errors.CorpusError)
