"""Tests for the future-work model extensions."""

from __future__ import annotations

import pytest

from repro.errors import ModelError, ParameterError
from repro.lexicon.categories import Category
from repro.models.copy_mutate import CopyMutateCategory, CopyMutateRandom
from repro.models.extensions.variable_size import VariableSizeCopyMutate
from repro.models.islands import IslandSimulation, MigrationTopology
from repro.models.null_model import NullModel
from repro.models.params import CuisineSpec


def _spec(code="A", n_ingredients=40, n_recipes=100):
    categories = list(Category)[:4]
    return CuisineSpec(
        region_code=code,
        ingredient_ids=tuple(range(n_ingredients)),
        categories=tuple(categories[i % 4] for i in range(n_ingredients)),
        avg_recipe_size=6.0,
        n_recipes=n_recipes,
        phi=n_ingredients / n_recipes,
    )


# ---------------------------------------------------------------------------
# Variable recipe size
# ---------------------------------------------------------------------------


def test_variable_size_runs_to_target():
    run = VariableSizeCopyMutate().run(_spec(), seed=0)
    assert run.n_recipes == 100
    assert run.model_name == "CM-V"


def test_variable_size_changes_sizes():
    run = VariableSizeCopyMutate(p_insert=0.4, p_delete=0.4).run(
        _spec(), seed=1
    )
    sizes = {len(t) for t in run.transactions}
    assert len(sizes) > 1  # sizes actually drift


def test_variable_size_respects_bounds():
    run = VariableSizeCopyMutate(
        p_insert=0.45, p_delete=0.45, min_size=4, max_size=8
    ).run(_spec(), seed=2)
    mutated = run.transactions[run.initial_recipes:]
    for transaction in mutated:
        assert 4 <= len(transaction) <= 8 or len(transaction) == 6


def test_variable_size_invalid_probabilities():
    with pytest.raises(ParameterError):
        VariableSizeCopyMutate(p_insert=0.7, p_delete=0.7)
    with pytest.raises(ParameterError):
        VariableSizeCopyMutate(p_insert=-0.1)
    with pytest.raises(ParameterError):
        VariableSizeCopyMutate(min_size=10, max_size=5)


# ---------------------------------------------------------------------------
# Horizontal exchange: islands on a full mesh
# ---------------------------------------------------------------------------


def _exchange(inner_model, specs, exchange_rate):
    """Co-evolve ``specs`` with each recipe step borrowing its mother from
    another cuisine with probability ``exchange_rate``, split evenly over
    the full-mesh inbound edges."""
    codes = [spec.region_code for spec in specs]
    topology = MigrationTopology.full_mesh(
        codes, exchange_rate / (len(specs) - 1)
    )
    return IslandSimulation(inner_model, specs, topology)


def test_horizontal_coevolution_targets():
    sim = _exchange(
        CopyMutateRandom(), [_spec("A"), _spec("B", n_recipes=60)], 0.2
    )
    outcome = sim.run(seed=3)
    assert outcome.runs["A"].n_recipes == 100
    assert outcome.runs["B"].n_recipes == 60
    assert outcome.runs["A"].model_name == "ISL(CM-R)"


def test_horizontal_borrowing_happens():
    sim = _exchange(CopyMutateRandom(), [_spec("A"), _spec("B")], 0.5)
    outcome = sim.run(seed=4)
    assert sum(outcome.borrow_events.values()) > 0


def test_zero_exchange_rate_no_borrowing():
    sim = _exchange(CopyMutateRandom(), [_spec("A"), _spec("B")], 0.0)
    outcome = sim.run(seed=5)
    assert sum(outcome.borrow_events.values()) == 0


def test_horizontal_with_category_inner_model():
    sim = _exchange(CopyMutateCategory(), [_spec("A"), _spec("B")], 0.3)
    outcome = sim.run(seed=6)
    assert outcome.runs["A"].n_recipes == 100
    assert outcome.runs["A"].model_name == "ISL(CM-C)"


def test_horizontal_recipes_use_known_ingredients():
    """Borrowed recipes are filtered to the borrower's universe."""
    spec_a = _spec("A", n_ingredients=30)
    spec_b = CuisineSpec(
        region_code="B",
        ingredient_ids=tuple(range(20, 60)),
        categories=tuple(
            list(Category)[:4][i % 4] for i in range(40)
        ),
        avg_recipe_size=6.0,
        n_recipes=80,
        phi=0.5,
    )
    sim = _exchange(CopyMutateRandom(), [spec_a, spec_b], 0.6)
    outcome = sim.run(seed=7)
    assert sum(outcome.borrow_events.values()) > 0
    universe_a = set(spec_a.ingredient_ids)
    for transaction in outcome.runs["A"].transactions:
        assert set(transaction) <= universe_a


def test_horizontal_requires_copy_mutate_inner():
    with pytest.raises(ModelError):
        _exchange(NullModel(), [_spec("A"), _spec("B")], 0.05)


def test_horizontal_distinct_codes_required():
    with pytest.raises(ModelError):
        IslandSimulation(CopyMutateRandom(), [_spec("A"), _spec("A")])


def test_horizontal_invalid_rate():
    with pytest.raises(ParameterError):
        _exchange(CopyMutateRandom(), [_spec("A"), _spec("B")], 1.5)
