"""Tests for the paper constants and mining configuration."""

from __future__ import annotations

import pytest

from repro.config import DEFAULT_MINING, PAPER, MiningConfig


def test_paper_headline_numbers():
    assert PAPER.total_recipes == 158544
    assert PAPER.n_regions == 25
    assert PAPER.n_lexicon_entities == 721
    assert PAPER.n_compound_ingredients == 96
    assert PAPER.n_categories == 21


def test_paper_recipe_size_bounds():
    assert PAPER.recipe_size_min == 2
    assert PAPER.recipe_size_max == 38
    assert PAPER.recipe_size_mean == pytest.approx(9.0)


def test_paper_model_parameters():
    assert PAPER.model_initial_pool_size == 20
    assert PAPER.model_mutations_cm_r == 4
    assert PAPER.model_mutations_cm_c == 6
    assert PAPER.model_mutations_cm_m == 6
    assert PAPER.model_ensemble_runs == 100


def test_default_mining_matches_paper():
    assert DEFAULT_MINING.min_support == pytest.approx(0.05)
    assert DEFAULT_MINING.max_size is None
    assert DEFAULT_MINING.algorithm == "bitset"


@pytest.mark.parametrize("bad_support", [0.0, -0.1, 1.5])
def test_mining_config_rejects_bad_support(bad_support):
    with pytest.raises(ValueError):
        MiningConfig(min_support=bad_support)


def test_mining_config_rejects_bad_max_size():
    with pytest.raises(ValueError):
        MiningConfig(max_size=0)


def test_mining_config_accepts_valid():
    config = MiningConfig(min_support=0.1, max_size=3, algorithm="bitset")
    assert config.min_support == 0.1
    assert config.max_size == 3


@pytest.mark.parametrize(
    "algorithm",
    ["eclat", "apriori", "fpgrowth", "bruteforce", "eclt", "BITSET", ""],
)
def test_mining_config_rejects_unknown_algorithm(algorithm):
    # bitset is the only miner; anything else fails at construction,
    # before a sweep has simulated anything.
    with pytest.raises(ValueError, match="bitset"):
        MiningConfig(algorithm=algorithm)
