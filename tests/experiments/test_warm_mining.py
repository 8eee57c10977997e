"""Acceptance tests: warm experiments perform zero mining calls.

With a ``cache_dir`` runtime, the first invocation of an experiment
fills both stores (runs + mined curves); a repeat invocation must serve
every run from the run cache and every mined curve — empirical and
per-run model curves alike — from the curve cache, reaching no miner at
all, and produce an identical result (DESIGN.md §6).  Model curves are
found by their runs' run keys, so no run's plane is ever fingerprinted.
"""

from __future__ import annotations

import pytest

from repro.experiments.base import ExperimentContext
from repro.experiments.fig3 import run_fig3
from repro.experiments.fig4 import run_fig4
from repro.experiments.islands import run_islands
from repro.runtime import RuntimeConfig, curve_cache


@pytest.fixture()
def cached_context(lexicon, small_corpus, tmp_path):
    return ExperimentContext(
        lexicon=lexicon,
        dataset=small_corpus,
        scale=0.06,
        seed=5,
        ensemble_runs=2,
        runtime=RuntimeConfig(cache_dir=tmp_path),
    )


def _forbid_mining(monkeypatch):
    def _no_mining(*_args, **_kwargs):
        raise AssertionError("warm invocation must not mine")

    # Every mining entry point used by the experiment drivers.
    monkeypatch.setattr(
        "repro.models.ensemble.mine_frequencies", _no_mining
    )
    monkeypatch.setattr(
        "repro.analysis.invariants.mine_frequent_itemsets", _no_mining
    )


def test_warm_fig4_zero_mining_calls(cached_context, monkeypatch):
    cold = run_fig4(cached_context, region_codes=("ITA", "KOR"))
    _forbid_mining(monkeypatch)
    warm = run_fig4(cached_context, region_codes=("ITA", "KOR"))
    assert warm.to_payload() == cold.to_payload()


def test_fig4_never_fingerprints_a_model_plane(cached_context, monkeypatch):
    def _no_fingerprint(*_args, **_kwargs):
        raise AssertionError("the model-curve path fingerprinted a plane")

    monkeypatch.setattr(
        "repro.models.ensemble.transactions_fingerprint", _no_fingerprint
    )
    hashed: list[int] = []
    digest = curve_cache.transactions_fingerprint

    def _counting(transactions):
        hashed.append(len(transactions))
        return digest(transactions)

    # The empirical curves' content keys: the one other caller.
    monkeypatch.setattr(
        "repro.analysis.invariants.transactions_fingerprint", _counting
    )
    regions = ("ITA", "KOR")
    cold = run_fig4(cached_context, region_codes=regions)
    _forbid_mining(monkeypatch)
    warm = run_fig4(cached_context, region_codes=regions)
    assert warm.to_payload() == cold.to_payload()
    # Only the empirical curves, one per cuisine and invocation, are
    # content-addressed: 16 model runs per invocation hash nothing.
    assert len(hashed) == 2 * len(regions)


def test_warm_islands_zero_mining_calls(cached_context, monkeypatch):
    # Island member curves are keyed by the ensemble's member run keys.
    cold = run_islands(cached_context)
    _forbid_mining(monkeypatch)
    warm = run_islands(cached_context)
    assert warm.to_payload() == cold.to_payload()


def test_warm_fig3_zero_mining_calls(cached_context, monkeypatch):
    cold = run_fig3(cached_context)
    _forbid_mining(monkeypatch)
    warm = run_fig3(cached_context)
    assert warm.to_payload() == cold.to_payload()


def test_cold_and_warm_agree_with_uncached(
    lexicon, small_corpus, cached_context
):
    # The cache must be invisible in results: an uncached serial context
    # and a twice-run cached context agree exactly.
    uncached = ExperimentContext(
        lexicon=lexicon,
        dataset=small_corpus,
        scale=0.06,
        seed=5,
        ensemble_runs=2,
    )
    expected = run_fig4(uncached, region_codes=("ITA",))
    run_fig4(cached_context, region_codes=("ITA",))
    warm = run_fig4(cached_context, region_codes=("ITA",))
    assert warm.to_payload() == expected.to_payload()
