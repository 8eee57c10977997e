"""Acceptance tests: warm experiments perform zero mining calls.

With a ``cache_dir`` runtime, the first invocation of an experiment
fills both stores (runs + mined curves); a repeat invocation must serve
every run from the run cache and every mined curve — empirical and
model curves alike — from the curve cache, reaching no miner at all,
and produce an identical result (DESIGN.md §6).  Model curves are
found by their runs' run keys, so no run's plane is ever fingerprinted.
A cell is one entry in each store, so a cold grid creates one run
entry and one curve entry per cell, plus one curve per cuisine.
"""

from __future__ import annotations

import pytest

from repro.experiments.base import ExperimentContext
from repro.experiments.fig3 import run_fig3
from repro.experiments.fig4 import run_fig4
from repro.experiments.islands import run_islands
from repro.runtime import CurveCache, RunCache, RuntimeConfig, curve_cache
from repro.runtime import runner


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


def _entries(directory) -> dict[str, int]:
    """Every file in ``directory`` with its modification time."""
    return {path.name: path.stat().st_mtime_ns for path in directory.iterdir()}


def test_fig4_writes_one_entry_per_cell(
    lexicon, small_corpus, tmp_path, monkeypatch
):
    """A cold 2-model x 2-cuisine fig4 writes 4 run entries and 4 + 2
    curve entries on every backend; a warm rerun hits every entry,
    writes nothing and neither simulates nor mines."""
    models, regions = ("CM-R", "NM"), ("ITA", "KOR")

    def fig4(cache_dir, backend="serial", jobs=1):
        return run_fig4(
            ExperimentContext(
                lexicon=lexicon, dataset=small_corpus, scale=0.06, seed=5,
                ensemble_runs=3,
                runtime=RuntimeConfig(
                    backend=backend, jobs=jobs, cache_dir=cache_dir
                ),
            ),
            model_names=models, region_codes=regions,
        )

    serial_dir, process_dir = tmp_path / "serial", tmp_path / "process"
    cold = fig4(serial_dir)
    written = _entries(serial_dir)
    names = sorted(written)
    assert sum(name.endswith(".run.pkl") for name in names) == 4
    assert sum(name.endswith(".curve.pkl") for name in names) == 4 + 2
    assert len(names) == 10  # no temp or other file left behind
    assert fig4(process_dir, "process", 2).to_payload() == cold.to_payload()
    assert sorted(_entries(process_dir)) == names

    found: list[tuple[str, bool]] = []
    for store in (RunCache, CurveCache):
        def spy(self, *args, _get=store.get, **kwargs):
            payload = _get(self, *args, **kwargs)
            found.append((type(self).__name__, payload is not None))
            return payload

        monkeypatch.setattr(store, "get", spy)

    def _no_simulation(*_args, **_kwargs):
        raise AssertionError("warm invocation must not simulate")

    monkeypatch.setattr(runner, "execute_batch", _no_simulation)
    _forbid_mining(monkeypatch)
    warm = fig4(serial_dir)
    assert warm.to_payload() == cold.to_payload()
    assert _entries(serial_dir) == written
    assert sorted(found) == (
        [("CurveCache", True)] * 6 + [("RunCache", True)] * 4
    )
