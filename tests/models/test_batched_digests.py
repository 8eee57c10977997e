"""Bit-level guard for the batched engine's RNG-stream contract (§7).

``engine_digests.json`` holds one SHA-256 digest per (case, seed) —
transactions, trace and history — recorded from the array engine the
batched engine was once asserted bit-identical to, run by run, before
that engine was retired.  Every case must still reproduce its digest
through :func:`~repro.models.batched.run_batched`, both as a batch of
one and stacked in a shuffled batch with foreign seeds, so any change
to the per-run draw sequence fails here instead of silently changing
cached and published runs (bump ``BATCHED_STREAM_VERSION`` and
re-record if the change is deliberate).

The cases cover the four paper models, both duplicate policies, both
category fallbacks, both NM sampling modes, short NM rows, an
exhausted universe, and runs long enough to refill (and bypass) the
per-run block buffer.
"""

from __future__ import annotations

import random

import pytest

from repro.models.batched import run_batched
from repro.models.null_model import NullModel
from repro.models.params import ModelParams
from repro.models.registry import PAPER_MODELS, create_model
from repro.rng import rng_from_seed
from tests.models.test_engine_equivalence import (
    N_SEEDS,
    _spec,
    recorded_digests,
    run_digest,
)

#: Seeds that share a stacked batch with each case's own seeds but have
#: no digest of their own: composition must not matter.
FOREIGN_SEEDS = (901, 902, 903)


def _cases():
    """``{case_id: (model factory, spec, seeds)}`` for every guarded case."""
    cases = {}
    paper = _spec()
    for name in PAPER_MODELS:
        cases[f"paper/{name}"] = (
            lambda name=name: create_model(name), paper, range(N_SEEDS)
        )
    cases["allow/CM-R"] = (
        lambda: create_model(
            "CM-R", params=ModelParams(mutations=8, duplicate_policy="allow")
        ),
        _spec(n_ingredients=24, n_recipes=300, avg_size=6.0),
        range(4),
    )
    sparse = _spec(n_ingredients=6, n_recipes=120, avg_size=3.0, phi=0.3)
    for fallback in ("skip", "random"):
        for name in ("CM-C", "CM-M"):
            cases[f"fallback-{fallback}/{name}"] = (
                lambda name=name, fallback=fallback: create_model(
                    name,
                    params=ModelParams(
                        mutations=6, category_fallback=fallback
                    ),
                ),
                sparse,
                range(4),
            )
    cases["nm-universe"] = (
        lambda: NullModel(sample_from="universe"),
        _spec(n_ingredients=30, n_recipes=150, avg_size=5.0),
        range(4),
    )
    cases["nm-short-rows"] = (
        lambda: create_model("NM", params=ModelParams(initial_pool_size=5)),
        _spec(n_ingredients=30, n_recipes=120, avg_size=8.0, phi=0.4),
        range(4),
    )
    exhausted = _spec(n_ingredients=6, n_recipes=80, avg_size=3.0, phi=0.5)
    for name in PAPER_MODELS:
        cases[f"exhausted/{name}"] = (
            lambda name=name: create_model(name), exhausted, range(4)
        )
    # Long enough to refill each run's 16384-variate block at least once.
    long = _spec(n_ingredients=60, n_recipes=3000, avg_size=6.0)
    for name in PAPER_MODELS:
        cases[f"refill/{name}"] = (
            lambda name=name: create_model(name), long, range(2)
        )
    # Universe exhausted from the start: one NM take of >= a full block,
    # which bypasses the buffer.
    cases["nm-bypass"] = (
        lambda: create_model("NM"),
        _spec(n_ingredients=10, n_recipes=6000, avg_size=4.0, phi=0.5),
        range(2),
    )
    return cases


CASES = _cases()


@pytest.fixture(scope="module")
def recorded():
    return recorded_digests()


def test_fixture_covers_every_case(recorded):
    assert set(recorded) == set(CASES)
    for case_id, (_, _, seeds) in CASES.items():
        assert set(recorded[case_id]) == {str(seed) for seed in seeds}


@pytest.mark.parametrize("case_id", sorted(CASES))
def test_batched_solo_matches_recorded_digest(case_id, recorded):
    factory, spec, seeds = CASES[case_id]
    model = factory()
    for seed in seeds:
        run = run_batched(
            model, spec, [rng_from_seed(seed)], record_history=True
        )[0]
        assert run_digest(run) == recorded[case_id][str(seed)], seed


@pytest.mark.parametrize("case_id", sorted(CASES))
def test_batched_stacked_matches_recorded_digest(case_id, recorded):
    factory, spec, seeds = CASES[case_id]
    batch = list(seeds) + list(FOREIGN_SEEDS)
    random.Random(case_id).shuffle(batch)
    runs = run_batched(
        factory(), spec, [rng_from_seed(seed) for seed in batch],
        record_history=True,
    )
    for seed, run in zip(batch, runs):
        if seed not in FOREIGN_SEEDS:
            assert run_digest(run) == recorded[case_id][str(seed)], seed
