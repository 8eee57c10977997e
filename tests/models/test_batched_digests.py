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
category fallbacks, both NM sampling modes, short NM and copy-mutate
rows, an exhausted universe, a low-phi cuisine with hundreds of initial
recipes, and runs long enough to refill (and bypass) the per-run block
buffer.  How far the engine stacks recipe steps is not part of the
contract: every case also reproduces its digests with spans capped at
a few steps.  ``small_block_digests.json`` pins some cases at block
sizes of a few variates, where refills and full-block bypasses fall
next to every kind of loop step.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

import pytest

from repro.models import batched
from repro.models.batched import BatchedStreams, run_batched
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

#: Block sizes of a few variates, and the cases run with them
#: (``small_block_digests.json``): a refill lands next to every kind of
#: loop step, and at 7 and 19 every copy-mutate step (9, 13 or 19
#: draws) takes the full-block bypass, or just fits, or crosses it.
SMALL_BLOCKS = (7, 19, 64)
SMALL_BLOCK_CASES = (
    "paper/CM-R",
    "paper/CM-C",
    "paper/CM-M",
    "paper/NM",
    "exhausted/CM-C",
    "short-rows/CM-R",
    "fallback-skip/CM-M",
)
SMALL_BLOCKS_PATH = Path(__file__).with_name("small_block_digests.json")


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
    # Initial pool no larger than a recipe, so every initial recipe is
    # a shuffle of the whole pool: the first Floyd bound is 0, which
    # draws no word.
    short = _spec(n_ingredients=30, n_recipes=120, avg_size=8.0, phi=0.4)
    for name, pool_size in (("CM-R", 5), ("CM-C", 8)):
        cases[f"short-rows/{name}"] = (
            lambda name=name, pool_size=pool_size: create_model(
                name, params=ModelParams(initial_pool_size=pool_size)
            ),
            short,
            range(4),
        )
    # Low phi: n0 = 400 initial recipes, a growth event every ~20 recipe
    # steps, and enough draws to refill every block a few times.
    low_phi = _spec(n_ingredients=250, n_recipes=4000, avg_size=6.0, phi=0.05)
    for name in PAPER_MODELS:
        cases[f"low-phi/{name}"] = (
            lambda name=name: create_model(name), low_phi, range(2)
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


@pytest.mark.parametrize("cap", [1, 7])
@pytest.mark.parametrize("case_id", sorted(CASES))
def test_span_cap_leaves_digests_unchanged(case_id, cap, recorded, monkeypatch):
    factory, spec, seeds = CASES[case_id]
    # Spans of ``cap`` loop steps for this batch of len(seeds) runs.
    monkeypatch.setattr(batched, "_SPAN_ENTRIES", cap * len(seeds))
    runs = run_batched(
        factory(), spec, [rng_from_seed(seed) for seed in seeds],
        record_history=True,
    )
    for seed, run in zip(seeds, runs):
        assert run_digest(run) == recorded[case_id][str(seed)], seed


@pytest.mark.parametrize("block", SMALL_BLOCKS)
@pytest.mark.parametrize("case_id", SMALL_BLOCK_CASES)
def test_small_blocks_match_recorded_digests(case_id, block, monkeypatch):
    recorded = json.loads(SMALL_BLOCKS_PATH.read_text())["blocks"]
    monkeypatch.setattr(BatchedStreams.__init__, "__defaults__", (block,))
    factory, spec, seeds = CASES[case_id]
    runs = run_batched(
        factory(), spec, [rng_from_seed(seed) for seed in seeds],
        record_history=True,
    )
    for seed, run in zip(seeds, runs):
        assert run_digest(run) == recorded[str(block)][case_id][str(seed)], seed
