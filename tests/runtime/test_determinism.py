"""Backend-determinism guarantees of the execution runtime.

The contract under test is the acceptance criterion of the runtime
subsystem: for a fixed master seed, serial and process execution
produce **bit-identical** :class:`~repro.models.base.EvolutionRun`
results — same transactions, same traces, same pool sizes — and the
master seed stream itself advances identically under every backend.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.models.ensemble import run_ensemble
from repro.models.registry import PAPER_MODELS, create_model
from repro.rng import ensure_rng, rng_from_seed, spawn, spawn_seeds
from repro.runtime import RuntimeConfig, execute_runs

BACKEND_CONFIGS = (
    RuntimeConfig(),
    RuntimeConfig(backend="process", jobs=2),
)


def _run_signature(runs):
    return [
        (run.transactions, run.final_pool_size, run.initial_recipes, run.trace)
        for run in runs
    ]


def test_spawn_seeds_matches_spawn(tiny_spec):
    """spawn() and spawn_seeds()+rng_from_seed() are the same stream."""
    seeds = spawn_seeds(ensure_rng(11), 5)
    generators = spawn(ensure_rng(11), 5)
    for seed, generator in zip(seeds, generators):
        assert rng_from_seed(seed).integers(0, 2**31) == generator.integers(
            0, 2**31
        )


@pytest.mark.parametrize("model_name", PAPER_MODELS)
def test_all_backends_bit_identical(tiny_spec, model_name):
    model = create_model(model_name)
    seeds = spawn_seeds(ensure_rng(7), 6)
    reference = None
    for config in BACKEND_CONFIGS:
        runs = execute_runs(model, tiny_spec, seeds, runtime=config)
        signature = _run_signature(runs)
        if reference is None:
            reference = signature
        else:
            assert signature == reference, (
                f"{config.backend} diverged from serial for {model_name}"
            )


def test_run_ensemble_backend_invariant(tiny_spec):
    """The full ensemble aggregation is backend-independent."""
    model = create_model("CM-R")
    results = [
        run_ensemble(model, tiny_spec, n_runs=5, seed=13, runtime=config)
        for config in BACKEND_CONFIGS
    ]
    import numpy as np

    for result in results[1:]:
        assert _run_signature(result.runs) == _run_signature(results[0].runs)
        assert np.array_equal(
            result.ingredient_curve.frequencies,
            results[0].ingredient_curve.frequencies,
        )


def test_run_ensemble_default_matches_explicit_serial(tiny_spec):
    model = create_model("CM-C")
    implicit = run_ensemble(model, tiny_spec, n_runs=4, seed=3)
    explicit = run_ensemble(
        model, tiny_spec, n_runs=4, seed=3, runtime=RuntimeConfig()
    )
    assert _run_signature(implicit.runs) == _run_signature(explicit.runs)


def test_record_history_survives_every_backend(tiny_spec):
    model = create_model("CM-R")
    seeds = spawn_seeds(ensure_rng(5), 3)
    histories = []
    for config in BACKEND_CONFIGS:
        runs = execute_runs(
            model, tiny_spec, seeds, runtime=config, record_history=True
        )
        histories.append([run.history for run in runs])
        for run in runs:
            assert run.history is not None
            assert run.history[-1][1] == tiny_spec.n_recipes
    assert all(history == histories[0] for history in histories[1:])


def test_seed_order_defines_result_order(tiny_spec):
    model = create_model("CM-R")
    seeds = spawn_seeds(ensure_rng(21), 4)
    forward = execute_runs(model, tiny_spec, seeds)
    backward = execute_runs(model, tiny_spec, list(reversed(seeds)))
    assert _run_signature(forward) == _run_signature(list(reversed(backward)))


_CROSS_PROCESS_SNIPPET = """
import hashlib
from repro.lexicon.builder import standard_lexicon
from repro.synthesis.worldgen import WorldKitchen

kitchen = WorldKitchen(standard_lexicon(), seed=2)
dataset = kitchen.generate_dataset(region_codes=("KOR",), scale=0.04)
payload = repr([(r.region_code, r.ingredient_ids) for r in dataset]).encode()
print(hashlib.sha256(payload).hexdigest())
"""


def test_corpus_generation_is_hash_seed_independent():
    """Regression: corpus generation must not depend on PYTHONHASHSEED.

    WorldKitchen used to derive per-region RNG keys via ``hash(str)``,
    which is salted per interpreter — every CLI invocation produced a
    different corpus for the same seed, poisoning the on-disk run cache.
    """
    root = Path(__file__).resolve().parents[2]
    digests = set()
    for hash_seed in ("0", "12345"):
        env = dict(os.environ)
        env["PYTHONHASHSEED"] = hash_seed
        env["PYTHONPATH"] = os.pathsep.join(
            part
            for part in (str(root / "src"), env.get("PYTHONPATH", ""))
            if part
        )
        result = subprocess.run(
            [sys.executable, "-c", _CROSS_PROCESS_SNIPPET],
            capture_output=True,
            text=True,
            check=True,
            env=env,
            cwd=root,
        )
        digests.add(result.stdout.strip())
    assert len(digests) == 1, "corpus digest varies with PYTHONHASHSEED"
