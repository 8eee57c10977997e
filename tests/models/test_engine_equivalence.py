"""Reference-vs-batched engine equivalence (DESIGN.md §5, §7).

The two engines consume the RNG stream in different orders, so their
runs are not bit-identical for a given seed.  The contract tested here
instead has three layers:

1. **Deterministic structure is exactly equal.**  The (m, n) trajectory
   of the ∂-vs-φ alternation is a pure function of
   (m₀, n₀, φ, N, |I|), independent of any random draw — so both
   engines must produce *identical* histories, final pool sizes, and
   deterministic trace counters (recipes/ingredients added, mutation
   attempts) run by run.
2. **Stochastic behaviour is distributionally equivalent.**  Acceptance
   and rejection rates, final recipe compositions (ingredient-frequency
   curves), and recipe-size profiles agree within ensemble tolerance
   across all four models, both duplicate policies, and both category
   fallbacks.
3. **The batched engine is itself exactly deterministic** — fixed
   seed → bit-identical runs, whatever the batch composition; routing a
   run through ``model.run`` or :func:`run_batched` is immaterial.
4. **The batched engine is bit-identical to the retired vectorized
   engine**, run by run: ``engine_digests.json`` holds SHA-256 digests
   of vectorized runs, and batched runs reproduce them on every backend
   (the full case matrix lives in ``test_batched_digests.py``).
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from repro.lexicon.categories import Category
from repro.models.batched import run_batched
from repro.models.null_model import NullModel
from repro.models.params import ENGINES, CuisineSpec, ModelParams
from repro.models.registry import PAPER_MODELS, create_model
from repro.rng import rng_from_seed
from repro.runtime import RuntimeConfig, execute_runs

N_SEEDS = 12

DIGESTS_PATH = Path(__file__).with_name("engine_digests.json")


def run_digest(run) -> str:
    """SHA-256 over a run's transactions, trace, history and pool sizes."""
    payload = {
        "transactions": [sorted(t) for t in run.transactions],
        "trace": dataclasses.asdict(run.trace),
        "history": run.history,
        "final_pool_size": run.final_pool_size,
        "initial_recipes": run.initial_recipes,
    }
    encoded = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(encoded.encode()).hexdigest()


def recorded_digests() -> dict[str, dict[str, str]]:
    """``{case_id: {seed: digest}}`` recorded from vectorized runs."""
    return json.loads(DIGESTS_PATH.read_text())["cases"]


def _spec(n_ingredients=40, n_recipes=150, avg_size=6.0, phi=None):
    categories = list(Category)[:4]
    return CuisineSpec(
        region_code="TST",
        ingredient_ids=tuple(range(n_ingredients)),
        categories=tuple(categories[i % 4] for i in range(n_ingredients)),
        avg_recipe_size=avg_size,
        n_recipes=n_recipes,
        phi=phi if phi is not None else n_ingredients / n_recipes,
    )


def _pair(name, seed, spec, record_history=False, **kwargs):
    reference = create_model(name, engine="reference", **kwargs).run(
        spec, seed=seed, record_history=record_history
    )
    batched = create_model(name, engine="batched", **kwargs).run(
        spec, seed=seed, record_history=record_history
    )
    return reference, batched


def _ingredient_frequencies(runs) -> np.ndarray:
    """Mean per-ingredient usage frequency over an ensemble of runs."""
    counts: Counter[int] = Counter()
    total = 0
    for run in runs:
        for transaction in run.transactions:
            counts.update(transaction)
            total += len(transaction)
    universe = max(counts) + 1 if counts else 0
    freq = np.zeros(universe)
    for ingredient, count in counts.items():
        freq[ingredient] = count / total
    return freq


# ----------------------------------------------------------------------
# Layer 1: deterministic structure
# ----------------------------------------------------------------------


@pytest.mark.parametrize("name", PAPER_MODELS)
def test_trajectories_identical(name):
    """(m, n) histories and final pool sizes match run for run."""
    spec = _spec()
    for seed in range(N_SEEDS):
        reference, batched = _pair(name, seed, spec, record_history=True)
        assert reference.history == batched.history
        assert reference.final_pool_size == batched.final_pool_size
        assert reference.initial_recipes == batched.initial_recipes
        assert reference.n_recipes == batched.n_recipes


@pytest.mark.parametrize("name", PAPER_MODELS)
def test_deterministic_counters_identical(name):
    """Counters fixed by the trajectory (not by draws) match exactly."""
    spec = _spec()
    for seed in range(N_SEEDS):
        reference, batched = _pair(name, seed, spec)
        assert reference.trace.recipes_added == batched.trace.recipes_added
        assert (
            reference.trace.ingredients_added
            == batched.trace.ingredients_added
        )
        assert (
            reference.trace.mutations_attempted
            == batched.trace.mutations_attempted
        )


def test_exhausted_universe_trajectory():
    """Tiny universe: pool exhausts mid-run; trajectories still match."""
    spec = _spec(n_ingredients=6, n_recipes=80, avg_size=3.0, phi=0.5)
    for name in PAPER_MODELS:
        reference, batched = _pair(name, 3, spec, record_history=True)
        assert reference.history == batched.history
        assert reference.final_pool_size == spec.n_ingredients


# ----------------------------------------------------------------------
# Layer 2: distributional equivalence
# ----------------------------------------------------------------------


def _ensemble(name, spec, engine, n=N_SEEDS, **kwargs):
    model = create_model(name, engine=engine, **kwargs)
    return [model.run(spec, seed=1000 + seed) for seed in range(n)]


@pytest.mark.parametrize("name", PAPER_MODELS)
def test_acceptance_rates_close(name):
    """Mean mutation acceptance rates agree within ensemble tolerance."""
    spec = _spec()
    rates = {}
    for engine in ("reference", "batched"):
        runs = _ensemble(name, spec, engine)
        attempted = sum(run.trace.mutations_attempted for run in runs)
        accepted = sum(run.trace.mutations_accepted for run in runs)
        rates[engine] = accepted / attempted if attempted else 0.0
    if name == "NM":
        assert rates["reference"] == rates["batched"] == 0.0
    else:
        assert rates["reference"] > 0
        assert rates["batched"] == pytest.approx(
            rates["reference"], rel=0.15
        )


@pytest.mark.parametrize("name", PAPER_MODELS)
def test_ingredient_frequency_curves_close(name):
    """Mean per-ingredient usage distributions agree (MAE tolerance)."""
    spec = _spec()
    reference = _ingredient_frequencies(_ensemble(name, spec, "reference"))
    batched = _ingredient_frequencies(_ensemble(name, spec, "batched"))
    size = max(reference.size, batched.size)
    reference = np.pad(reference, (0, size - reference.size))
    batched = np.pad(batched, (0, size - batched.size))
    # Mean frequency is 1/40 = 0.025; a 0.004 MAE bound keeps the two
    # ensembles statistically indistinguishable at this size.
    assert float(np.abs(reference - batched).mean()) < 0.004


@pytest.mark.parametrize("policy", ["skip", "allow"])
def test_duplicate_policies_equivalent(policy):
    """Recipe-size profiles match under both duplicate policies."""
    spec = _spec(n_ingredients=24, n_recipes=300, avg_size=6.0)
    params = ModelParams(mutations=8, duplicate_policy=policy)
    sizes = {}
    for engine in ("reference", "batched"):
        runs = _ensemble("CM-R", spec, engine, params=params)
        sizes[engine] = Counter(
            len(transaction) for run in runs for transaction in run.transactions
        )
    if policy == "skip":
        assert set(sizes["reference"]) == set(sizes["batched"]) == {6}
    else:
        # Both engines must produce shrunken recipes at a similar rate.
        def shrink_rate(counter):
            total = sum(counter.values())
            return sum(v for k, v in counter.items() if k < 6) / total

        assert shrink_rate(sizes["reference"]) > 0
        assert shrink_rate(sizes["batched"]) == pytest.approx(
            shrink_rate(sizes["reference"]), rel=0.3
        )


@pytest.mark.parametrize("fallback", ["skip", "random"])
@pytest.mark.parametrize("name", ["CM-C", "CM-M"])
def test_category_fallbacks_equivalent(name, fallback):
    """Skip/random category fallbacks behave alike on a sparse universe.

    A 6-ingredient universe with 4 categories makes empty pool∩category
    draws common, exercising the fallback on both engines.
    """
    spec = _spec(n_ingredients=6, n_recipes=120, avg_size=3.0, phi=0.3)
    params = ModelParams(mutations=6, category_fallback=fallback)
    skipped = {}
    for engine in ("reference", "batched"):
        runs = _ensemble(name, spec, engine, params=params)
        attempted = sum(run.trace.mutations_attempted for run in runs)
        skipped[engine] = (
            sum(run.trace.mutations_skipped_no_candidate for run in runs)
            / attempted
        )
    if fallback == "random":
        assert skipped["reference"] == skipped["batched"] == 0.0
    else:
        assert skipped["batched"] == pytest.approx(
            skipped["reference"], abs=0.05
        )


def test_cm_c_category_preservation_batched():
    """CM-C's category-multiset invariant holds on the batched engine."""
    spec = _spec(n_ingredients=40, n_recipes=200, avg_size=6.0)
    run = create_model("CM-C", engine="batched").run(spec, seed=6)

    def category_vector(transaction):
        counts = [0, 0, 0, 0]
        for ingredient_id in transaction:
            counts[ingredient_id % 4] += 1
        return tuple(counts)

    vectors = {category_vector(t) for t in run.transactions}
    initial = {
        category_vector(t)
        for t in run.transactions[: run.initial_recipes]
    }
    assert vectors == initial


@pytest.mark.parametrize("sample_from", ["pool", "universe"])
def test_null_model_sampling_modes_equivalent(sample_from):
    """NM recipes stay distinct, correctly sized, in-universe, per mode."""
    spec = _spec(n_ingredients=30, n_recipes=150, avg_size=5.0)
    reference = NullModel(sample_from=sample_from, engine="reference").run(
        spec, seed=2, record_history=True
    )
    batched = NullModel(sample_from=sample_from, engine="batched").run(
        spec, seed=2, record_history=True
    )
    assert reference.history == batched.history
    universe = set(spec.ingredient_ids)
    for run in (reference, batched):
        assert all(len(t) == spec.recipe_size for t in run.transactions)
        assert all(t <= universe for t in run.transactions)
    # Pool-mode recipes drawn before the pool finished growing can only
    # use pool members; compare how tightly early recipes concentrate.
    if sample_from == "pool":
        early_ref = set().union(*reference.transactions[:20])
        early_batched = set().union(*batched.transactions[:20])
        assert len(early_ref) < spec.n_ingredients
        assert len(early_batched) < spec.n_ingredients


# ----------------------------------------------------------------------
# Engine selection
# ----------------------------------------------------------------------


def test_engine_override_beats_params():
    """run(engine=...) overrides params.engine, and resolves correctly."""
    spec = _spec(n_recipes=60)
    model = create_model("CM-R", engine="reference")
    assert model.resolve_engine() == "reference"
    assert model.resolve_engine("batched") == "batched"
    override = model.run(spec, seed=1, engine="batched")
    batched = create_model("CM-R", engine="batched").run(spec, seed=1)
    assert override.transactions == batched.transactions


def test_unsupported_model_falls_back_to_reference():
    """A model class with no batched step of its own runs on reference."""
    from repro.models.base import CopyMutateBase

    class NoKind(CopyMutateBase):
        name = "TST-NOKIND"

        def _recipe_step(self, state, rng):  # pragma: no cover - unused
            raise NotImplementedError

        def _choose_replacement(self, state, victim, rng):
            return None  # pragma: no cover - unused

    model = NoKind(engine="batched")
    assert model.resolve_engine() == "reference"
    assert model.resolve_engine("batched") == "reference"


# ----------------------------------------------------------------------
# CM-V: no batched kind, so always the reference engine
# ----------------------------------------------------------------------


def test_cm_v_runs_on_reference():
    """CM-V resolves to reference, so a batched request changes nothing."""
    from repro.models.extensions.variable_size import VariableSizeCopyMutate

    model = VariableSizeCopyMutate()
    assert model.resolve_engine() == "reference"
    assert model.resolve_engine("batched") == "reference"
    spec = _spec(n_recipes=60)
    batched_request = model.run(spec, seed=4, engine="batched")
    reference = model.run(spec, seed=4, engine="reference")
    assert batched_request.transactions == reference.transactions


def test_cm_v_trajectories_identical():
    """CM-V keeps Algorithm 1's deterministic (m, n) structure.

    The trajectory depends on no draw and no recipe step, so CM-V on the
    reference engine walks exactly the batched CM-R trajectory (both
    default to M = 4).
    """
    from repro.models.extensions.variable_size import VariableSizeCopyMutate

    spec = _spec()
    for seed in range(N_SEEDS):
        variable = VariableSizeCopyMutate().run(
            spec, seed=seed, record_history=True
        )
        batched = create_model("CM-R").run(
            spec, seed=seed, record_history=True
        )
        assert variable.history == batched.history
        assert variable.final_pool_size == batched.final_pool_size
        assert (
            variable.trace.mutations_attempted
            == batched.trace.mutations_attempted
        )


def test_cm_v_sizes_drift_within_bounds_both_engines():
    """Insert/delete moves change sizes whichever engine is requested,
    within [2, 38]."""
    from repro.models.extensions.variable_size import VariableSizeCopyMutate

    spec = _spec(n_ingredients=30, n_recipes=200, avg_size=6.0)
    for engine in ENGINES:
        model = VariableSizeCopyMutate(engine=engine)
        run = model.run(spec, seed=9)
        sizes = {len(t) for t in run.transactions}
        assert len(sizes) > 1, f"no size drift on {engine}"
        assert min(sizes) >= model.min_size
        assert max(sizes) <= model.max_size


# ----------------------------------------------------------------------
# Batched engine bit-identity to the recorded vectorized runs
# ----------------------------------------------------------------------


@pytest.mark.parametrize("name", PAPER_MODELS)
def test_batched_bit_identical_to_vectorized(name):
    """Whole-batch results equal the per-run vectorized digests exactly."""
    recorded = recorded_digests()[f"paper/{name}"]
    spec = _spec()
    seeds = list(range(N_SEEDS))
    batched = run_batched(
        create_model(name), spec, [rng_from_seed(seed) for seed in seeds],
        record_history=True,
    )
    for seed, batched_run in zip(seeds, batched):
        assert run_digest(batched_run) == recorded[str(seed)], seed


def test_vectorized_deterministic_per_seed():
    """Same seed → bit-identical runs through ``model.run``, every model,
    and each one is the recorded vectorized run."""
    spec = _spec()
    recorded = recorded_digests()
    for name in PAPER_MODELS:
        model = create_model(name)
        first = model.run(spec, seed=7, record_history=True)
        second = model.run(spec, seed=7, record_history=True)
        assert first.transactions == second.transactions
        assert first.trace == second.trace
        assert first.history == second.history
        assert run_digest(first) == recorded[f"paper/{name}"]["7"], name


@pytest.mark.parametrize("backend", ["process"])
def test_vectorized_bit_identical_across_backends(backend):
    """Serial and parallel backends both reproduce the recorded
    vectorized runs bit for bit."""
    recorded = recorded_digests()["paper/CM-M"]
    spec = _spec()
    model = create_model("CM-M")
    seeds = [0, 3, 5, 10]
    serial = execute_runs(model, spec, seeds, record_history=True)
    parallel = execute_runs(
        model, spec, seeds, record_history=True,
        runtime=RuntimeConfig(backend=backend, jobs=2),
    )
    assert [run_digest(run) for run in serial] == [
        recorded[str(seed)] for seed in seeds
    ]
    assert [run_digest(run) for run in parallel] == [
        recorded[str(seed)] for seed in seeds
    ]


# ----------------------------------------------------------------------
# Batched engine determinism (DESIGN.md §7)
# ----------------------------------------------------------------------


def _assert_runs_identical(first, second):
    assert first.transactions == second.transactions
    assert second.transactions == first.transactions
    assert first.trace == second.trace
    assert first.history == second.history
    assert first.final_pool_size == second.final_pool_size
    assert first.initial_recipes == second.initial_recipes


@pytest.mark.parametrize("name", PAPER_MODELS)
def test_batched_vs_reference_deterministic_structure(name):
    """Batched runs share the reference engine's exact (m, n) structure."""
    spec = _spec()
    model = create_model(name)
    seeds = [5, 6, 7]
    batched = run_batched(
        model, spec, [rng_from_seed(seed) for seed in seeds],
        record_history=True,
    )
    for seed, batched_run in zip(seeds, batched):
        reference = model.run(
            spec, seed=seed, engine="reference", record_history=True
        )
        assert batched_run.history == reference.history
        assert batched_run.final_pool_size == reference.final_pool_size
        assert (
            batched_run.trace.mutations_attempted
            == reference.trace.mutations_attempted
        )


def test_batched_independent_of_batch_composition():
    """A run's result never depends on which runs share its batch."""
    spec = _spec()
    model = create_model("CM-C")
    alone = run_batched(model, spec, [rng_from_seed(3)])[0]
    grouped = run_batched(
        model, spec, [rng_from_seed(seed) for seed in (1, 3, 8, 21)]
    )[1]
    assert alone.transactions == grouped.transactions
    assert alone.trace == grouped.trace


def test_batched_engine_override_resolution():
    """engine="batched" resolves per model class, and run() honors it."""
    spec = _spec(n_recipes=60)
    for name in PAPER_MODELS:
        model = create_model(name, engine="reference")
        assert model.resolve_engine("batched") == "batched"
        via_run = model.run(spec, seed=2, engine="batched")
        direct = run_batched(model, spec, [rng_from_seed(2)])[0]
        _assert_runs_identical(via_run, direct)


def test_batched_non_uniform_recipe_lengths():
    """Short rows must truncate per row, not pad to the widest one.

    Two ways rows fall short of the batch's row width: NM recipes drawn
    while the pool is still smaller than s̄, and CM-R recipes shrunk by
    duplicate collapse under ``duplicate_policy="allow"``.
    """
    spec = _spec(n_ingredients=30, n_recipes=120, avg_size=8.0, phi=0.4)
    cases = [
        ("NM", ModelParams(initial_pool_size=5)),
        ("CM-R", ModelParams(mutations=8, duplicate_policy="allow")),
    ]
    for name, params in cases:
        model = create_model(name, params=params)
        batched = run_batched(
            model, spec, [rng_from_seed(seed) for seed in (4, 11)]
        )[1]
        alone = model.run(spec, seed=11)
        lengths = {len(t) for t in batched.transactions}
        assert len(lengths) > 1, f"{name} did not produce mixed lengths"
        assert batched.transactions == alone.transactions


def test_batched_deterministic_per_seed():
    """Same generator seeds → bit-identical batched results."""
    spec = _spec()
    model = create_model("CM-M")
    first = run_batched(model, spec, [rng_from_seed(s) for s in (1, 2)])
    second = run_batched(model, spec, [rng_from_seed(s) for s in (1, 2)])
    for a, b in zip(first, second):
        assert a.transactions == b.transactions
        assert a.trace == b.trace
