"""Island ensembles through the runtime: planning, caching, backends.

The §10 dispatch contract: member runs are pure functions of
``(simulation, member, seed)``, so every backend produces bit-identical
results, cache hits may shrink an archipelago item without changing
any run, and the members of one master seed dispatch as a single
archipelago execution.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.lexicon.categories import Category
from repro.models.copy_mutate import CopyMutateRandom
from repro.models.islands import (
    IslandSimulation,
    MigrationTopology,
    run_island_ensemble,
)
from repro.models.params import CuisineSpec
from repro.runtime import (
    ArchipelagoRequest,
    RunCache,
    RunRequest,
    RuntimeConfig,
    fingerprint_many,
)
from repro.runtime import runner
from repro.runtime.runner import _shrink

_CATEGORIES = (Category.VEGETABLE, Category.SPICE, Category.DAIRY)


def _spec(code, n_ingredients=24, n_recipes=30):
    return CuisineSpec(
        region_code=code,
        ingredient_ids=tuple(range(n_ingredients)),
        categories=tuple(_CATEGORIES[i % 3] for i in range(n_ingredients)),
        avg_recipe_size=4.0,
        n_recipes=n_recipes,
        phi=n_ingredients / n_recipes,
    )


def _simulation(rate=0.2):
    codes = ("A", "B", "C")
    return IslandSimulation(
        CopyMutateRandom(),
        [_spec(code) for code in codes],
        MigrationTopology.full_mesh(codes, rate),
    )


def _payload(run):
    return (
        run.region_code,
        run.transactions,
        run.final_pool_size,
        dataclasses.asdict(run.trace),
    )


def _ensemble_payload(result):
    return {
        code: tuple(_payload(run) for run in runs)
        for code, runs in result.runs.items()
    }


# ---------------------------------------------------------------------------
# Planning
# ---------------------------------------------------------------------------


def test_plan_work_folds_members_into_archipelagos(monkeypatch):
    """One archipelago item per master seed, carrying every member."""
    simulation = _simulation()
    dispatched = []
    execute_work = runner._execute_work

    def spy(item):
        dispatched.append(item)
        return execute_work(item)

    monkeypatch.setattr(runner, "_execute_work", spy)
    result = run_island_ensemble(simulation, 2, seed=101)
    assert len(dispatched) == 2
    for item, seed in zip(dispatched, result.seeds):
        assert isinstance(item, ArchipelagoRequest)
        assert item.simulation is simulation
        assert item.members == (0, 1, 2)
        assert item.seed == seed


def _archipelago(simulation, seed):
    return ArchipelagoRequest(
        simulation=simulation, members=(0, 1, 2), seed=seed
    )


def test_plan_work_folds_across_cache_gaps():
    """A cache hit in the middle of an archipelago shrinks it to the
    remaining members, still one execution."""
    item = _shrink(_archipelago(_simulation(), 7), [0, 2])  # 1 is cached
    assert isinstance(item, ArchipelagoRequest)
    assert item.members == (0, 2)


def test_plan_work_keeps_lone_member_single():
    item = _shrink(_archipelago(_simulation(), 7), [1])
    assert isinstance(item, RunRequest)
    assert item.model.member_index == 1
    assert item.spec == item.model.spec
    assert item.seed == 7


def test_grouped_equals_ungrouped_member_runs():
    simulation = _simulation()
    members = simulation.members()
    grouped = simulation.run_members([0, 1, 2], seed=55)
    for index, member in enumerate(members):
        solo = member.run(member.spec, seed=55)
        assert _payload(solo) == _payload(grouped[index])


# ---------------------------------------------------------------------------
# Backends
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("backend", ["process"])
def test_backends_bit_identical_to_serial(backend):
    simulation = _simulation()
    serial = run_island_ensemble(
        simulation, 3, seed=99, runtime=RuntimeConfig(backend="serial")
    )
    other = run_island_ensemble(
        simulation, 3, seed=99,
        runtime=RuntimeConfig(backend=backend, jobs=2),
    )
    assert serial.seeds == other.seeds
    assert _ensemble_payload(serial) == _ensemble_payload(other)


# ---------------------------------------------------------------------------
# Caching
# ---------------------------------------------------------------------------


def test_ensemble_caches_member_runs(tmp_path):
    simulation = _simulation()
    config = RuntimeConfig(cache_dir=tmp_path)
    first = run_island_ensemble(simulation, 2, seed=77, runtime=config)
    assert first.executed == 2 * 3  # every member of every archipelago
    second = run_island_ensemble(simulation, 2, seed=77, runtime=config)
    assert second.executed == 0
    assert _ensemble_payload(first) == _ensemble_payload(second)


def test_ensemble_reports_the_member_keys_it_cached_under(tmp_path):
    """The keys an island ensemble hands on (they key the runs' mined
    curves) are the run-cache keys of its member runs."""
    simulation = _simulation()
    result = run_island_ensemble(
        simulation, 2, seed=77, runtime=RuntimeConfig(cache_dir=tmp_path)
    )
    cache = RunCache(tmp_path)
    for member, code in zip(simulation.members(), result.codes):
        keys = fingerprint_many(member, member.spec, result.seeds)
        assert result.keys[code] == tuple(keys)
        assert all(cache.get(key) is not None for key in keys)
    assert run_island_ensemble(simulation, 1, seed=77).keys is None


def test_partial_cache_hits_never_change_results(tmp_path):
    """Warming a single member's cache splits its archipelago group on
    the next ensemble; results must stay bit-identical anyway."""
    simulation = _simulation()
    cold = run_island_ensemble(simulation, 2, seed=77)
    cache = RunCache(tmp_path)
    member = simulation.member(1)
    warm_seed = cold.seeds[0]
    key = fingerprint_many(member, member.spec, [warm_seed], False, None)[0]
    cache.put(key, member.run(member.spec, seed=warm_seed))
    warmed = run_island_ensemble(
        simulation, 2, seed=77, runtime=RuntimeConfig(), cache=cache
    )
    assert warmed.executed == 2 * 3 - 1
    assert _ensemble_payload(cold) == _ensemble_payload(warmed)


def test_member_cache_keys_distinguish_members_and_topology(tmp_path):
    simulation = _simulation()
    other_topology = IslandSimulation(
        CopyMutateRandom(),
        [_spec(code) for code in ("A", "B", "C")],
        MigrationTopology.ring(("A", "B", "C"), 0.2),
    )
    keys = {
        fingerprint_many(member, member.spec, [5], False, None)[0]
        for member in (*simulation.members(), *other_topology.members())
    }
    assert len(keys) == 6  # member index and topology both key

    plain = CopyMutateRandom()
    member = simulation.member(0)
    plain_key = fingerprint_many(plain, member.spec, [5], False, None)[0]
    assert plain_key not in keys  # islands never collide with plain runs
