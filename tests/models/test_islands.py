"""Tests for the island-model migration engine (DESIGN.md §10)."""

from __future__ import annotations

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ModelError, ParameterError
from repro.lexicon.categories import Category
from repro.models.copy_mutate import CopyMutateCategory, CopyMutateRandom
from repro.models.islands import (
    ISLANDS_STREAM_VERSION,
    IslandSimulation,
    MigrationEdge,
    MigrationTopology,
    island_seed_streams,
)
from repro.models.null_model import NullModel
from repro.models.params import CuisineSpec


def _spec(code="A", n_ingredients=40, n_recipes=100, avg_recipe_size=6.0):
    categories = list(Category)[:4]
    return CuisineSpec(
        region_code=code,
        ingredient_ids=tuple(range(n_ingredients)),
        categories=tuple(categories[i % 4] for i in range(n_ingredients)),
        avg_recipe_size=avg_recipe_size,
        n_recipes=n_recipes,
        phi=n_ingredients / n_recipes,
    )


def _run_fields(run):
    """The comparable payload of a run (everything but the label)."""
    return (
        run.transactions,
        run.final_pool_size,
        run.initial_recipes,
        dataclasses.asdict(run.trace),
        run.history,
    )


# ---------------------------------------------------------------------------
# Topology
# ---------------------------------------------------------------------------


def test_ring_topology_edges():
    topology = MigrationTopology.ring(("A", "B", "C"), 0.1)
    pairs = {(e.donor, e.borrower) for e in topology.edges}
    assert pairs == {("A", "B"), ("B", "C"), ("C", "A")}


def test_bidirectional_ring_dedupes_two_islands():
    topology = MigrationTopology.ring(("A", "B"), 0.1, bidirectional=True)
    pairs = {(e.donor, e.borrower) for e in topology.edges}
    assert pairs == {("A", "B"), ("B", "A")}


def test_star_topology_edges():
    topology = MigrationTopology.star("H", ("A", "B"), 0.2)
    pairs = {(e.donor, e.borrower) for e in topology.edges}
    assert pairs == {("H", "A"), ("A", "H"), ("H", "B"), ("B", "H")}


def test_full_mesh_topology_edges():
    topology = MigrationTopology.full_mesh(("A", "B", "C"), 0.05)
    assert len(topology.edges) == 6
    assert all(e.rate == 0.05 for e in topology.edges)


def test_custom_topology_and_accessors():
    topology = MigrationTopology.custom(
        [("A", "B", 0.3), ("C", "B", 0.2), ("B", "A", 0.1)]
    )
    assert topology.codes() == {"A", "B", "C"}
    inbound_b = topology.inbound("B")
    assert [(e.donor, e.rate) for e in inbound_b] == [("A", 0.3), ("C", 0.2)]
    restricted = topology.restricted_to(["A", "B"])
    assert {(e.donor, e.borrower) for e in restricted.edges} == {
        ("A", "B"), ("B", "A")
    }


def test_topology_normalizes_edge_order():
    edges = [MigrationEdge("C", "B", 0.1), MigrationEdge("A", "B", 0.1)]
    assert (
        MigrationTopology(tuple(edges)).edges
        == MigrationTopology(tuple(reversed(edges))).edges
    )


def test_topology_validation():
    with pytest.raises(ParameterError):
        MigrationEdge("A", "A", 0.1)  # self-loop
    with pytest.raises(ParameterError):
        MigrationEdge("A", "B", 1.5)  # rate out of range
    with pytest.raises(ParameterError):
        MigrationTopology(
            (MigrationEdge("A", "B", 0.1), MigrationEdge("A", "B", 0.2))
        )  # duplicate pair
    with pytest.raises(ParameterError):
        MigrationTopology(
            (MigrationEdge("A", "C", 0.6), MigrationEdge("B", "C", 0.6))
        )  # inbound sum > 1
    with pytest.raises(ParameterError):
        MigrationTopology.ring(("A",), 0.1)
    with pytest.raises(ParameterError):
        MigrationTopology.star("H", (), 0.1)


# ---------------------------------------------------------------------------
# Simulation validation
# ---------------------------------------------------------------------------


def test_simulation_rejects_non_copy_mutate_inner():
    with pytest.raises(ModelError):
        IslandSimulation(NullModel(), [_spec("A")])


def test_simulation_rejects_duplicate_codes():
    with pytest.raises(ModelError):
        IslandSimulation(CopyMutateRandom(), [_spec("A"), _spec("A")])


def test_simulation_rejects_unknown_topology_codes():
    with pytest.raises(ModelError):
        IslandSimulation(
            CopyMutateRandom(),
            [_spec("A"), _spec("B")],
            MigrationTopology.custom([("A", "Z", 0.1)]),
        )


def test_simulation_rejects_unknown_import_policy():
    with pytest.raises(ParameterError):
        IslandSimulation(
            CopyMutateRandom(), [_spec("A")], import_policy="quarantine"
        )


# ---------------------------------------------------------------------------
# Determinism contract
# ---------------------------------------------------------------------------


def test_seed_streams_depend_only_on_master_and_code():
    assert island_seed_streams(7, "A") == island_seed_streams(7, "A")
    assert island_seed_streams(7, "A") != island_seed_streams(7, "B")
    assert island_seed_streams(7, "A") != island_seed_streams(8, "A")


def test_rate_zero_bit_identical_to_isolated_runs():
    """An island with zero inbound rate replays its dynamics stream
    exactly like an isolated reference-engine run of the same spec."""
    model = CopyMutateRandom()
    specs = [_spec("A"), _spec("B", n_recipes=60)]
    simulation = IslandSimulation(
        model, specs, MigrationTopology.full_mesh(("A", "B"), 0.0)
    )
    outcome = simulation.run(seed=42, record_history=True)
    assert sum(outcome.borrow_events.values()) == 0
    for spec in specs:
        dynamics_seed, _ = island_seed_streams(42, spec.region_code)
        isolated = model.run(
            spec, seed=dynamics_seed, record_history=True, engine="reference"
        )
        island_run = outcome.runs[spec.region_code]
        assert _run_fields(island_run) == _run_fields(isolated)


def test_borrows_only_along_edges():
    topology = MigrationTopology.custom([("A", "B", 0.5)])
    simulation = IslandSimulation(
        CopyMutateRandom(), [_spec("A"), _spec("B"), _spec("C")], topology
    )
    outcome = simulation.run(seed=9)
    assert outcome.borrow_events["A"] == 0
    assert outcome.borrow_events["C"] == 0
    assert outcome.borrow_events["B"] > 0
    assert set(outcome.edge_borrows) == {("A", "B")}


def test_removing_an_island_leaves_others_byte_identical():
    """Adding/removing islands must not perturb the others' streams:
    with migration only between A and B, dropping C changes nothing."""
    model = CopyMutateRandom()
    topology = MigrationTopology.custom([("A", "B", 0.3), ("B", "A", 0.3)])
    with_c = IslandSimulation(
        model, [_spec("A"), _spec("B"), _spec("C")], topology
    ).run(seed=13, record_history=True)
    without_c = IslandSimulation(
        model, [_spec("A"), _spec("B")], topology
    ).run(seed=13, record_history=True)
    for code in ("A", "B"):
        assert _run_fields(with_c.runs[code]) == _run_fields(
            without_c.runs[code]
        )
        assert with_c.pools[code] == without_c.pools[code]


def test_same_seed_reproduces_and_seeds_differ():
    simulation = IslandSimulation(
        CopyMutateRandom(),
        [_spec("A"), _spec("B")],
        MigrationTopology.full_mesh(("A", "B"), 0.2),
    )
    first = simulation.run(seed=21)
    second = simulation.run(seed=21)
    other = simulation.run(seed=22)
    assert _run_fields(first.runs["A"]) == _run_fields(second.runs["A"])
    assert _run_fields(first.runs["A"]) != _run_fields(other.runs["A"])


# ---------------------------------------------------------------------------
# Borrow semantics
# ---------------------------------------------------------------------------


def test_borrowing_happens_and_counts_agree():
    simulation = IslandSimulation(
        CopyMutateRandom(),
        [_spec("A"), _spec("B")],
        MigrationTopology.full_mesh(("A", "B"), 0.4),
    )
    outcome = simulation.run(seed=3)
    assert sum(outcome.borrow_events.values()) > 0
    for code, run in outcome.runs.items():
        assert run.trace.recipes_borrowed == outcome.borrow_events[code]
        assert run.model_name == "ISL(CM-R)"
    assert (
        sum(outcome.edge_borrows.values())
        == sum(outcome.borrow_events.values())
    )


def test_transactions_stay_inside_pool_under_migration():
    """The ∂-vs-φ invariant: every transaction is a subset of its
    island's final pool, adopt or filter policy alike."""
    spec_a = _spec("A", n_ingredients=30)
    spec_b = CuisineSpec(
        region_code="B",
        ingredient_ids=tuple(range(20, 60)),
        categories=tuple(list(Category)[:4][i % 4] for i in range(40)),
        avg_recipe_size=6.0,
        n_recipes=80,
        phi=0.5,
    )
    for policy in ("adopt", "filter"):
        simulation = IslandSimulation(
            CopyMutateRandom(),
            [spec_a, spec_b],
            MigrationTopology.full_mesh(("A", "B"), 0.3),
            import_policy=policy,
        )
        outcome = simulation.run(seed=17)
        assert sum(outcome.borrow_events.values()) > 0
        for code, run in outcome.runs.items():
            pool = set(outcome.pools[code])
            for transaction in run.transactions:
                assert set(transaction) <= pool


def test_tiny_pool_borrow_does_not_hang():
    """Regression: an early borrow-refill loop drew pool ingredients and
    rejected duplicates until the mother matched the donor recipe's
    length — an infinite spin whenever the borrower's pool held fewer
    distinct ingredients than the donor recipe was long.  Refills cap at
    the pool size and the mother truncates, so this completes."""
    categories = list(Category)[:4]
    tiny = CuisineSpec(
        region_code="TINY",
        ingredient_ids=tuple(range(4)),
        categories=tuple(categories[i % 4] for i in range(4)),
        avg_recipe_size=3.0,
        n_recipes=40,
        phi=0.8,  # n0 = round(20 / 0.8) = 25 < 40: real recipe steps
    )
    donor = _spec("BIG")  # 6-ingredient recipes
    simulation = IslandSimulation(
        CopyMutateRandom(),
        [tiny, donor],
        MigrationTopology.full_mesh(("TINY", "BIG"), 0.9),
    )
    outcome = simulation.run(seed=11)
    assert outcome.borrow_events["TINY"] > 0  # the hang path was exercised
    assert outcome.runs["TINY"].n_recipes == 40
    pool = set(outcome.pools["TINY"])
    assert len(pool) <= 4
    for transaction in outcome.runs["TINY"].transactions:
        # Truncated mothers never exceed the borrower's pool.
        assert set(transaction) <= pool


def test_borrowed_mothers_respect_pool_accounting():
    """Regression: an early exchange loop filtered borrowed mothers
    against the borrower's raw *universe*, so foreign-but-known
    ingredients entered transactions without ever joining the pool —
    breaking the transactions ⊆ pool invariant and the m/n bookkeeping.
    They route through ``adopt_ingredient`` and are counted in
    ``ingredients_added``."""
    categories = list(Category)[:4]
    spec_a = _spec("A", n_ingredients=30)
    spec_b = CuisineSpec(
        region_code="B",
        ingredient_ids=tuple(range(20, 60)),  # overlaps A on 20..29
        categories=tuple(categories[i % 4] for i in range(40)),
        avg_recipe_size=6.0,
        n_recipes=80,
        phi=0.5,
    )
    simulation = IslandSimulation(
        CopyMutateRandom(),
        [spec_a, spec_b],
        MigrationTopology.full_mesh(("A", "B"), 0.6),
    )
    outcome = simulation.run(seed=7)
    assert sum(outcome.borrow_events.values()) > 0
    for spec in (spec_a, spec_b):
        run = outcome.runs[spec.region_code]
        pool = set(outcome.pools[spec.region_code])
        for transaction in run.transactions:
            assert set(transaction) <= pool
        # Pool growth stays fully accounted: every ingredient beyond the
        # initial pool (min(20, universe)) was counted as added, whether
        # it arrived via ∂-growth or adoption from a borrowed mother.
        initial = min(20, spec.n_ingredients)
        assert run.final_pool_size == initial + run.trace.ingredients_added


def test_category_inner_model_runs():
    simulation = IslandSimulation(
        CopyMutateCategory(),
        [_spec("A"), _spec("B")],
        MigrationTopology.ring(("A", "B"), 0.2),
    )
    outcome = simulation.run(seed=5)
    assert outcome.runs["A"].n_recipes == 100
    assert outcome.runs["A"].model_name == "ISL(CM-C)"


# ---------------------------------------------------------------------------
# Member models
# ---------------------------------------------------------------------------


def test_member_model_matches_whole_archipelago():
    simulation = IslandSimulation(
        CopyMutateRandom(),
        [_spec("A"), _spec("B")],
        MigrationTopology.full_mesh(("A", "B"), 0.2),
    )
    outcome = simulation.run(seed=31)
    member = simulation.member("B")
    run = member.run(member.spec, seed=31)
    assert _run_fields(run) == _run_fields(outcome.runs["B"])


def test_member_model_contract_and_validation():
    simulation = IslandSimulation(CopyMutateRandom(), [_spec("A"), _spec("B")])
    member = simulation.member(0)
    assert member.resolve_engine("batched") == "reference"
    assert member.engine_contract() == {
        "engine": "islands",
        "stream_version": ISLANDS_STREAM_VERSION,
    }
    with pytest.raises(ModelError):
        member.run(_spec("C"), seed=0)  # foreign spec
    with pytest.raises(ModelError):
        simulation.member(5)
    with pytest.raises(ModelError):
        simulation.member("Z")


# ---------------------------------------------------------------------------
# Property test: random topologies never stall or overshoot
# ---------------------------------------------------------------------------


@st.composite
def _topologies(draw):
    codes = ("A", "B", "C", "D")[: draw(st.integers(2, 4))]
    pairs = [
        (donor, borrower)
        for donor in codes
        for borrower in codes
        if donor != borrower
    ]
    max_rate = 1.0 / (len(codes) - 1)
    edges = []
    for donor, borrower in pairs:
        if draw(st.booleans()):
            rate = draw(st.floats(0.0, max_rate, allow_nan=False))
            edges.append((donor, borrower, rate))
    return codes, MigrationTopology.custom(edges)


@settings(max_examples=15, deadline=None)
@given(data=_topologies(), seed=st.integers(0, 2**31 - 1))
def test_random_topologies_complete_exactly(data, seed):
    codes, topology = data
    specs = [
        _spec(code, n_ingredients=12, n_recipes=30, avg_recipe_size=4.0)
        for code in codes
    ]
    simulation = IslandSimulation(CopyMutateRandom(), specs, topology)
    outcome = simulation.run(seed=seed)
    for code in codes:
        run = outcome.runs[code]
        # No stall, and never more recipes than the target.
        assert run.n_recipes == 30
        pool = set(outcome.pools[code])
        for transaction in run.transactions:
            assert set(transaction) <= pool
