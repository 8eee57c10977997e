"""Batched-engine dispatch through the runtime (DESIGN.md §7).

The cell is the unit of dispatch: the planner turns a cell whose
engine resolves to ``"batched"`` into one :class:`BatchRequest`, which
is one run-cache entry, and each batch executes as one stacked pass.
The contract tested here:

* a batch is exactly one cell — other engines and unbatchable models
  plan plain per-run requests, and two cells never share a batch, even
  when built from the same objects;
* results are bit-identical to solo (batch-of-one) execution on every
  backend;
* a batch is cached as one entry, served whole or run whole, and its
  transaction planes pickle back as equal planes;
* :class:`~repro.transactions.TransactionPlane` honors the sequence
  protocol (len/index/slice/iterate/compare) both ways.
"""

from __future__ import annotations

import pickle

import pytest

from repro.errors import ModelError
from repro.models.batched import run_batched
from repro.models.extensions.variable_size import VariableSizeCopyMutate
from repro.models.registry import create_model
from repro.rng import ensure_rng, rng_from_seed, spawn_seeds
from repro.runtime import (
    BatchRequest,
    RunCache,
    RunRequest,
    RuntimeConfig,
    execute_runs,
    execute_sweep,
    plan_cells,
)
from repro.runtime import runner
from repro.runtime.runner import _plan_cell
from repro.transactions import TransactionPlane


def _signature(runs):
    return [(run.transactions, run.trace) for run in runs]


def _items(model, spec, seeds, engine="batched"):
    return [item for item, _keys in _plan_cell(model, spec, seeds, engine=engine)]


# ----------------------------------------------------------------------
# Planning
# ----------------------------------------------------------------------


def test_plan_work_groups_same_cell_runs(tiny_spec):
    model = create_model("CM-R")
    work = _items(model, tiny_spec, range(4))
    assert len(work) == 1
    (batch,) = work
    assert isinstance(batch, BatchRequest)
    assert batch.seeds == (0, 1, 2, 3)


def test_batch_of_one_equals_its_solo_run(tiny_spec):
    """A one-seed cell is still a batch, equal to its solo run."""
    model = create_model("CM-R")
    (item,) = _items(model, tiny_spec, [1])
    assert isinstance(item, BatchRequest)
    assert item.seeds == (1,)
    (run,) = runner.execute_batch(item)
    solo = runner.execute_request(
        RunRequest(model=model, spec=tiny_spec, seed=1, engine="batched")
    )
    assert _signature([run]) == _signature([solo])


def test_plan_work_respects_cell_boundaries(tiny_spec):
    cm_r, cm_c = create_model("CM-R"), create_model("CM-C")
    work = _items(cm_r, tiny_spec, range(2)) + _items(
        cm_c, tiny_spec, range(2)
    )
    assert len(work) == 2
    assert all(isinstance(item, BatchRequest) for item in work)
    assert [item.model.name for item in work] == ["CM-R", "CM-C"]


def test_plan_work_leaves_other_engines_alone(tiny_spec):
    model = create_model("CM-R")
    work = _items(model, tiny_spec, range(3), engine="reference")
    assert all(isinstance(item, RunRequest) for item in work)


def test_plan_work_degrades_unbatchable_models(tiny_spec):
    """CM-V resolves to reference, so its cells plan per-run requests."""
    model = VariableSizeCopyMutate()
    work = _items(model, tiny_spec, range(3))
    assert all(isinstance(item, RunRequest) for item in work)


def test_same_objects_in_two_cells_dispatch_as_two_batches(
    tiny_spec, monkeypatch
):
    """Two cells sharing model and spec objects stay two batches, so a
    cell's batch never depends on its neighbour."""
    model = create_model("CM-R")
    plan = plan_cells(
        [(model, tiny_spec), (model, tiny_spec)], n_runs=3, seed=4,
        engine="batched",
    )
    sizes = []
    execute_batch = runner.execute_batch

    def spy(batch):
        sizes.append(batch.seeds)
        return execute_batch(batch)

    monkeypatch.setattr(runner, "execute_batch", spy)
    result = execute_sweep(plan)
    assert sizes == [cell.seeds for cell in plan.cells]
    assert [len(cell_runs.runs) for cell_runs in result.cells] == [3, 3]


# ----------------------------------------------------------------------
# Dispatch equivalence
# ----------------------------------------------------------------------


def test_execute_runs_batched_equals_solo_runs(tiny_spec):
    model = create_model("CM-M")
    seeds = spawn_seeds(ensure_rng(7), 6)
    batched = execute_runs(model, tiny_spec, seeds, engine="batched")
    solo = [model.run(tiny_spec, seed=seed) for seed in seeds]
    assert _signature(batched) == _signature(solo)


@pytest.mark.parametrize("backend", ["process"])
def test_batched_bit_identical_across_backends(tiny_spec, backend):
    model = create_model("CM-C")
    seeds = spawn_seeds(ensure_rng(5), 4)
    serial = execute_runs(model, tiny_spec, seeds, engine="batched")
    parallel = execute_runs(
        model, tiny_spec, seeds, engine="batched",
        runtime=RuntimeConfig(backend=backend, jobs=2),
    )
    assert _signature(serial) == _signature(parallel)


def test_cm_v_dispatches_through_batched_request(tiny_spec):
    """engine="batched" on CM-V silently runs reference, per run."""
    model = VariableSizeCopyMutate()
    seeds = spawn_seeds(ensure_rng(3), 3)
    batched = execute_runs(model, tiny_spec, seeds, engine="batched")
    reference = execute_runs(model, tiny_spec, seeds, engine="reference")
    assert _signature(batched) == _signature(reference)


# ----------------------------------------------------------------------
# Cache interop
# ----------------------------------------------------------------------


def test_batched_cell_caches_as_one_entry(tiny_spec, tmp_path):
    cache = RunCache(tmp_path)
    model = create_model("CM-R")
    seeds = spawn_seeds(ensure_rng(1), 5)
    first = execute_runs(
        model, tiny_spec, seeds, cache=cache, engine="batched"
    )
    assert cache.stats.misses == 1 and cache.stats.stores == 1
    assert len(cache) == 1

    # Warm replay serves the whole batch from its one entry,
    # content-identical.
    second = execute_runs(
        model, tiny_spec, seeds, cache=cache, engine="batched"
    )
    assert cache.stats.hits == 1
    assert _signature(first) == _signature(second)
    # Planes round-trip through the cache as planes.
    assert all(
        type(run.transactions) is TransactionPlane for run in second
    )


def test_partly_cached_batched_cell_runs_whole(tiny_spec, tmp_path):
    """An entry serves only its own item: a batch holding two cached
    seeds among others misses and runs whole."""
    cache = RunCache(tmp_path)
    model = create_model("CM-R")
    seeds = spawn_seeds(ensure_rng(1), 6)
    execute_runs(
        model, tiny_spec, [seeds[1], seeds[4]], cache=cache,
        engine="batched",
    )
    runs = execute_runs(
        model, tiny_spec, seeds, cache=cache, engine="batched"
    )
    assert cache.stats.hits == 0 and cache.stats.stores == 2
    # Batch composition must not affect results: the runs equal an
    # uncached full-batch execution, and the small batch's runs equal
    # their places in it.
    uncached = execute_runs(model, tiny_spec, seeds, engine="batched")
    assert _signature(runs) == _signature(uncached)
    small = execute_runs(
        model, tiny_spec, [seeds[1], seeds[4]], cache=cache,
        engine="batched",
    )
    assert cache.stats.hits == 1
    assert _signature(small) == _signature([uncached[1], uncached[4]])


def test_batched_and_vectorized_keys_are_distinct(tiny_spec, tmp_path):
    """The retired ``"vectorized"`` engine name is refused before any
    cache lookup, so batched entries are never replayed under it."""
    cache = RunCache(tmp_path)
    model = create_model("CM-R")
    seeds = spawn_seeds(ensure_rng(2), 2)
    execute_runs(model, tiny_spec, seeds, cache=cache, engine="batched")
    with pytest.raises(ModelError, match="unknown engine"):
        execute_runs(model, tiny_spec, seeds, cache=cache, engine="vectorized")
    assert cache.stats.hits == 0
    assert cache.stats.stores == 1


# ----------------------------------------------------------------------
# TransactionPlane sequence protocol
# ----------------------------------------------------------------------


@pytest.fixture(scope="module")
def lazy_run(tiny_spec):
    model = create_model("CM-R")
    return run_batched(model, tiny_spec, [rng_from_seed(8)])[0]


def test_lazy_transactions_sequence_protocol(lazy_run):
    transactions = lazy_run.transactions
    assert isinstance(transactions, TransactionPlane)
    assert len(transactions) == 40
    assert isinstance(transactions[0], frozenset)
    assert transactions[-1] == transactions[len(transactions) - 1]
    assert transactions[3:6] == list(transactions)[3:6]
    assert bool(transactions)


def test_lazy_transactions_equality_both_directions(lazy_run):
    transactions = lazy_run.transactions
    eager = list(transactions)
    assert transactions == eager
    assert eager == transactions
    assert not transactions == eager[:-1]
    mutated = eager[:-1] + [frozenset({999})]
    assert transactions != mutated


def test_lazy_transactions_pickle_as_plane(lazy_run):
    transactions = lazy_run.transactions
    restored = pickle.loads(pickle.dumps(transactions))
    assert type(restored) is TransactionPlane
    assert restored == transactions
