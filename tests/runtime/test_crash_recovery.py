"""A process-backend worker killed partway through a reduced sweep.

A reduced sweep (fig4's path) writes each cell's runs through to the
run cache in the worker that ran them, before it reduces the cell.  So
a worker that dies mid-sweep loses only the cells in flight, and
rerunning the same sweep from the same cache directory gives what an
uninterrupted run gives (DESIGN.md §9).

The fault is real: the reducer kills its own worker with ``os._exit``
(no unwind) on the first JPN cell it reaches, after leaving a marker
file naming its pid and the cell's model.  A rerun sees the marker and
reduces normally.
Only facts no scheduling race can change are asserted: the pool
breaks, the marker names a worker and not this process, the rerun
equals a cacheless serial sweep bit for bit, and the rerun serves the
dying cell's runs, which its worker cached before it died.
"""

from __future__ import annotations

import os
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import pytest

from repro.config import MiningConfig
from repro.experiments.fig4 import CellCurve
from repro.models.params import CuisineSpec
from repro.models.registry import create_model
from repro.runtime import RuntimeConfig, execute_sweep, plan_grid
from repro.synthesis.worldgen import WorldKitchen

#: Exit code of the killed worker.
KILLED = 97


@dataclass(frozen=True)
class _DieOnFirstJPN:
    """Reduce a cell to its mined curve, but kill the worker that
    reaches the first JPN cell while ``marker`` does not exist yet,
    leaving the worker's pid and the cell's model in ``marker``."""

    marker: str
    mining: MiningConfig

    def __call__(self, cell, runs, keys):
        if cell.spec.region_code == "JPN":
            try:
                with open(self.marker, "x") as handle:
                    handle.write(f"{os.getpid()} {cell.model_name}")
            except FileExistsError:
                pass
            else:
                os._exit(KILLED)
        return CellCurve(self.mining)(cell, runs, keys)


@pytest.fixture(scope="module")
def plan(lexicon):
    dataset = WorldKitchen(lexicon, seed=9).generate_dataset(
        region_codes=("KOR", "JPN"), scale=0.03
    )
    specs = [
        CuisineSpec.from_view(dataset.cuisine(code), lexicon)
        for code in ("KOR", "JPN")
    ]
    models = [create_model(name) for name in ("CM-R", "NM")]
    return plan_grid(models, specs, n_runs=4, seed=11)


def _curves(result) -> list[tuple[str, bytes]]:
    return [
        (cell.reduction.label, np.asarray(cell.reduction.frequencies).tobytes())
        for cell in result.cells
    ]


def test_rerun_after_a_worker_dies_equals_an_uninterrupted_sweep(
    plan, tmp_path
):
    mining = MiningConfig(min_support=0.05)
    marker = tmp_path / "died.pid"
    reduce = _DieOnFirstJPN(str(marker), mining)
    runtime = RuntimeConfig(
        backend="process", jobs=2, cache_dir=tmp_path / "cache"
    )

    with pytest.raises(BrokenProcessPool):
        execute_sweep(plan, runtime=runtime, reduce=reduce)
    # The fault fired, and in a worker.
    pid, model_name = Path(marker).read_text().split()
    assert int(pid) != os.getpid()

    rerun = execute_sweep(plan, runtime=runtime, reduce=reduce)
    expected = execute_sweep(
        plan, runtime=RuntimeConfig(), reduce=CellCurve(mining)
    )
    assert expected.cached == 0
    assert _curves(rerun) == _curves(expected)
    # The dying worker cached its cell's runs before it reduced.
    (died,) = [
        cell for cell in rerun.cells
        if (cell.cell.model_name, cell.cell.spec.region_code)
        == (model_name, "JPN")
    ]
    assert died.cached == died.cell.n_runs
