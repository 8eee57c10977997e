"""Bench ``sweep``: end-to-end grid wall-clock vs the serial baseline.

The paper's headline protocol aggregates 100-run ensembles over the full
4-models × 25-cuisines grid.  This bench times that grid (at bench
scale) three ways:

* **serial per-cell** — the pre-sweep baseline: one ``execute_runs``
  call per (model, cuisine) cell, serial backend;
* **per-cell process** — parallel within each cell, but cells still walk
  serially (workers idle while each small ensemble drains);
* **sharded sweep** — the whole grid, cell by cell, through
  :func:`repro.runtime.sweep.execute_sweep` in one process-backend pass.

and verifies all three stay bit-identical for the fixed master seed.

Two entry points:

* pytest (CI smoke)::

      PYTHONPATH=src python -m pytest benchmarks/bench_sweep.py -q

* standalone, e.g. the full-grid acceptance run::

      PYTHONPATH=src python benchmarks/bench_sweep.py --runs 100 --jobs 8
"""

from __future__ import annotations

import argparse
import os
import time

from _results import smoke_write_enabled, write_bench_result
from repro.lexicon.builder import standard_lexicon
from repro.models.params import CuisineSpec
from repro.models.registry import PAPER_MODELS, create_model
from repro.rng import ensure_rng, spawn_seeds
from repro.runtime import (
    RuntimeConfig,
    execute_runs,
    execute_sweep,
    plan_grid,
)
from repro.synthesis.worldgen import WorldKitchen


def _grid_specs(
    region_codes: tuple[str, ...] | None, scale: float
) -> list[CuisineSpec]:
    lexicon = standard_lexicon()
    kitchen = WorldKitchen(lexicon, seed=20190408)
    dataset = kitchen.generate_dataset(region_codes=region_codes, scale=scale)
    return [
        CuisineSpec.from_view(dataset.cuisine(code), lexicon)
        for code in dataset.region_codes()
    ]


def _per_cell_baseline(
    models, specs, n_runs: int, seed: int, config: RuntimeConfig
) -> tuple[float, list]:
    """The pre-sweep path: one execute_runs call per grid cell."""
    root = ensure_rng(seed)
    start = time.perf_counter()
    cells = []
    for spec in specs:
        for model in models:
            cells.append(
                execute_runs(
                    model, spec, spawn_seeds(root, n_runs), runtime=config
                )
            )
    return time.perf_counter() - start, cells


def run_grid_comparison(
    n_runs: int,
    jobs: int,
    region_codes: tuple[str, ...] | None = None,
    model_names: tuple[str, ...] = PAPER_MODELS,
    scale: float = 0.04,
    seed: int = 7,
) -> dict:
    """Time the grid serially, per-cell parallel, and as a sharded sweep."""
    specs = _grid_specs(region_codes, scale)
    models = [create_model(name) for name in model_names]
    process = RuntimeConfig(backend="process", jobs=jobs)

    serial_elapsed, serial_cells = _per_cell_baseline(
        models, specs, n_runs, seed, RuntimeConfig()
    )
    per_cell_elapsed, per_cell_cells = _per_cell_baseline(
        models, specs, n_runs, seed, process
    )
    plan = plan_grid(models, specs, n_runs=n_runs, seed=seed)
    start = time.perf_counter()
    sweep = execute_sweep(plan, runtime=process)
    sweep_elapsed = time.perf_counter() - start

    def signatures(cells):
        return [[run.transactions for run in cell] for cell in cells]

    reference = signatures(serial_cells)
    bit_identical = (
        signatures(per_cell_cells) == reference
        and signatures(cell.runs for cell in sweep.cells) == reference
    )
    total_runs = plan.total_runs
    rows = [
        {"mode": mode, "seconds": elapsed,
         "runs_per_second": total_runs / elapsed if elapsed > 0 else float("inf"),
         "speedup_vs_serial": serial_elapsed / elapsed if elapsed > 0 else float("inf")}
        for mode, elapsed in (
            ("serial per-cell", serial_elapsed),
            (f"process per-cell (jobs={jobs})", per_cell_elapsed),
            (f"sharded sweep (jobs={jobs})", sweep_elapsed),
        )
    ]
    return {
        "grid": f"{len(model_names)} models x {len(specs)} cuisines x "
                f"{n_runs} runs",
        "total_runs": total_runs,
        "cpu_count": os.cpu_count() or 1,
        "bit_identical": bit_identical,
        "rows": rows,
    }


def _render(result: dict) -> str:
    lines = [
        f"grid sweep: {result['grid']} = {result['total_runs']} runs "
        f"({result['cpu_count']} cores); bit-identical across paths: "
        f"{result['bit_identical']}",
        f"{'mode':<28}{'seconds':>10}{'runs/s':>10}{'speedup':>9}",
    ]
    for row in result["rows"]:
        lines.append(
            f"{row['mode']:<28}{row['seconds']:>10.3f}"
            f"{row['runs_per_second']:>10.1f}"
            f"{row['speedup_vs_serial']:>8.2f}x"
        )
    return "\n".join(lines)


def test_grid_sweep_throughput(benchmark):
    """Pytest entry: a small grid, all three paths, determinism verified.

    Sized by ``REPRO_BENCH_RUNS`` / ``REPRO_BENCH_SCALE`` like the other
    benches; the default keeps CI smoke under a minute.
    """
    n_runs = int(os.environ.get("REPRO_BENCH_RUNS", "3"))
    scale = float(os.environ.get("REPRO_BENCH_SCALE", "0.04"))
    result = benchmark.pedantic(
        run_grid_comparison,
        args=(n_runs, 4),
        kwargs={"region_codes": ("ITA", "GRC", "KOR"), "scale": scale},
        rounds=1,
        iterations=1,
    )
    print()
    print(_render(result))
    if smoke_write_enabled():
        write_bench_result("sweep", result)
    assert result["bit_identical"]
    sweep_row = result["rows"][-1]
    assert sweep_row["mode"].startswith("sharded sweep")
    # The grid-level speedup claim needs real cores and real work.
    if result["cpu_count"] >= 4 and n_runs >= 20:
        assert sweep_row["speedup_vs_serial"] >= 2.0


def main(argv: list[str] | None = None) -> int:
    """Standalone grid comparison (the acceptance-criterion runner)."""
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--runs", type=int, default=25,
                        help="runs per (model, cuisine) cell (default: 25)")
    parser.add_argument("--jobs", type=int, default=0,
                        help="workers for parallel paths; 0 = all cores")
    parser.add_argument("--regions", nargs="*", default=None,
                        help="region codes (default: all 25)")
    parser.add_argument("--scale", type=float, default=0.04)
    parser.add_argument("--seed", type=int, default=7)
    args = parser.parse_args(argv)
    result = run_grid_comparison(
        args.runs,
        args.jobs,
        region_codes=tuple(args.regions) if args.regions else None,
        scale=args.scale,
        seed=args.seed,
    )
    print(_render(result))
    write_bench_result("sweep", result)
    return 0 if result["bit_identical"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
