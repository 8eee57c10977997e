"""Bench ``distributed``: the work-queue backend vs serial, cold and warm.

The distributed backend (DESIGN.md §8) pays a real coordination tax —
spool I/O, worker spawn, heartbeat polling — that only amortizes over
work that is expensive relative to a pickle round-trip.  This bench
times one ensemble four ways and pins the contract the backend must
keep:

* **cold serial** — baseline ``execute_runs`` into an empty cache;
* **cold distributed** — the same ensemble through two local workers,
  whose write-through puts must leave the shared cache fully populated,
  one entry per work item (the result rendezvous);
* **warm serial** / **warm distributed** — the same calls again, now
  served from disk.  The tripwire: on a warm cache the distributed
  backend must not fall behind serial, because a fully-hit sweep never
  spools a single task.

All four paths must stay bit-identical for the fixed master seed.

Two entry points:

* pytest (CI smoke)::

      PYTHONPATH=src python -m pytest benchmarks/bench_distributed.py -q

* standalone, e.g. the CI tripwire::

      PYTHONPATH=src python benchmarks/bench_distributed.py --fast --check
"""

from __future__ import annotations

import argparse
import os
import tempfile
import time
from pathlib import Path

from _results import smoke_write_enabled, write_bench_result
from repro.lexicon.builder import standard_lexicon
from repro.models.params import CuisineSpec
from repro.models.registry import create_model
from repro.rng import ensure_rng, spawn_seeds
from repro.runtime import (
    DistributedConfig,
    RunCache,
    RuntimeConfig,
    execute_runs,
)
from repro.runtime.runner import _plan_cell
from repro.synthesis.worldgen import WorldKitchen

# Warm-cache tripwire budget: a fully-hit distributed pass does no spool
# I/O, so it may cost at most the serial wall-clock times this slack
# plus a small absolute allowance for timer noise at smoke sizes.
WARM_SLACK = 3.0
WARM_NOISE_SECONDS = 0.75


def _bench_spec(scale: float) -> CuisineSpec:
    lexicon = standard_lexicon()
    kitchen = WorldKitchen(lexicon, seed=20190408)
    dataset = kitchen.generate_dataset(region_codes=("ITA",), scale=scale)
    return CuisineSpec.from_view(dataset.cuisine("ITA"), lexicon)


def _distributed_runtime(cache_dir: Path) -> RuntimeConfig:
    return RuntimeConfig(
        backend="distributed",
        jobs=2,
        cache_dir=cache_dir,
        distributed=DistributedConfig(
            local_workers=2,
            poll_interval=0.01,
            heartbeat_interval=0.1,
            lease_timeout=5.0,
            attach_deadline=60.0,
        ),
    )


def _timed(model, spec, seeds, runtime) -> tuple[float, list]:
    start = time.perf_counter()
    runs = execute_runs(model, spec, seeds, runtime=runtime)
    return time.perf_counter() - start, runs


def warm_budget(warm_serial: float) -> float:
    """Seconds a warm distributed pass may take before the check fails."""
    return warm_serial * WARM_SLACK + WARM_NOISE_SECONDS


def run_distributed_comparison(
    n_runs: int,
    scale: float,
    workdir: Path,
    model_name: str = "CM-R",
    seed: int = 7,
) -> dict:
    """Time one ensemble cold/warm through serial and distributed paths."""
    spec = _bench_spec(scale)
    model = create_model(model_name)
    seeds = spawn_seeds(ensure_rng(seed), n_runs)
    serial_cache = workdir / "serial-cache"
    dist_cache = workdir / "distributed-cache"
    serial_runtime = RuntimeConfig(cache_dir=serial_cache)
    dist_runtime = _distributed_runtime(dist_cache)

    cold_serial, serial_runs = _timed(model, spec, seeds, serial_runtime)
    cold_dist, dist_runs = _timed(model, spec, seeds, dist_runtime)
    warm_serial, warm_serial_runs = _timed(model, spec, seeds, serial_runtime)
    warm_dist, warm_dist_runs = _timed(model, spec, seeds, dist_runtime)

    def signature(runs):
        return [(run.transactions, run.final_pool_size) for run in runs]

    reference = signature(serial_runs)
    bit_identical = all(
        signature(runs) == reference
        for runs in (dist_runs, warm_serial_runs, warm_dist_runs)
    )
    # The rendezvous contract: workers themselves populated the cache,
    # one entry per work item (a batched ensemble is one item).
    n_items = len(_plan_cell(model, spec, seeds))
    workers_wrote_cache = len(RunCache(dist_cache)) == n_items
    rows = [
        {"mode": mode, "seconds": elapsed,
         "runs_per_second": n_runs / elapsed if elapsed > 0 else float("inf")}
        for mode, elapsed in (
            ("cold serial", cold_serial),
            ("cold distributed (2 workers)", cold_dist),
            ("warm serial", warm_serial),
            ("warm distributed (2 workers)", warm_dist),
        )
    ]
    return {
        "ensemble": f"{model_name} x {n_runs} runs (scale {scale})",
        "n_runs": n_runs,
        "cpu_count": os.cpu_count() or 1,
        "bit_identical": bit_identical,
        "workers_wrote_cache": workers_wrote_cache,
        "warm_serial_seconds": warm_serial,
        "warm_distributed_seconds": warm_dist,
        "warm_budget_seconds": warm_budget(warm_serial),
        "rows": rows,
    }


def _render(result: dict) -> str:
    lines = [
        f"distributed backend: {result['ensemble']} "
        f"({result['cpu_count']} cores); bit-identical: "
        f"{result['bit_identical']}; workers wrote cache: "
        f"{result['workers_wrote_cache']}",
        f"{'mode':<30}{'seconds':>10}{'runs/s':>10}",
    ]
    for row in result["rows"]:
        lines.append(
            f"{row['mode']:<30}{row['seconds']:>10.3f}"
            f"{row['runs_per_second']:>10.1f}"
        )
    lines.append(
        f"warm tripwire: {result['warm_distributed_seconds']:.3f}s vs "
        f"budget {result['warm_budget_seconds']:.3f}s"
    )
    return "\n".join(lines)


def _check(result: dict) -> str | None:
    """The --check predicate; returns a failure message or ``None``."""
    if not result["bit_identical"]:
        return "FAIL: distributed results diverge from serial"
    if not result["workers_wrote_cache"]:
        return "FAIL: workers did not populate the shared run cache"
    if result["warm_distributed_seconds"] > result["warm_budget_seconds"]:
        return (
            f"FAIL: warm distributed "
            f"{result['warm_distributed_seconds']:.3f}s fell behind the "
            f"warm-serial budget {result['warm_budget_seconds']:.3f}s"
        )
    return None


def test_distributed_warm_cache_keeps_pace(benchmark, tmp_path):
    """Pytest entry: cold/warm matrix plus the warm-cache tripwire."""
    n_runs = int(os.environ.get("REPRO_BENCH_RUNS", "8"))
    scale = float(os.environ.get("REPRO_BENCH_SCALE", "0.1"))
    result = benchmark.pedantic(
        run_distributed_comparison,
        args=(n_runs, scale, tmp_path),
        rounds=1,
        iterations=1,
    )
    print()
    print(_render(result))
    if smoke_write_enabled():
        write_bench_result("distributed", result)
    failure = _check(result)
    assert failure is None, failure


def main(argv: list[str] | None = None) -> int:
    """Standalone comparison (and the CI ``--fast --check`` tripwire)."""
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--runs", type=int, default=24,
                        help="runs in the ensemble (default: 24)")
    parser.add_argument("--scale", type=float, default=0.2)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument(
        "--fast", action="store_true",
        help="smoke sizing (scale 0.1, 8 runs) for CI tripwires",
    )
    parser.add_argument(
        "--check", action="store_true",
        help=(
            "exit 1 unless results are bit-identical, workers populated "
            "the cache, and warm distributed stays within the warm-serial "
            "budget"
        ),
    )
    args = parser.parse_args(argv)
    scale = 0.1 if args.fast else args.scale
    n_runs = 8 if args.fast else args.runs
    with tempfile.TemporaryDirectory(prefix="bench-distributed-") as tmp:
        result = run_distributed_comparison(
            n_runs, scale, Path(tmp), seed=args.seed
        )
    print(_render(result))
    # --fast is the CI tripwire; only full-size runs may replace the
    # committed acceptance artifact.
    if not args.fast or smoke_write_enabled():
        write_bench_result("distributed", result)
    failure = _check(result)
    if failure is not None:
        print(failure)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
