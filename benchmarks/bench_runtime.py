"""Bench ``runtime``: ensemble throughput across executor backends.

Measures raw run-execution throughput (``execute_runs``, no mining) for
the serial and process backends, verifies the backends stay
bit-identical while racing, and reports runs/second plus speedup over
serial.

Two entry points:

* pytest (with the shared bench fixtures)::

      PYTHONPATH=src python -m pytest benchmarks/bench_runtime.py -q

* standalone, e.g. the acceptance check — a 100-run ensemble at
  ``--jobs 4``::

      PYTHONPATH=src python benchmarks/bench_runtime.py --runs 100 --jobs 4

The ≥2x process-backend speedup target only holds on multi-core hosts;
the pytest assertion is therefore gated on ``os.cpu_count()``.
"""

from __future__ import annotations

import argparse
import os
import time

from _results import smoke_write_enabled, write_bench_result
from repro.lexicon.builder import standard_lexicon
from repro.models.params import CuisineSpec
from repro.models.registry import create_model
from repro.rng import ensure_rng, spawn_seeds
from repro.runtime import RuntimeConfig, execute_runs
from repro.synthesis.worldgen import WorldKitchen

def _bench_spec(region: str = "ITA", scale: float = 0.05) -> CuisineSpec:
    lexicon = standard_lexicon()
    kitchen = WorldKitchen(lexicon, seed=20190408)
    dataset = kitchen.generate_dataset(region_codes=(region,), scale=scale)
    return CuisineSpec.from_view(dataset.cuisine(region), lexicon)


def _measure(model, spec, seeds, config: RuntimeConfig) -> tuple[float, list]:
    start = time.perf_counter()
    runs = execute_runs(model, spec, seeds, runtime=config)
    return time.perf_counter() - start, runs


def run_throughput_matrix(
    n_runs: int, jobs: int, region: str = "ITA", scale: float = 0.05,
    seed: int = 7,
) -> dict:
    """Time every backend on one ensemble; returns a result table."""
    spec = _bench_spec(region=region, scale=scale)
    model = create_model("CM-R")
    seeds = spawn_seeds(ensure_rng(seed), n_runs)
    configs = (
        RuntimeConfig(),
        RuntimeConfig(backend="process", jobs=jobs),
    )
    rows = []
    signatures = []
    serial_elapsed = None
    for config in configs:
        elapsed, runs = _measure(model, spec, seeds, config)
        if serial_elapsed is None:
            serial_elapsed = elapsed
        signatures.append([run.transactions for run in runs])
        rows.append(
            {
                "backend": config.backend,
                "jobs": config.resolve_jobs() if config.backend != "serial" else 1,
                "seconds": elapsed,
                "runs_per_second": n_runs / elapsed if elapsed > 0 else float("inf"),
                "speedup_vs_serial": serial_elapsed / elapsed if elapsed > 0 else float("inf"),
            }
        )
    return {
        "n_runs": n_runs,
        "region": region,
        "cpu_count": os.cpu_count() or 1,
        "bit_identical": all(sig == signatures[0] for sig in signatures[1:]),
        "rows": rows,
    }


def _render(result: dict) -> str:
    lines = [
        f"runtime throughput: {result['n_runs']}-run CM-R ensemble on "
        f"{result['region']} ({result['cpu_count']} cores); "
        f"bit-identical across backends: {result['bit_identical']}",
        f"{'backend':<10}{'jobs':>6}{'seconds':>10}{'runs/s':>10}{'speedup':>9}",
    ]
    for row in result["rows"]:
        lines.append(
            f"{row['backend']:<10}{row['jobs']:>6}"
            f"{row['seconds']:>10.3f}{row['runs_per_second']:>10.1f}"
            f"{row['speedup_vs_serial']:>8.2f}x"
        )
    return "\n".join(lines)


def test_runtime_throughput(benchmark):
    """Pytest entry: bench one parallel ensemble, verify determinism.

    Sized by the same knobs as the other benches (see
    ``benchmarks/conftest.py``): ``REPRO_BENCH_RUNS`` and
    ``REPRO_BENCH_SCALE``.
    """
    n_runs = int(os.environ.get("REPRO_BENCH_RUNS", "4"))
    scale = float(os.environ.get("REPRO_BENCH_SCALE", "0.04"))
    result = benchmark.pedantic(
        run_throughput_matrix,
        args=(n_runs, 4),
        kwargs={"scale": scale},
        rounds=1,
        iterations=1,
    )
    print()
    print(_render(result))
    if smoke_write_enabled():
        write_bench_result("runtime", result)
    assert result["bit_identical"]
    process_row = result["rows"][-1]
    assert process_row["backend"] == "process"
    # The speedup claim needs real cores; assert only where it can hold.
    if result["cpu_count"] >= 4 and n_runs >= 20:
        assert process_row["speedup_vs_serial"] >= 2.0


def main(argv: list[str] | None = None) -> int:
    """Standalone throughput report (the acceptance-criterion runner)."""
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--runs", type=int, default=100,
                        help="ensemble size (default: 100)")
    parser.add_argument("--jobs", type=int, default=4,
                        help="workers for parallel backends (default: 4)")
    parser.add_argument("--region", default="ITA")
    parser.add_argument("--scale", type=float, default=0.05)
    parser.add_argument("--seed", type=int, default=7)
    args = parser.parse_args(argv)
    result = run_throughput_matrix(
        args.runs, args.jobs, region=args.region, scale=args.scale,
        seed=args.seed,
    )
    print(_render(result))
    write_bench_result("runtime", result)
    return 0 if result["bit_identical"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
