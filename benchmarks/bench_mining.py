"""Bench ``mining``: the frequent-itemset fast path on a paper-scale ensemble.

Per-run mining is a large share of every ensemble aggregation.  This
bench times the ways an ensemble's rank-frequency curve can be
produced, on the paper protocol (ITA, 100 runs, support 0.05 at
``--scale 1.0``):

* ``bitset-serial`` — :func:`~repro.models.ensemble.ensemble_curve` on
  the serial backend: all runs of the cell mined in one run-stacked
  level-wise pass (:func:`~repro.analysis.itemsets.mine_frequencies`);
  the baseline the other modes are compared with;
* ``bitset-process`` — the same call on the process backend.  A single
  cell is one :func:`~repro.models.ensemble.mine_curve_task`, so this
  row measures the pickling round trip, not parallel speedup; grids
  spread one task per cell;
* ``per-run`` — the one-run case,
  :func:`~repro.analysis.itemsets.mine_frequent_itemsets`, looped over
  the runs and averaged: the same level-wise code one run at a time,
  which is how ensembles were mined before runs were stacked;
* ``warm-cache`` — a second aggregation served entirely from the
  mined-curve cache (zero mining calls), each run's curve keyed by the
  run's run-cache key.

All curves are verified bit-identical before any speedup is reported;
results go to ``BENCH_mining.json`` at the repo root.

Entry points:

* pytest (CI smoke; sized by ``REPRO_BENCH_SCALE``/``REPRO_BENCH_RUNS``)::

      PYTHONPATH=src python -m pytest benchmarks/bench_mining.py -q

* standalone — the full-scale run or the CI tripwire (``--fast
  --check`` exits 1 unless the stacked curve is bit-identical to the
  per-run one, every other mode agrees, and the warm pass is served
  entirely from the curve cache)::

      PYTHONPATH=src python benchmarks/bench_mining.py
      PYTHONPATH=src python benchmarks/bench_mining.py --fast --check
"""

from __future__ import annotations

import argparse
import os
import tempfile
import time

import numpy as np

from _results import smoke_write_enabled, write_bench_result
from repro.analysis.itemsets import mine_frequent_itemsets
from repro.analysis.rank_frequency import average_curves, curve_from_mining
from repro.config import MiningConfig
from repro.lexicon.builder import standard_lexicon
from repro.models.ensemble import ensemble_curve
from repro.models.params import CuisineSpec
from repro.models.registry import create_model
from repro.rng import rng_from_seed, spawn_seeds
from repro.runtime import (
    CurveCache,
    RuntimeConfig,
    execute_runs,
    fingerprint_many,
)
from repro.synthesis.worldgen import WorldKitchen


def _bench_spec(region: str, scale: float) -> CuisineSpec:
    lexicon = standard_lexicon()
    kitchen = WorldKitchen(lexicon, seed=20190408)
    dataset = kitchen.generate_dataset(region_codes=(region,), scale=scale)
    return CuisineSpec.from_view(dataset.cuisine(region), lexicon)


def run_mining_matrix(
    region: str = "ITA",
    scale: float = 1.0,
    n_runs: int = 100,
    min_support: float = 0.05,
    seed: int = 7,
    model_name: str = "CM-R",
) -> dict:
    """Time every mining mode on one ensemble; returns the result table."""
    spec = _bench_spec(region, scale)
    model = create_model(model_name)
    seeds = spawn_seeds(rng_from_seed(seed), n_runs)
    generate_start = time.perf_counter()
    runs = execute_runs(model, spec, seeds)
    generate_seconds = time.perf_counter() - generate_start

    modes: list[tuple[str, float]] = []
    curves: dict[str, np.ndarray] = {}

    bitset = MiningConfig(min_support=min_support)
    start = time.perf_counter()
    curves["bitset-serial"] = ensemble_curve(
        runs, model_name, mining=bitset
    ).frequencies
    modes.append(("bitset-serial", time.perf_counter() - start))

    process_runtime = RuntimeConfig(backend="process", jobs=0)
    jobs = process_runtime.resolve_jobs()
    start = time.perf_counter()
    curves["bitset-process"] = ensemble_curve(
        runs, model_name, mining=bitset, runtime=process_runtime
    ).frequencies
    modes.append(("bitset-process", time.perf_counter() - start))

    start = time.perf_counter()
    per_run = [
        curve_from_mining(
            mine_frequent_itemsets(run.transactions, min_support),
            f"{model_name}#{index}",
        )
        for index, run in enumerate(runs)
    ]
    curves["per-run"] = average_curves(per_run, model_name).frequencies
    modes.append(("per-run", time.perf_counter() - start))

    # Model curves are cached under their runs' run-cache keys.
    keys = fingerprint_many(model, spec, seeds)
    warm_hits = 0
    with tempfile.TemporaryDirectory() as cache_dir:
        fill_cache = CurveCache(cache_dir)
        ensemble_curve(
            runs, model_name, mining=bitset, keys=keys,
            curve_cache=fill_cache,
        )
        warm_cache = CurveCache(cache_dir)
        start = time.perf_counter()
        curves["warm-cache"] = ensemble_curve(
            runs, model_name, mining=bitset, keys=keys,
            curve_cache=warm_cache,
        ).frequencies
        modes.append(("warm-cache", time.perf_counter() - start))
        warm_hits = warm_cache.stats.hits

    reference = curves["bitset-serial"]
    per_run_identical = np.array_equal(reference, curves["per-run"])
    curves_identical = all(
        np.array_equal(reference, frequencies)
        for frequencies in curves.values()
    )
    seconds = dict(modes)
    rows = [
        {
            "mode": mode,
            "seconds": elapsed,
            "runs_per_second": n_runs / elapsed if elapsed > 0 else float("inf"),
            "speedup_vs_serial": (
                seconds["bitset-serial"] / elapsed if elapsed > 0 else float("inf")
            ),
        }
        for mode, elapsed in modes
    ]
    return {
        "region": region,
        "scale": scale,
        "n_runs": n_runs,
        "min_support": min_support,
        "seed": seed,
        "model": model_name,
        "spec": {
            "n_ingredients": spec.n_ingredients,
            "n_recipes": spec.n_recipes,
            "recipe_size": spec.recipe_size,
            "phi": spec.phi,
        },
        "generate_seconds": generate_seconds,
        "process_jobs": jobs,
        "curves_identical": curves_identical,
        "per_run_identical": per_run_identical,
        "warm_cache_hits": warm_hits,
        "process_speedup": seconds["bitset-serial"] / seconds["bitset-process"],
        "warm_speedup": seconds["bitset-serial"] / seconds["warm-cache"],
        "stacked_speedup": seconds["per-run"] / seconds["bitset-serial"],
        "rows": rows,
    }


def _render(result: dict) -> str:
    spec = result["spec"]
    lines = [
        f"mining fast path: {result['region']} @ scale {result['scale']} "
        f"(N={spec['n_recipes']}, s={spec['recipe_size']}), "
        f"{result['n_runs']} runs @ support {result['min_support']}; "
        f"curves identical: {result['curves_identical']}; "
        f"warm hits: {result['warm_cache_hits']}/{result['n_runs']}",
        f"{'mode':<16}{'seconds':>10}{'runs/s':>10}{'vs serial':>11}",
    ]
    for row in result["rows"]:
        lines.append(
            f"{row['mode']:<16}{row['seconds']:>10.3f}"
            f"{row['runs_per_second']:>10.1f}"
            f"{row['speedup_vs_serial']:>10.2f}x"
        )
    lines.append(
        f"stacked over per-run {result['stacked_speedup']:.2f}x, "
        f"process {result['process_speedup']:.2f}x "
        f"(jobs={result['process_jobs']}), "
        f"warm cache {result['warm_speedup']:.2f}x"
    )
    return "\n".join(lines)


def test_mining_throughput(benchmark):
    """Pytest entry: small ensemble, all modes, identity + warm hits.

    Sized by ``REPRO_BENCH_SCALE``/``REPRO_BENCH_RUNS`` like the other
    benches.  Asserts every mode's curve is bit-identical (the stacked
    one to the per-run one in particular) and that the warm pass is
    pure cache hits.
    """
    scale = float(os.environ.get("REPRO_BENCH_SCALE", "0.04"))
    n_runs = int(os.environ.get("REPRO_BENCH_RUNS", "8"))
    result = benchmark.pedantic(
        run_mining_matrix,
        kwargs={"region": "ITA", "scale": scale, "n_runs": n_runs},
        rounds=1,
        iterations=1,
    )
    print()
    print(_render(result))
    if smoke_write_enabled():
        write_bench_result("mining", result)
    assert result["per_run_identical"]
    assert result["curves_identical"]
    assert result["warm_cache_hits"] == n_runs


def main(argv: list[str] | None = None) -> int:
    """Standalone mining comparison."""
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--region", default="ITA")
    parser.add_argument("--scale", type=float, default=1.0,
                        help="corpus scale (default: 1.0, the paper sizes)")
    parser.add_argument("--runs", type=int, default=100,
                        help="ensemble runs to mine (paper: 100)")
    parser.add_argument("--min-support", type=float, default=0.05)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument(
        "--fast", action="store_true",
        help="smoke sizing (scale 0.05, 8 runs) for CI tripwires",
    )
    parser.add_argument(
        "--check", action="store_true",
        help=(
            "exit 1 unless the stacked curve is bit-identical to the "
            "per-run one, every mode agrees, and the warm pass is pure "
            "curve-cache hits"
        ),
    )
    args = parser.parse_args(argv)
    scale = 0.05 if args.fast else args.scale
    n_runs = 8 if args.fast else args.runs
    result = run_mining_matrix(
        region=args.region, scale=scale, n_runs=n_runs,
        min_support=args.min_support, seed=args.seed,
    )
    print(_render(result))
    # --fast is the CI tripwire; only full-size runs may replace the
    # committed artifact.
    if not args.fast or smoke_write_enabled():
        write_bench_result("mining", result)
    if not result["per_run_identical"]:
        print("FAIL: the stacked curve differs from per-run mining")
        return 1
    if not result["curves_identical"]:
        print("FAIL: mining modes disagree")
        return 1
    if args.check and result["warm_cache_hits"] != n_runs:
        print(
            f"FAIL: warm pass hit the curve cache "
            f"{result['warm_cache_hits']}/{n_runs} times"
        )
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
