"""Bench checkpointing: snapshot overhead on a serial ensemble.

Crash-consistent checkpointing (DESIGN.md §9) buys bounded re-work on a
mid-run death, and its price is the periodic snapshot: pickling the
engine's full state planes plus a durable write (the snapshot fsynced,
atomically renamed, then its directory fsynced), every
``checkpoint_every`` steps.  This bench times one ensemble three ways
and pins the contract the feature must keep:

* **plain** — baseline ``execute_runs`` into a cache, snapshots off;
* **every=500** — a realistic snapshot period (engine steps are
  micro-steps — thousands per run even at smoke scale — so a useful
  period is hundreds of them); the tripwire mode;
* **every=50** — ten times denser, showing how the overhead scales.

All three must stay bit-identical for the fixed master seed (a
checkpointed run takes the exact same RNG draws), and a completed run
must leave **zero** snapshots behind — ``finished()`` discards them.

Two entry points:

* pytest (CI smoke)::

      PYTHONPATH=src python -m pytest benchmarks/bench_checkpoint.py -q

* standalone, e.g. the CI tripwire::

      PYTHONPATH=src python benchmarks/bench_checkpoint.py --fast --check
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
from repro.runtime import RuntimeConfig, execute_runs
from repro.synthesis.worldgen import WorldKitchen

# Overhead tripwire budget: the every=500 checkpointed pass may cost
# at most the plain wall-clock times this slack, plus a small absolute
# allowance for timer noise at smoke sizes.
CHECKPOINT_SLACK = 3.0
CHECKPOINT_NOISE_SECONDS = 0.75

#: The snapshot period the tripwire judges (a realistic setting: a
#: handful of snapshots per run, not one per micro-step).
TRIPWIRE_EVERY = 500


def _bench_spec(scale: float) -> CuisineSpec:
    lexicon = standard_lexicon()
    kitchen = WorldKitchen(lexicon, seed=20190408)
    dataset = kitchen.generate_dataset(region_codes=("ITA",), scale=scale)
    return CuisineSpec.from_view(dataset.cuisine("ITA"), lexicon)


def _timed(model, spec, seeds, runtime) -> tuple[float, list]:
    start = time.perf_counter()
    runs = execute_runs(model, spec, seeds, runtime=runtime)
    return time.perf_counter() - start, runs


def checkpoint_budget(plain_seconds: float) -> float:
    """Seconds the tripwire checkpointed pass may take before failing."""
    return plain_seconds * CHECKPOINT_SLACK + CHECKPOINT_NOISE_SECONDS


def run_checkpoint_comparison(
    n_runs: int,
    scale: float,
    workdir: Path,
    model_name: str = "CM-R",
    seed: int = 7,
) -> dict:
    """Time one ensemble plain vs checkpointed at two snapshot periods."""
    spec = _bench_spec(scale)
    model = create_model(model_name)
    seeds = spawn_seeds(ensure_rng(seed), n_runs)

    modes: list[tuple[str, int | None]] = [
        ("plain", None),
        (f"every={TRIPWIRE_EVERY}", TRIPWIRE_EVERY),
        ("every=50", 50),
    ]
    timings: dict[str, float] = {}
    signatures: dict[str, list] = {}
    leftover_snapshots: dict[str, int] = {}
    for label, every in modes:
        cache_dir = workdir / f"cache-{label.replace('=', '-')}"
        runtime = RuntimeConfig(cache_dir=cache_dir, checkpoint_every=every)
        elapsed, runs = _timed(model, spec, seeds, runtime)
        timings[label] = elapsed
        signatures[label] = [
            (run.transactions, run.final_pool_size) for run in runs
        ]
        leftover_snapshots[label] = len(list(cache_dir.glob("*.ckpt.pkl")))

    reference = signatures["plain"]
    bit_identical = all(sig == reference for sig in signatures.values())
    snapshots_discarded = all(
        count == 0 for count in leftover_snapshots.values()
    )
    plain = timings["plain"]
    tripwire = timings[f"every={TRIPWIRE_EVERY}"]
    rows = [
        {
            "mode": label,
            "seconds": timings[label],
            "overhead": timings[label] / plain if plain > 0 else 1.0,
            "runs_per_second": (
                n_runs / timings[label]
                if timings[label] > 0
                else float("inf")
            ),
        }
        for label, _every in modes
    ]
    return {
        "ensemble": f"{model_name} x {n_runs} runs (scale {scale})",
        "n_runs": n_runs,
        "cpu_count": os.cpu_count() or 1,
        "bit_identical": bit_identical,
        "snapshots_discarded": snapshots_discarded,
        "plain_seconds": plain,
        "checkpointed_seconds": tripwire,
        "checkpoint_budget_seconds": checkpoint_budget(plain),
        "rows": rows,
    }


def _render(result: dict) -> str:
    lines = [
        f"checkpointing: {result['ensemble']} "
        f"({result['cpu_count']} cores); bit-identical: "
        f"{result['bit_identical']}; snapshots discarded: "
        f"{result['snapshots_discarded']}",
        f"{'mode':<16}{'seconds':>10}{'overhead':>10}{'runs/s':>10}",
    ]
    for row in result["rows"]:
        lines.append(
            f"{row['mode']:<16}{row['seconds']:>10.3f}"
            f"{row['overhead']:>9.2f}x{row['runs_per_second']:>10.1f}"
        )
    lines.append(
        f"overhead tripwire: {result['checkpointed_seconds']:.3f}s vs "
        f"budget {result['checkpoint_budget_seconds']:.3f}s"
    )
    return "\n".join(lines)


def _check(result: dict) -> str | None:
    """The --check predicate; returns a failure message or ``None``."""
    if not result["bit_identical"]:
        return "FAIL: checkpointed results diverge from plain"
    if not result["snapshots_discarded"]:
        return "FAIL: completed runs left snapshots behind"
    if result["checkpointed_seconds"] > result["checkpoint_budget_seconds"]:
        return (
            f"FAIL: checkpointed pass "
            f"{result['checkpointed_seconds']:.3f}s exceeded the plain "
            f"budget {result['checkpoint_budget_seconds']:.3f}s"
        )
    return None


def test_checkpoint_overhead_stays_bounded(benchmark, tmp_path):
    """Pytest entry: overhead matrix plus the snapshot tripwire."""
    n_runs = int(os.environ.get("REPRO_BENCH_RUNS", "8"))
    scale = float(os.environ.get("REPRO_BENCH_SCALE", "0.1"))
    result = benchmark.pedantic(
        run_checkpoint_comparison,
        args=(n_runs, scale, tmp_path),
        rounds=1,
        iterations=1,
    )
    print()
    print(_render(result))
    if smoke_write_enabled():
        write_bench_result("checkpoint", result)
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
            "exit 1 unless results are bit-identical, completed runs "
            "discarded their snapshots, and the every=500 pass stays "
            "within the plain-run budget"
        ),
    )
    args = parser.parse_args(argv)
    scale = 0.1 if args.fast else args.scale
    n_runs = 8 if args.fast else args.runs
    with tempfile.TemporaryDirectory(prefix="bench-checkpoint-") as tmp:
        result = run_checkpoint_comparison(
            n_runs, scale, Path(tmp), seed=args.seed
        )
    print(_render(result))
    # --fast is the CI tripwire; only full-size runs may replace the
    # committed acceptance artifact.
    if not args.fast or smoke_write_enabled():
        write_bench_result("checkpoint", result)
    failure = _check(result)
    if failure is not None:
        print(failure)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
