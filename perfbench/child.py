"""One fig4 invocation at paper protocol, in the interpreter the driver spawned.

Builds the KOR+JPN corpus at scale 1.0, runs
``repro.experiments.fig4.run_fig4`` (CM-R, CM-C, CM-M, NM; 100 runs per
cell; support 0.05; ingredient level; batched engine) and writes one JSON
object of measurements to ``--result``.  ``--setup-only`` stops before the
``run_fig4`` call, which samples set-up time alone.  ``--trace`` installs
the per-layer spans of :mod:`tracing` first.

The driver (``run.py``) puts the checkout's ``src`` on ``PYTHONPATH`` and
passes ``--spawned-at``, its ``time.monotonic()`` just before the spawn,
so set-up time covers interpreter start and imports too.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import time
from pathlib import Path

REGIONS = ("KOR", "JPN")
SCALE = 1.0
RUNS_PER_CELL = 100
MIN_SUPPORT = 0.05
MINING_ALGORITHM = "bitset"  # the CLI's default miner
ENGINE = "batched"
MIB = 1024 * 1024
DIGEST_DIGITS = 9


def _cpu_seconds() -> float:
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


def _tree_bytes(directory: Path | None) -> int:
    if directory is None or not directory.exists():
        return 0
    return sum(path.stat().st_size for path in directory.iterdir())


def _rounded(value):
    if isinstance(value, float):
        return float(f"{value:.{DIGEST_DIGITS}g}")
    if isinstance(value, dict):
        return {key: _rounded(item) for key, item in value.items()}
    return value


def digest(payload: dict) -> str:
    """SHA-256 of the payload with its floats cut to ``DIGEST_DIGITS``.

    Rounding keeps the digest of a change that only reorders float
    arithmetic (a different summation order, say) equal to its parent's.
    """
    text = json.dumps(_rounded(payload), sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


def paper_shape_holds(result) -> bool:
    """Every CM beats NM on every cuisine, and NM/CM separation exceeds 2."""
    for evaluation in result.evaluations.values():
        null = evaluation.distances["NM"]
        if any(value >= null for name, value in evaluation.distances.items()
               if name != "NM"):
            return False
    return result.null_separation() > 2.0


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--result", type=Path, required=True)
    parser.add_argument("--backend", default="serial")
    parser.add_argument("--jobs", type=int, default=1)
    parser.add_argument("--cache-dir", type=Path)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()

    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.install()

    from repro.config import MiningConfig
    from repro.experiments import fig4
    from repro.experiments.base import ExperimentContext
    from repro.runtime import RuntimeConfig, backend_degradations

    context = ExperimentContext.create(
        scale=SCALE,
        seed=args.seed,
        region_codes=REGIONS,
        mining=MiningConfig(min_support=MIN_SUPPORT, algorithm=MINING_ALGORITHM),
        ensemble_runs=RUNS_PER_CELL,
        runtime=RuntimeConfig(
            backend=args.backend, jobs=args.jobs, cache_dir=args.cache_dir
        ),
        engine=ENGINE,
    )
    out: dict = {"setup_s": time.monotonic() - args.spawned_at}
    if not args.setup_only:
        cache_before = _tree_bytes(args.cache_dir)
        cpu_before = _cpu_seconds()
        start = time.perf_counter()
        result = fig4.run_fig4(context, level="ingredient")
        out["wall_s"] = time.perf_counter() - start
        out["cpu_s"] = _cpu_seconds() - cpu_before
        out["digest"] = digest(result.to_payload())
        out["paper_shape"] = paper_shape_holds(result)
        out["null_separation"] = result.null_separation()
        out["best_model"] = result.best_model_by_cuisine()
        out["degradations"] = len(backend_degradations())
        # ru_maxrss is in KiB on Linux.  RUSAGE_CHILDREN holds the largest
        # reaped worker, if any; forked workers also count pages they share
        # with this process, so the sum bounds the process tree's peak from
        # above.
        out["peak_rss_mib"] = sum(
            resource.getrusage(who).ru_maxrss
            for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)
        ) / 1024
        if tracer is not None:
            out["layers"] = tracer.layer_metrics()
            out["layers"]["runtime.run_cache.write_mib"] = (
                _tree_bytes(args.cache_dir) - cache_before
            ) / MIB
    args.result.write_text(json.dumps(out))


if __name__ == "__main__":
    main()
