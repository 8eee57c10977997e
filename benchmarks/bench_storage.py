"""Bench ``storage``: the memory-mapped columnar corpus store at scale.

PR 10 added :mod:`repro.storage.columnar` — a single-file columnar
container (CSR ingredient planes + packed-bit transaction planes,
DESIGN.md §11) that streams corpus generation to disk and mines straight
off ``np.memmap`` views.  This bench drives both corpus representations
through the same workload — *materialize the ITA cuisine and mine its
frequent combinations at support 0.05* — at 1×, 10× and 100× the
paper's corpus sizes:

* ``pickle`` — ``load_pickle`` (full object materialization), then
  :func:`~repro.analysis.itemsets.mine_frequent_itemsets` over
  ``as_id_sets()``;
* ``columnar`` — ``ColumnarCorpus.open`` (no object materialization),
  then :func:`~repro.analysis.itemsets.mine_packed` over the
  stored packed-bit planes, zero-copy.

Every measured mode runs in its own subprocess so peak RSS
(``ru_maxrss``) is attributable to that mode alone, and both modes'
mining results are digest-compared for bit-identity before any speedup
is reported.  The pickle input is exported *from* the packed corpus, so
both sides mine byte-for-byte the same world even at chunked scales.

Acceptance targets: columnar open+mine beats pickle load+mine at every
scale >= 10×, and its peak RSS at the largest scale stays below the
object path's.  Results go to ``BENCH_storage.json`` at the repo root.

Entry points:

* pytest (CI smoke; sized by ``REPRO_BENCH_SCALE``)::

      PYTHONPATH=src python -m pytest benchmarks/bench_storage.py -q

* standalone — the acceptance run (1×/10×/100×) or the CI perf
  tripwire (``--fast --check`` exits 1 if the columnar path falls
  behind pickle at 1×, or the results disagree)::

      PYTHONPATH=src python benchmarks/bench_storage.py
      PYTHONPATH=src python benchmarks/bench_storage.py --fast --check
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]

if __name__ == "__main__" and "--worker" in sys.argv:
    sys.path.insert(0, str(REPO_ROOT / "src"))

from _results import smoke_write_enabled, write_bench_result  # noqa: E402

REGION = "ITA"
MIN_SUPPORT = 0.05
SEED = 20190408


def _peak_rss_mib() -> float:
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _mining_digest(result) -> str:
    """Stable content digest of a mining result (order included)."""
    hasher = hashlib.sha256()
    for itemset in result.itemsets:
        hasher.update(repr((tuple(itemset.items), itemset.support)).encode())
    hasher.update(str(result.n_transactions).encode())
    return hasher.hexdigest()


# ---------------------------------------------------------------------------
# Workers: one measured mode per subprocess, JSON on stdout
# ---------------------------------------------------------------------------


def _worker_build_columnar(path: Path, scale: float) -> dict:
    from repro.lexicon.builder import standard_lexicon
    from repro.synthesis.worldgen import WorldKitchen

    kitchen = WorldKitchen(standard_lexicon(), seed=SEED)
    start = time.perf_counter()
    with kitchen.generate_columnar(
        path, region_codes=(REGION,), scale=scale
    ) as corpus:
        n_recipes = corpus.n_recipes
    return {
        "seconds": time.perf_counter() - start,
        "n_recipes": n_recipes,
        "bytes": path.stat().st_size,
        "peak_rss_mib": _peak_rss_mib(),
    }


def _worker_export_pickle(path: Path, pickle_path: Path) -> dict:
    from repro.corpus.io import save_pickle
    from repro.storage.columnar import ColumnarCorpus

    start = time.perf_counter()
    with ColumnarCorpus.open(path) as corpus:
        save_pickle(corpus.to_dataset(), pickle_path)
    return {
        "seconds": time.perf_counter() - start,
        "bytes": pickle_path.stat().st_size,
        "peak_rss_mib": _peak_rss_mib(),
    }


def _worker_mine_pickle(pickle_path: Path) -> dict:
    from repro.analysis.itemsets import mine_frequent_itemsets
    from repro.corpus.io import load_pickle

    start = time.perf_counter()
    dataset = load_pickle(pickle_path)
    transactions = dataset.cuisine(REGION).as_id_sets()
    load_seconds = time.perf_counter() - start
    start = time.perf_counter()
    result = mine_frequent_itemsets(transactions, min_support=MIN_SUPPORT)
    mine_seconds = time.perf_counter() - start
    return {
        "load_seconds": load_seconds,
        "mine_seconds": mine_seconds,
        "total_seconds": load_seconds + mine_seconds,
        "peak_rss_mib": _peak_rss_mib(),
        "n_itemsets": len(result.itemsets),
        "digest": _mining_digest(result),
    }


def _worker_mine_columnar(path: Path) -> dict:
    from repro.storage.columnar import ColumnarCorpus

    start = time.perf_counter()
    corpus = ColumnarCorpus.open(path)
    open_seconds = time.perf_counter() - start
    start = time.perf_counter()
    result = corpus.mine(REGION, min_support=MIN_SUPPORT)
    mine_seconds = time.perf_counter() - start
    corpus.close()
    return {
        "load_seconds": open_seconds,
        "mine_seconds": mine_seconds,
        "total_seconds": open_seconds + mine_seconds,
        "peak_rss_mib": _peak_rss_mib(),
        "n_itemsets": len(result.itemsets),
        "digest": _mining_digest(result),
    }


_WORKERS = {
    "build-columnar": lambda args: _worker_build_columnar(
        Path(args.path), args.scale
    ),
    "export-pickle": lambda args: _worker_export_pickle(
        Path(args.path), Path(args.pickle_path)
    ),
    "mine-pickle": lambda args: _worker_mine_pickle(Path(args.pickle_path)),
    "mine-columnar": lambda args: _worker_mine_columnar(Path(args.path)),
}


def _spawn(worker: str, **kwargs: object) -> dict:
    """Run one worker in a fresh interpreter; returns its JSON result."""
    command = [sys.executable, str(Path(__file__).resolve()), "--worker", worker]
    for key, value in kwargs.items():
        command.extend([f"--{key.replace('_', '-')}", str(value)])
    env = dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src"))
    completed = subprocess.run(
        command, env=env, capture_output=True, text=True
    )
    if completed.returncode != 0:
        raise RuntimeError(
            f"worker {worker} failed:\n{completed.stderr[-2000:]}"
        )
    return json.loads(completed.stdout.strip().splitlines()[-1])


# ---------------------------------------------------------------------------
# The scale matrix
# ---------------------------------------------------------------------------


def run_storage_matrix(scales: tuple[float, ...] = (1.0, 10.0, 100.0)) -> dict:
    """Build + mine both representations at each scale; returns the table."""
    rows = []
    with tempfile.TemporaryDirectory() as raw_dir:
        workdir = Path(raw_dir)
        for scale in scales:
            columnar_path = workdir / f"ita_{scale:g}x.col"
            pickle_path = workdir / f"ita_{scale:g}x.pkl"
            build = _spawn("build-columnar", path=columnar_path, scale=scale)
            export = _spawn(
                "export-pickle", path=columnar_path, pickle_path=pickle_path
            )
            pickle_run = _spawn("mine-pickle", pickle_path=pickle_path)
            columnar_run = _spawn("mine-columnar", path=columnar_path)
            columnar_path.unlink()
            pickle_path.unlink()
            identical = pickle_run["digest"] == columnar_run["digest"]
            rows.append({
                "scale": scale,
                "n_recipes": build["n_recipes"],
                "columnar_bytes": build["bytes"],
                "pickle_bytes": export["bytes"],
                "build_columnar_seconds": build["seconds"],
                "build_peak_rss_mib": build["peak_rss_mib"],
                "pickle": pickle_run,
                "columnar": columnar_run,
                "identical": identical,
                "speedup": (
                    pickle_run["total_seconds"] / columnar_run["total_seconds"]
                    if columnar_run["total_seconds"] > 0
                    else float("inf")
                ),
                "rss_ratio": (
                    columnar_run["peak_rss_mib"] / pickle_run["peak_rss_mib"]
                    if pickle_run["peak_rss_mib"] > 0
                    else float("inf")
                ),
            })
    return {
        "region": REGION,
        "min_support": MIN_SUPPORT,
        "seed": SEED,
        "scales": [row["scale"] for row in rows],
        "identical_all": all(row["identical"] for row in rows),
        "rows": rows,
    }


def _render(result: dict) -> str:
    lines = [
        f"columnar store: {result['region']} @ support "
        f"{result['min_support']}, scales {result['scales']}; "
        f"results identical: {result['identical_all']}",
        f"{'scale':>6}{'recipes':>10}{'col MiB':>9}{'pkl MiB':>9}"
        f"{'pkl s':>9}{'col s':>9}{'speedup':>9}"
        f"{'pkl RSS':>9}{'col RSS':>9}",
    ]
    for row in result["rows"]:
        lines.append(
            f"{row['scale']:>5.0f}x{row['n_recipes']:>10}"
            f"{row['columnar_bytes'] / 2**20:>9.1f}"
            f"{row['pickle_bytes'] / 2**20:>9.1f}"
            f"{row['pickle']['total_seconds']:>9.2f}"
            f"{row['columnar']['total_seconds']:>9.3f}"
            f"{row['speedup']:>8.1f}x"
            f"{row['pickle']['peak_rss_mib']:>9.0f}"
            f"{row['columnar']['peak_rss_mib']:>9.0f}"
        )
    return "\n".join(lines)


def _check(result: dict, fast: bool) -> int:
    """The CI tripwire / acceptance gate; returns the exit code."""
    if not result["identical_all"]:
        print("FAIL: packed-plane mining disagrees with the object path")
        return 1
    for row in result["rows"]:
        floor = 1.0
        if row["scale"] >= 10.0 and row["speedup"] < floor:
            print(
                f"FAIL: columnar speedup {row['speedup']:.2f}x at "
                f"{row['scale']:g}x below {floor:.1f}x floor"
            )
            return 1
    if fast:
        # 1× tripwire: the memory-mapped path must at least keep pace.
        smallest = result["rows"][0]
        if smallest["speedup"] < 1.0:
            print(
                f"FAIL: columnar speedup {smallest['speedup']:.2f}x at "
                f"{smallest['scale']:g}x below the 1.0x tripwire"
            )
            return 1
    else:
        largest = result["rows"][-1]
        if largest["rss_ratio"] >= 1.0:
            print(
                f"FAIL: columnar peak RSS {largest['rss_ratio']:.2f}x of "
                "the pickle path at the largest scale (must stay below 1)"
            )
            return 1
    return 0


def test_storage_throughput():
    """Pytest entry: one reduced scale, bit-identity + no-regression."""
    scale = float(os.environ.get("REPRO_BENCH_SCALE", "0.04"))
    result = run_storage_matrix(scales=(max(scale, 0.02),))
    print()
    print(_render(result))
    if smoke_write_enabled():
        write_bench_result("storage", result)
    assert result["identical_all"]
    row = result["rows"][0]
    assert row["columnar"]["n_itemsets"] == row["pickle"]["n_itemsets"]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--scales", type=float, nargs="*", default=None,
        help="scale multipliers to measure (default: 1 10 100)",
    )
    parser.add_argument(
        "--fast", action="store_true",
        help="smoke sizing (1x only) for CI tripwires",
    )
    parser.add_argument(
        "--check", action="store_true",
        help=(
            "exit 1 unless packed and object mining agree bit-for-bit "
            "and the columnar path meets its speedup/RSS floors"
        ),
    )
    parser.add_argument("--worker", choices=sorted(_WORKERS), default=None,
                        help=argparse.SUPPRESS)
    parser.add_argument("--path", default=None, help=argparse.SUPPRESS)
    parser.add_argument("--pickle-path", dest="pickle_path", default=None,
                        help=argparse.SUPPRESS)
    parser.add_argument("--scale", type=float, default=1.0,
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.worker is not None:
        print(json.dumps(_WORKERS[args.worker](args)))
        return 0

    if args.fast:
        scales: tuple[float, ...] = (1.0,)
    elif args.scales:
        scales = tuple(args.scales)
    else:
        scales = (1.0, 10.0, 100.0)
    result = run_storage_matrix(scales=scales)
    print(_render(result))
    # --fast is the CI tripwire; only full-size runs may replace the
    # committed acceptance artifact.
    if not args.fast or smoke_write_enabled():
        write_bench_result("storage", result)
    if args.check:
        return _check(result, fast=args.fast)
    return 0 if result["identical_all"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
