"""End-to-end benchmark of ``repro.experiments.fig4.run_fig4`` at paper protocol.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload fig4_cold --seed 20190408 \\
        --seconds 20 --trace 0

Each fig4 invocation runs in a fresh interpreter (``child.py``) spawned
from this driver, one at a time: a closed loop with one client.  The
protocol is the paper's: CM-R, CM-C, CM-M and NM, 100 runs per cell,
scale 1.0, support 0.05, ingredient level, batched engine, on the
KOR+JPN corpus generated from ``--seed``.

``--trace 0`` reports the end-to-end metrics (medians over the
invocations of the run).  ``--trace 1`` makes the same untraced
invocations, then one traced invocation, and reports the per-layer split
(see ``tracing.py``) instead.  Every invocation passes an output gate:
its ``Fig4Result.to_payload()`` digest must equal the seed's expected
digest (see ``Gate``); the paper's shape must hold; no backend may
degrade.  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before
it records the host and the workload choices.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
CHILD = HERE / "child.py"
REFERENCES = HERE / "references.json"
DEFAULT_SEED = 20190408
SETUP_SAMPLES = 9
DEADLINE_S = 170.0
CACHE_SUFFIXES = (".run.pkl", ".curve.pkl")

WORKLOADS = {
    "fig4_cold": {
        "cache": "fresh",
        "why": "first sweep: an empty cache per invocation, so simulate, "
               "handoff, mine, fingerprint and both cache writes all work",
    },
    "fig4_warm": {
        "cache": "filled",
        "why": "repeat sweep over a cache filled in set-up: only cache reads "
               "and fingerprinting work, simulate and mine do nothing",
    },
}
CUISINE_REASON = (
    "KOR+JPN (4,112 recipes): fig4 on ITA alone peaks at 7.2 GiB RSS, "
    "which does not fit a 2-core host with 8 GB of memory"
)


class Gate:
    """Counts fig4 invocations and the ones that fail the output gate.

    The expected digest of a seed comes from ``references.json`` when it
    lists the seed.  Otherwise the first invocation with no other problem
    sets it and records it in a ledger in the checkout, which later runs
    on the same seed are held to.
    """

    def __init__(self, ledger: Path, seed: int):
        self.attempted = 0
        self.failed = 0
        self.ledger = ledger
        self.seed = str(seed)
        self.known = json.loads(ledger.read_text()) if ledger.exists() else {}
        references = json.loads(REFERENCES.read_text())
        self.digest = references.get(self.seed) or self.known.get(self.seed)

    def check(self, name: str, out: dict | None, *problems: str) -> None:
        self.attempted += 1
        problems = [problem for problem in problems if problem]
        if out is not None:
            if not out["paper_shape"]:
                problems.append(
                    f"paper shape broken (separation "
                    f"{out['null_separation']:.2f}, best {out['best_model']})"
                )
            if out["degradations"]:
                problems.append(f"{out['degradations']} backend degradations")
            if self.digest is None and not problems:
                self.digest = out["digest"]
                self._record()
            if self.digest is not None and out["digest"] != self.digest:
                problems.append(
                    f"digest {out['digest'][:12]} != {self.digest[:12]}"
                )
        if problems:
            self.failed += 1
            print(f"{name}: FAILED: {'; '.join(problems)}", file=sys.stderr)

    def _record(self) -> None:
        self.known[self.seed] = self.digest
        tmp = self.ledger.with_suffix(".tmp")
        tmp.write_text(json.dumps(self.known, indent=1, sort_keys=True))
        os.replace(tmp, self.ledger)


class Runner:
    """Spawns child invocations inside one private work directory."""

    def __init__(self, root: Path, workdir: Path, seed: int):
        self.workdir = workdir
        self.seed = seed
        self.deadline = time.monotonic() + DEADLINE_S
        self.env = dict(
            os.environ, PYTHONPATH=str(root / "src"), TMPDIR=str(workdir)
        )
        self.spawned = 0

    def spawn(self, cache_dir: Path | None, *flags: str) -> tuple[dict | None, str]:
        """Run one child to completion; return its measurements or a problem."""
        self.spawned += 1
        result = self.workdir / f"child{self.spawned}.json"
        log = self.workdir / f"child{self.spawned}.log"
        command = [
            sys.executable, str(CHILD), "--seed", str(self.seed),
            "--result", str(result), *flags,
        ]
        if cache_dir is not None:
            command += ["--cache-dir", str(cache_dir)]
        with log.open("wb") as handle:
            spawned_at = time.monotonic()
            proc = subprocess.Popen(
                command + ["--spawned-at", repr(spawned_at)],
                stdout=handle, stderr=subprocess.STDOUT, env=self.env,
                start_new_session=True,
            )
            try:
                proc.wait(timeout=max(self.deadline - time.monotonic(), 1.0))
            except subprocess.TimeoutExpired:
                pass
            finally:
                # The child's session holds any worker processes it left.
                try:
                    os.killpg(proc.pid, signal.SIGKILL)
                except ProcessLookupError:
                    pass
                proc.wait()
        if proc.returncode == 0 and result.exists():
            return json.loads(result.read_text()), ""
        tail = log.read_text(errors="replace").strip().splitlines()[-5:]
        print("\n".join(tail), file=sys.stderr)
        return None, f"child exited with {proc.returncode}"


def cache_entries(directory: Path) -> set[str]:
    return {
        path.name for path in directory.iterdir()
        if path.name.endswith(CACHE_SUFFIXES)
    }


def warm_trace_problems(layers: dict) -> list[str]:
    """A traced warm invocation must neither simulate nor mine."""
    problems = []
    if layers["models.simulate_runs"]:
        problems.append(f"warm run simulated {layers['models.simulate_runs']}")
    if layers["analysis.mine_tasks"]:
        problems.append(f"warm run mined {layers['analysis.mine_tasks']} tasks")
    if layers["runtime.run_cache.hit_ratio"] != 1.0:
        problems.append("warm run-cache hit ratio below 1")
    return problems


def host_context(args: argparse.Namespace) -> dict:
    with open("/proc/meminfo") as handle:
        mem_total = next(
            line.split()[1] for line in handle if line.startswith("MemTotal:")
        )
    return {
        "workload": args.workload,
        "seed": args.seed,
        "why": WORKLOADS[args.workload]["why"],
        "cuisines": CUISINE_REASON,
        "nproc": os.cpu_count(),
        "mem_total_kib": int(mem_total),
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
    }


def measure(args: argparse.Namespace, root: Path, workdir: Path) -> dict | None:
    workload = WORKLOADS[args.workload]
    runner = Runner(root, workdir, args.seed)
    gate = Gate(root / ".perfbench_work" / "digests.json", args.seed)
    walls, rss, setups = [], [], []

    warm_dir = workdir / "warm-cache"
    warm_entries: set[str] = set()
    if workload["cache"] == "filled":
        warm_dir.mkdir()
        # Fill on two worker processes, which writes the same entries sooner.
        out, problem = runner.spawn(warm_dir, "--backend", "process", "--jobs", "2")
        gate.check("fill", out, problem)
        if out is None:
            return None
        setups.append(out["setup_s"])
        warm_entries = cache_entries(warm_dir)

    def run_once(name: str, iteration: int, *flags: str) -> dict | None:
        if workload["cache"] == "filled":
            cache_dir = warm_dir
        else:
            cache_dir = workdir / f"cold-cache{iteration}"
            cache_dir.mkdir()
        out, problem = runner.spawn(cache_dir, *flags)
        problems = [problem]
        if workload["cache"] == "filled":
            added = cache_entries(warm_dir) - warm_entries
            if added:
                problems.append(f"warm invocation added {len(added)} entries")
            if out is not None and "layers" in out:
                problems += warm_trace_problems(out["layers"])
        else:
            shutil.rmtree(cache_dir)
        gate.check(name, out, *problems)
        return out

    started = time.monotonic()
    iteration = 0
    while iteration == 0 or time.monotonic() - started < args.seconds:
        out = run_once(f"iteration {iteration}", iteration)
        iteration += 1
        if out is not None:
            walls.append(out["wall_s"])
            rss.append(out["peak_rss_mib"])
            setups.append(out["setup_s"])
    if not walls:
        return None
    # A traced run reports no set-up time, so it samples none.
    while not args.trace and len(setups) < SETUP_SAMPLES:
        out, problem = runner.spawn(None, "--setup-only")
        if out is None:
            gate.check("setup", None, problem)
            return None
        setups.append(out["setup_s"])

    wall_median = statistics.median(walls)
    if args.trace:
        out = run_once("traced", iteration, "--trace")
        if out is None:
            return None
        metrics = dict(out["layers"])
        metrics["process.cpu_s"] = out["cpu_s"]
        metrics["trace.overhead_s"] = out["wall_s"] - wall_median
        metrics = {
            name: {"value": value, "unit": unit_of(name)}
            for name, value in sorted(metrics.items())
        }
    else:
        metrics = {
            "wall_s": {"value": wall_median, "unit": "s"},
            "peak_rss_mib": {"value": statistics.median(rss), "unit": "MiB"},
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
        }
    return {
        "correct": gate.failed == 0,
        "attempted": gate.attempted,
        "failed": gate.failed,
        "metrics": metrics,
        "samples": {"wall_s": len(walls), "setup_s": len(setups)},
    }


def unit_of(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_mib"):
        return "MiB"
    if name.endswith("hit_ratio"):
        return "ratio"
    return "count"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = Path.cwd()
    if not (root / "src" / "repro" / "experiments" / "fig4.py").is_file():
        print("run from the root of a repro checkout: src/repro is missing",
              file=sys.stderr)
        return 2
    # Turn SIGTERM into SystemExit so the cleanup below and in
    # Runner.spawn still kills the running child's session.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    work_root = root / ".perfbench_work"
    work_root.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="run-", dir=work_root))
    try:
        report = measure(args, root, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if report is None:
        print("no complete fig4 invocation; no result", file=sys.stderr)
        return 1
    samples = report.pop("samples")
    print(json.dumps({"context": {**host_context(args), "samples": samples}}))
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
