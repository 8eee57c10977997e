"""Command-line interface.

Subcommands::

    repro generate    — write a calibrated synthetic corpus to JSONL
    repro stats       — print corpus statistics (Sec. II numbers) from a
                        JSONL corpus
    repro experiment  — run a paper experiment and print its report
    repro evolve      — run one evolution model on one cuisine
    repro resolve     — resolve raw ingredient mentions via the lexicon
    repro report      — run every experiment, write a markdown report
    repro sweep       — execute the model×cuisine run grid in one
                        pass (and warm the run cache; ``--mine``
                        also warms the mined-curve cache)
    repro worker      — serve a distributed work-queue spool directory
                        (claim tasks, heartbeat, write results) until
                        stopped; pairs with ``--backend distributed``
    repro cache       — inspect (`stats`), empty (`clear`), or age-out
                        (`prune`) a cache directory (runs, mined curves
                        and orphan temps)
    repro spool       — inspect (`stats`) or sweep the dead debris out
                        of (`compact`) a work-queue spool directory

Every stochastic command accepts ``--seed`` for exact reproducibility.
Commands that execute model ensembles (``experiment``, ``evolve``,
``report``, ``sweep``) also accept ``--backend
{serial,process,distributed}``, ``--jobs N`` (0 = all cores),
``--cache-dir PATH`` and ``--engine {reference,batched}`` — results
are bit-identical across backends for a fixed seed (per engine, see
DESIGN.md §5/§7), and the run cache lets repeated invocations reuse
completed runs.  The distributed backend additionally honors ``--spool-dir PATH``
(the shared work-queue directory that external ``repro worker``
processes serve) and ``--local-workers N`` (worker processes the
coordinator spawns itself; 0 = external only) — see DESIGN.md §8.
Mining commands accept ``--min-support X`` (paper: 0.05); there is one
miner, the packed-bit search of DESIGN.md §6.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from repro.analysis.invariants import combination_curve
from repro.analysis.mae import curve_distance
from repro.config import MiningConfig
from repro.corpus.io import load_jsonl, save_jsonl
from repro.corpus.stats import corpus_stats
from repro.experiments.base import ExperimentContext
from repro.experiments.registry import available_experiments, run_experiment
from repro.lexicon.builder import standard_lexicon
from repro.models.ensemble import ensemble_curves, run_ensemble
from repro.models.params import ENGINES, CuisineSpec
from repro.models.registry import (
    PAPER_MODELS,
    available_models,
    create_model,
)
from repro.rng import DEFAULT_SEED
from repro.runtime import (
    BACKENDS,
    CurveCache,
    DistributedConfig,
    FaultPlan,
    PickleStore,
    RunCache,
    RuntimeConfig,
    compact_spool,
    execute_sweep,
    plan_grid,
    run_worker,
    select_regions,
    spool_stats,
)
from repro.synthesis.worldgen import WorldKitchen
from repro.viz.ascii import render_table

__all__ = ["main", "build_parser"]


def _add_runtime_flags(parser: argparse.ArgumentParser) -> None:
    """Attach the execution-runtime flags shared by ensemble commands."""
    parser.add_argument(
        "--backend", choices=BACKENDS, default="serial",
        help="ensemble execution backend (default: serial)",
    )
    parser.add_argument(
        "--jobs", type=int, default=1,
        help="parallel workers; 0 = all cores (default: 1)",
    )
    parser.add_argument(
        "--cache-dir", type=Path, default=None,
        help="on-disk run cache directory (reused across invocations)",
    )
    parser.add_argument(
        "--engine", choices=ENGINES, default=None,
        help=(
            "simulation engine for model runs (default: batched, which "
            "stacks same-cell runs into one pass; 'reference' runs the "
            "scalar executable-spec loop — CM-V always runs there)"
        ),
    )
    parser.add_argument(
        "--spool-dir", type=Path, default=None,
        help=(
            "distributed backend: shared work-queue directory served "
            "by `repro worker` processes (default: a private temp "
            "spool per map, local workers only)"
        ),
    )
    parser.add_argument(
        "--local-workers", type=int, default=None,
        help=(
            "distributed backend: worker processes the coordinator "
            "spawns itself (default: --jobs; 0 = rely entirely on "
            "external `repro worker` processes)"
        ),
    )


def _runtime_from_args(args: argparse.Namespace) -> RuntimeConfig:
    """Build the RuntimeConfig a command's flags describe."""
    distributed = None
    if args.backend == "distributed":
        distributed = DistributedConfig(
            spool_dir=args.spool_dir,
            local_workers=args.local_workers,
        )
    return RuntimeConfig(
        backend=args.backend, jobs=args.jobs, cache_dir=args.cache_dir,
        distributed=distributed,
    )


def _support_fraction(text: str) -> float:
    """argparse type for ``--min-support``: a float in (0, 1]."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a number: {text!r}") from None
    if not 0.0 < value <= 1.0:
        raise argparse.ArgumentTypeError(f"must be in (0, 1], got {text}")
    return value


def _add_mining_flags(parser: argparse.ArgumentParser) -> None:
    """Attach the frequent-combination mining flags."""
    parser.add_argument(
        "--min-support", type=_support_fraction, default=0.05,
        help="relative support threshold in (0, 1] (paper: 0.05)",
    )


def _mining_from_args(args: argparse.Namespace) -> MiningConfig:
    """Build the MiningConfig a command's flags describe."""
    return MiningConfig(min_support=args.min_support)


def build_parser() -> argparse.ArgumentParser:
    """The CLI argument parser (exposed for testing)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Reproduction of 'Computational Models for the Evolution of "
            "World Cuisines' (ICDE 2019)"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    generate = sub.add_parser("generate", help="generate a synthetic corpus")
    generate.add_argument("output", type=Path, help="output JSONL path")
    generate.add_argument("--scale", type=float, default=0.1)
    generate.add_argument("--seed", type=int, default=DEFAULT_SEED)
    generate.add_argument(
        "--regions", nargs="*", default=None, help="region codes (default all)"
    )

    stats = sub.add_parser("stats", help="print corpus statistics")
    stats.add_argument("dataset", type=Path, help="JSONL corpus path")

    experiment = sub.add_parser("experiment", help="run a paper experiment")
    experiment.add_argument(
        "id", choices=list(available_experiments()), help="experiment id"
    )
    experiment.add_argument("--scale", type=float, default=0.08)
    experiment.add_argument("--seed", type=int, default=DEFAULT_SEED)
    experiment.add_argument("--runs", type=int, default=8,
                            help="model runs per ensemble")
    experiment.add_argument("--regions", nargs="*", default=None)
    experiment.add_argument("--artifacts", type=Path, default=None,
                            help="directory for CSV/JSON artifacts")
    experiment.add_argument(
        "--corpus", type=Path, default=None,
        help=(
            "run over a JSONL corpus (as `repro generate` writes it) "
            "instead of generating one; --scale then only labels the "
            "context"
        ),
    )
    _add_mining_flags(experiment)
    _add_runtime_flags(experiment)

    evolve = sub.add_parser("evolve", help="run one evolution model")
    evolve.add_argument("model", choices=list(available_models()))
    evolve.add_argument("region", help="region code, e.g. ITA")
    evolve.add_argument("--scale", type=float, default=0.08)
    evolve.add_argument("--seed", type=int, default=DEFAULT_SEED)
    evolve.add_argument("--runs", type=int, default=8)
    _add_runtime_flags(evolve)

    resolve = sub.add_parser(
        "resolve", help="resolve raw ingredient mentions against the lexicon"
    )
    resolve.add_argument("mentions", nargs="+", help="raw mention strings")

    report = sub.add_parser(
        "report", help="run every experiment and write a markdown report"
    )
    report.add_argument("output", type=Path, help="markdown output path")
    report.add_argument("--scale", type=float, default=0.05)
    report.add_argument("--seed", type=int, default=DEFAULT_SEED)
    report.add_argument("--runs", type=int, default=5)
    report.add_argument("--regions", nargs="*", default=None)
    report.add_argument("--no-ablations", action="store_true")
    _add_runtime_flags(report)

    sweep = sub.add_parser(
        "sweep",
        help="execute the model x cuisine run grid in one pass",
        description=(
            "Plan the full (model x cuisine x seed) grid, dispatch every "
            "cell across the chosen backend in a single pass, and print a "
            "per-model summary.  With --cache-dir the completed runs warm "
            "the on-disk cache, so a later `repro experiment fig4` or "
            "`repro report` with the same --scale/--seed/--runs reuses "
            "them for free."
        ),
    )
    sweep.add_argument(
        "--models", nargs="*", choices=list(available_models()), default=None,
        help="models to sweep (default: the paper's four)",
    )
    sweep.add_argument("--regions", nargs="*", default=None,
                       help="region codes (default all 25)")
    sweep.add_argument("--scale", type=float, default=0.08)
    sweep.add_argument("--seed", type=int, default=DEFAULT_SEED)
    sweep.add_argument("--runs", type=int, default=8,
                       help="model runs per (model, cuisine) cell")
    sweep.add_argument(
        "--corpus", type=Path, default=None,
        help=(
            "sweep over a JSONL corpus (as `repro generate` writes it) "
            "instead of generating one; --scale then only labels the "
            "context"
        ),
    )
    sweep.add_argument(
        "--mine", action="store_true",
        help=(
            "also mine every cell's per-run curves plus each cuisine's "
            "empirical curve after the sweep, warming the mined-curve "
            "cache (requires --cache-dir; a repeat sweep or matching "
            "experiment then performs zero mining calls)"
        ),
    )
    _add_mining_flags(sweep)
    _add_runtime_flags(sweep)

    worker = sub.add_parser(
        "worker",
        help="serve a distributed work-queue spool directory",
        description=(
            "Attach to a spool directory and serve it: claim tasks by "
            "atomic rename, heartbeat while executing, write results "
            "back.  Any `repro ... --backend distributed --spool-dir "
            "DIR` coordinator sharing the directory (typically on a "
            "shared filesystem) will use this worker.  Exits when the "
            "spool's `stop` sentinel appears and the queue is empty "
            "(create it with `touch DIR/stop`), after --idle-timeout "
            "seconds without work, or after --max-tasks claims."
        ),
    )
    worker.add_argument(
        "--spool", type=Path, required=True,
        help="the work-queue directory to serve",
    )
    worker.add_argument(
        "--worker-id", default=None,
        help="stable worker id for claims/heartbeats (default: w<pid>)",
    )
    worker.add_argument(
        "--poll-interval", type=float, default=0.2,
        help="seconds between queue scans when idle (default: 0.2)",
    )
    worker.add_argument(
        "--heartbeat-interval", type=float, default=1.0,
        help=(
            "seconds between heartbeat touches; keep well under the "
            "coordinator's lease timeout (default: 1.0)"
        ),
    )
    worker.add_argument(
        "--idle-timeout", type=float, default=None,
        help="exit after this much idle time (default: wait for stop)",
    )
    worker.add_argument(
        "--max-tasks", type=int, default=None,
        help="exit after claiming this many tasks (default: unlimited)",
    )
    worker.add_argument(
        "--fault-plan", type=Path, default=None,
        help=(
            "JSON fault-injection plan to obey (testing; default: the "
            "spool's faults.json when present)"
        ),
    )

    cache = sub.add_parser(
        "cache",
        help=(
            "inspect, clear, or age-out an on-disk cache "
            "(runs and mined curves)"
        ),
    )
    cache.add_argument("action", choices=("stats", "clear", "prune"))
    cache.add_argument(
        "directory", type=Path, nargs="?", default=Path(".repro-cache"),
        help="cache directory (default: .repro-cache)",
    )
    cache.add_argument(
        "--max-age-days", type=float, default=None,
        help="prune: remove entries older than this many days",
    )

    spool = sub.add_parser(
        "spool",
        help="inspect or compact a work-queue spool directory",
        description=(
            "`stats` prints one read-only snapshot of a spool: queue "
            "depth, claimed/stale leases, worker liveness, per-outcome "
            "attempt counts and debris.  `compact` removes exactly the "
            "dead debris — stale claims and heartbeats, long-gone "
            "worker markers, orphaned results and stranded atomic-write "
            "temps — judged by age against --stale-after; live state "
            "and pending tasks are never touched.  Both run safely "
            "beside an active map."
        ),
    )
    spool.add_argument("action", choices=("stats", "compact"))
    spool.add_argument(
        "--spool", type=Path, required=True, dest="spool_dir",
        help="the work-queue directory to inspect or compact",
    )
    spool.add_argument(
        "--stale-after", type=float, default=60.0,
        help=(
            "seconds without a heartbeat/mtime touch before state "
            "counts as dead (default: 60; keep well above the fleet's "
            "heartbeat interval)"
        ),
    )
    return parser


def _cmd_generate(args: argparse.Namespace) -> int:
    lexicon = standard_lexicon()
    kitchen = WorldKitchen(lexicon, seed=args.seed)
    regions = tuple(args.regions) if args.regions else None
    dataset = kitchen.generate_dataset(region_codes=regions, scale=args.scale)
    count = save_jsonl(dataset, args.output)
    print(f"wrote {count} recipes to {args.output}")
    return 0


def _cmd_stats(args: argparse.Namespace) -> int:
    stats = corpus_stats(load_jsonl(args.dataset))
    rows = [
        (s.region_code, s.n_recipes, s.n_ingredients,
         f"{s.avg_recipe_size:.2f}", f"{s.phi:.4f}")
        for s in stats.per_cuisine
    ]
    print(render_table(
        ("Region", "Recipes", "Ingredients", "AvgSize", "phi"),
        rows,
        title=(
            f"{stats.n_recipes} recipes, {stats.n_cuisines} cuisines; "
            f"largest {stats.largest_cuisine[0]} "
            f"({stats.largest_cuisine[1]}), smallest "
            f"{stats.smallest_cuisine[0]} ({stats.smallest_cuisine[1]}); "
            f"mean recipe size {stats.mean_recipe_size:.2f}"
        ),
    ))
    return 0


def _cmd_experiment(args: argparse.Namespace) -> int:
    context = ExperimentContext.create(
        scale=args.scale,
        seed=args.seed,
        region_codes=tuple(args.regions) if args.regions else None,
        mining=_mining_from_args(args),
        ensemble_runs=args.runs,
        artifacts_dir=args.artifacts,
        runtime=args.runtime,
        engine=args.engine,
        corpus_path=args.corpus,
    )
    result = run_experiment(args.id, context)
    print(result.render())
    return 0


def _cmd_evolve(args: argparse.Namespace) -> int:
    lexicon = standard_lexicon()
    kitchen = WorldKitchen(lexicon, seed=args.seed)
    dataset = kitchen.generate_dataset(
        region_codes=(args.region,), scale=args.scale
    )
    view = dataset.cuisine(args.region)
    spec = CuisineSpec.from_view(view, lexicon)
    model = create_model(args.model, engine=args.engine)
    result = run_ensemble(
        model, spec, n_runs=args.runs, seed=args.seed,
        runtime=args.runtime,
    )
    empirical, _ = combination_curve(dataset, view.region_code, lexicon)
    distance = curve_distance(empirical, result.ingredient_curve)
    trace = result.runs[0].trace
    print(render_table(
        ("Quantity", "Value"),
        [
            ("model", model.name),
            ("region", view.region_code),
            ("empirical recipes", view.n_recipes),
            ("runs", result.n_runs),
            ("recipes per run", result.runs[0].n_recipes),
            ("final pool size (run 0)", result.runs[0].final_pool_size),
            ("mutations accepted (run 0)", trace.mutations_accepted),
            ("distance to empirical", f"{distance:.4f}"),
        ],
        title=f"{model.name} on {view.region_code}",
    ))
    return 0


def _cmd_resolve(args: argparse.Namespace) -> int:
    lexicon = standard_lexicon()
    rows = []
    for mention in args.mentions:
        resolution = lexicon.resolve(mention)
        rows.append(
            (
                mention,
                resolution.ingredient.name if resolution.ingredient else "(unresolved)",
                resolution.ingredient.category.value
                if resolution.ingredient
                else "-",
            )
        )
    print(render_table(("Mention", "Entity", "Category"), rows))
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    from repro.experiments.report import build_report

    context = ExperimentContext.create(
        scale=args.scale,
        seed=args.seed,
        region_codes=tuple(args.regions) if args.regions else None,
        ensemble_runs=args.runs,
        runtime=args.runtime,
        engine=args.engine,
    )
    report = build_report(
        context, include_ablations=not args.no_ablations
    )
    report.save(args.output)
    print(f"wrote report to {args.output} ({report.elapsed_seconds:.1f}s)")
    for key, value in report.headline.items():
        print(f"  {key}: {value}")
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    model_names = tuple(args.models) if args.models else PAPER_MODELS
    runtime = args.runtime
    if args.mine and runtime.cache_dir is None:
        # Mining without a cache directory would compute every curve
        # and drop it on the floor — refuse up front, before any grid
        # work, rather than waste minutes of CPU.
        print(
            "error: sweep --mine requires --cache-dir (the mined "
            "curves have nowhere to go)",
            file=sys.stderr,
        )
        return 2
    requested = tuple(args.regions) if args.regions else None
    if requested is not None:
        # Unknown codes fail when the context resolves them against
        # the corpus below (generated or read); duplicates must fail
        # here — they would silently inflate the duplicated cuisine's
        # corpus before any grid work.
        select_regions(requested, requested)
    context = ExperimentContext.create(
        scale=args.scale,
        seed=args.seed,
        region_codes=requested,
        ensemble_runs=args.runs,
        runtime=runtime,
        engine=args.engine,
        corpus_path=args.corpus,
    )
    # Plan in corpus order (sorted), NOT the command-line order: it is
    # the order run_fig4/build_report walk the grid, so the per-cell
    # seed draws — and therefore the cache keys — line up and a sweep
    # pre-warms those experiments regardless of how --regions was typed.
    codes = select_regions(context.dataset.region_codes())
    specs = [
        CuisineSpec.from_view(context.dataset.cuisine(code), context.lexicon)
        for code in codes
    ]
    plan = plan_grid(
        [create_model(name, engine=args.engine) for name in model_names],
        specs,
        n_runs=args.runs,
        seed=args.seed,
    )
    result = execute_sweep(plan, runtime=runtime)

    rows = []
    for name in model_names:
        cells = [c for c in result.cells if c.model_name == name]
        runs = sum(len(c.runs) for c in cells)
        cached = sum(c.cached for c in cells)
        rows.append((name, len(cells), runs, cached, runs - cached))
    rows.append((
        "total", len(result.cells), result.total_runs, result.cached,
        result.executed,
    ))
    throughput = (
        result.total_runs / result.elapsed_seconds
        if result.elapsed_seconds > 0
        else float("inf")
    )
    print(render_table(
        ("Model", "Cuisines", "Runs", "Cached", "Executed"),
        rows,
        title=(
            f"Sweep: {len(codes)} cuisines x {len(model_names)} models x "
            f"{args.runs} runs = {result.total_runs} total; "
            f"backend={result.backend}, jobs={result.jobs}; "
            f"{result.elapsed_seconds:.1f}s ({throughput:.1f} runs/s)"
        ),
    ))
    if args.mine:
        import time

        mining = _mining_from_args(args)
        curve_cache = CurveCache(runtime.cache_dir)
        start = time.perf_counter()
        # One executor pass for the whole grid (ensemble_curves), not
        # one pool per cell — same curves, a fraction of the overhead.
        # Each cell's curves are one entry keyed by the run keys the
        # sweep used, the keys `repro experiment fig4` hands its cells.
        ensemble_curves(
            [
                (cell_runs.runs, cell_runs.model_name, cell_runs.keys)
                for cell_runs in result.cells
            ],
            mining=mining, runtime=runtime, curve_cache=curve_cache,
        )
        # Also warm the empirical (per-cuisine corpus) curves, so a
        # later `repro experiment fig4` with matching parameters
        # reaches no miner at all — not just for the model curves.
        for code in codes:
            combination_curve(
                context.dataset, code, context.lexicon,
                mining=mining, curve_cache=curve_cache,
            )
        elapsed = time.perf_counter() - start
        print(
            f"mined {len(result.cells)} cells x {args.runs} runs "
            f"(+ {len(codes)} empirical curves) with "
            f"support {mining.min_support:g} in "
            f"{elapsed:.1f}s ({curve_cache.stats.misses} curve entries "
            f"mined, {curve_cache.stats.hits} curve-cache hits)"
        )
    if runtime.cache_dir is not None:
        print(
            f"cache {runtime.cache_dir}: "
            f"{len(RunCache(runtime.cache_dir))} run entries, "
            f"{len(CurveCache(runtime.cache_dir))} curve entries"
        )
    return 0


def _format_bytes(size: int) -> str:
    value = float(size)
    for unit in ("B", "KiB", "MiB", "GiB"):
        if value < 1024 or unit == "GiB":
            return f"{value:.1f} {unit}" if unit != "B" else f"{int(value)} B"
        value /= 1024
    return f"{value:.1f} GiB"  # pragma: no cover - loop always returns


def _format_age(seconds: float) -> str:
    if seconds < 120:
        return f"{seconds:.0f}s"
    if seconds < 7200:
        return f"{seconds / 60:.0f}m"
    if seconds < 172800:
        return f"{seconds / 3600:.1f}h"
    return f"{seconds / 86400:.1f}d"


def _cmd_cache(args: argparse.Namespace) -> int:
    import time

    directory = args.directory
    if args.action == "prune":
        if args.max_age_days is None:
            print(
                "error: cache prune requires --max-age-days",
                file=sys.stderr,
            )
            return 2
        if args.max_age_days < 0:
            print("error: --max-age-days must be >= 0", file=sys.stderr)
            return 2
    if not directory.exists():
        if args.action in ("clear", "prune"):
            print(f"cache {directory}: nothing to {args.action}")
        else:
            print(f"cache {directory}: no cache directory")
        return 0
    # The stores share one directory, namespaced by entry suffix.
    stores: list[tuple[str, PickleStore]] = [
        ("runs", RunCache(directory)),
        ("curves", CurveCache(directory)),
    ]
    if args.action in ("clear", "prune"):
        verb, older_than, age, kept = "removed", None, "", ""
        if args.action == "prune":
            verb, age = "pruned", f" older than {args.max_age_days:g} days"
            older_than = time.time() - args.max_age_days * 86400.0
        swept = [store.sweep(older_than) for _label, store in stores]
        if args.action == "prune":
            entries = sum(store.disk_stats().entries for _l, store in stores)
            kept = f" ({entries} kept)"
        runs, curves = (counts.entries for counts in swept)
        print(
            f"{verb} {runs} run entries and {curves} curve entries{age} "
            f"from {directory}{kept}"
        )
        print(
            f"{verb} {sum(counts.orphan_tmp for counts in swept)} orphan "
            "temp files"
        )
        return 0
    now = time.time()
    rows: list[tuple[str, str, str]] = []
    for label, store in stores:
        stats = store.disk_stats()
        rows.append((label, "entries", str(stats.entries)))
        rows.append((label, "total size", _format_bytes(stats.total_bytes)))
        if stats.oldest_mtime is not None and stats.newest_mtime is not None:
            rows.append((
                label, "oldest entry",
                f"{_format_age(now - stats.oldest_mtime)} ago",
            ))
            rows.append((
                label, "newest entry",
                f"{_format_age(now - stats.newest_mtime)} ago",
            ))
        rows.append((
            label, "orphan temp files", str(len(store.orphan_tmp_paths()))
        ))
    print(render_table(
        ("Store", "Quantity", "Value"), rows, title=f"Cache {directory}"
    ))
    return 0


def _cmd_worker(args: argparse.Namespace) -> int:
    fault_plan = None
    if args.fault_plan is not None:
        fault_plan = FaultPlan.load(args.fault_plan)
    summary = run_worker(
        args.spool,
        worker_id=args.worker_id,
        poll_interval=args.poll_interval,
        heartbeat_interval=args.heartbeat_interval,
        idle_timeout=args.idle_timeout,
        max_tasks=args.max_tasks,
        fault_plan=fault_plan,
    )
    print(
        f"worker {summary.worker_id} done: {summary.claimed} claimed, "
        f"{summary.completed} completed, {summary.failed} failed"
    )
    return 0


def _cmd_spool(args: argparse.Namespace) -> int:
    if args.action == "compact":
        removed = compact_spool(args.spool_dir, stale_after=args.stale_after)
        print(render_table(
            ("Debris", "Removed"),
            [
                ("stale claims", removed.stale_claims),
                ("orphan heartbeats", removed.orphan_heartbeats),
                ("dead worker markers", removed.dead_workers),
                ("stale results", removed.stale_results),
                ("orphan temp files", removed.orphan_tmp),
                ("total", removed.total),
            ],
            title=(
                f"Compacted {args.spool_dir} "
                f"(stale after {args.stale_after:g}s)"
            ),
        ))
        return 0
    stats = spool_stats(args.spool_dir, stale_after=args.stale_after)
    rows: list[tuple[str, object]] = [
        ("pending tasks", stats.pending_tasks),
        ("claimed", stats.claimed),
        ("stale claims", stats.stale_claims),
        ("results waiting", stats.results),
        ("live workers", stats.live_workers),
        ("dead workers", stats.dead_workers),
        ("orphan temp files", stats.orphan_tmp),
        ("stop signaled", "yes" if stats.stop_signaled else "no"),
    ]
    for outcome in sorted(stats.attempts):
        rows.append((f"attempts[{outcome}]", stats.attempts[outcome]))
    print(render_table(
        ("Quantity", "Value"), rows,
        title=(
            f"Spool {args.spool_dir} (stale after {args.stale_after:g}s)"
        ),
    ))
    return 0


_COMMANDS = {
    "generate": _cmd_generate,
    "stats": _cmd_stats,
    "experiment": _cmd_experiment,
    "evolve": _cmd_evolve,
    "resolve": _cmd_resolve,
    "report": _cmd_report,
    "sweep": _cmd_sweep,
    "worker": _cmd_worker,
    "cache": _cmd_cache,
    "spool": _cmd_spool,
}


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns a process exit code.

    Library errors (:class:`~repro.errors.ReproError`) are reported on
    stderr with exit code 1 instead of a traceback.
    """
    from repro.errors import ReproError

    parser = build_parser()
    args = parser.parse_args(argv)
    if hasattr(args, "backend"):
        # Runtime flag values the config refuses (say, a negative
        # --jobs) are a usage error, before any work.
        try:
            args.runtime = _runtime_from_args(args)
        except ReproError as exc:
            parser.error(str(exc))
    handler = _COMMANDS[args.command]
    try:
        return handler(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
