"""Parallel ensemble execution runtime.

The paper's headline statistics are ensemble averages ("we create 100
such sets of random copy-mutate recipes and study the aggregated
statistics"), and every experiment driver bottlenecks on executing those
independent runs.  This subsystem makes that fan-out a first-class,
swappable concern:

* :class:`RuntimeConfig` — backend ("serial" / "process"), worker
  count and optional cache directory;
* :mod:`~repro.runtime.executor` — order-preserving map backends;
* :mod:`~repro.runtime.events` — the one runtime event log: every
  backend degradation, cache corruption and cache write failure is a
  typed event appended by one ``record`` (warning once per cause) and
  read back by type (:func:`backend_degradations`,
  :func:`cache_corruptions`, :func:`cache_write_failures`).  Events recorded in a pool worker
  travel back with its result and are replayed into the caller's log;
* :mod:`~repro.runtime.runner` — deterministic run execution
  (:func:`execute_runs`) built on per-run integer seed streams: the
  cell is the unit of dispatch, so an ``engine="batched"`` cell runs
  as one stacked pass (DESIGN.md §7); plus :func:`parallel_map` for
  the per-cell mining fan-out;
* :mod:`~repro.runtime.cache` — an on-disk run cache, one entry per
  work item keyed by its runs' ``(model, params, cuisine, seed)``
  keys (:func:`item_key`), shared across backends and invocations;
* :mod:`~repro.runtime.curve_cache` — a cache of mined rank-frequency
  curves layered beside the run cache (same directory, distinct entry
  suffix; one entry per model cell keyed by its runs' keys, empirical
  curves by content), so warm sweeps and experiments skip re-mining entirely
  (DESIGN.md §6);
* :mod:`~repro.runtime.sweep` — the grid sweep planner: expand a full
  (model × cuisine × seed) grid into per-cell seed streams, dispatch
  every cell's work items across the backend in a single pass, and
  collect them back into per-cell ensembles, or reduce each cell
  where it ran (:func:`plan_grid` / :func:`execute_sweep`).

The determinism contract: for a fixed master seed, every backend
produces **bit-identical** :class:`~repro.models.base.EvolutionRun`
results, because per-run seeds are drawn once in the parent and each
worker reconstructs its generator from the integer seed alone.
"""

from repro import _lazy_exports

__getattr__, __dir__, __all__ = _lazy_exports(__name__, {
    "cache": (
        "CACHE_FORMAT_VERSION",
        "CacheDiskStats",
        "CacheStats",
        "PickleStore",
        "RunCache",
        "fingerprint_many",
        "item_key",
        "run_fingerprint",
    ),
    "config": ("BACKENDS", "RuntimeConfig"),
    "curve_cache": (
        "CURVE_FORMAT_VERSION",
        "CurveCache",
        "cell_curve_key",
        "curve_key",
        "transactions_fingerprint",
    ),
    "executor": ("Executor", "ProcessExecutor", "SerialExecutor", "get_executor"),
    "events": (
        "BackendDegradation",
        "BackendDegradationWarning",
        "CacheCorruption",
        "CacheCorruptionWarning",
        "CacheWriteFailure",
        "CacheWriteFailureWarning",
        "backend_degradations",
        "cache_corruptions",
        "cache_write_failures",
    ),
    "runner": (
        "ArchipelagoRequest",
        "BatchRequest",
        "RunRequest",
        "execute_archipelago",
        "execute_batch",
        "execute_request",
        "execute_runs",
        "parallel_map",
    ),
    "sweep": (
        "CellRuns",
        "SweepCell",
        "SweepPlan",
        "SweepResult",
        "execute_sweep",
        "plan_cells",
        "plan_grid",
        "select_regions",
    ),
})
