"""Parallel ensemble execution runtime.

The paper's headline statistics are ensemble averages ("we create 100
such sets of random copy-mutate recipes and study the aggregated
statistics"), and every experiment driver bottlenecks on executing those
independent runs.  This subsystem makes that fan-out a first-class,
swappable concern:

* :class:`RuntimeConfig` — backend ("serial" / "process" /
  "distributed"), worker count, optional cache directory, and the
  distributed backend's :class:`DistributedConfig` policy;
* :mod:`~repro.runtime.executor` — order-preserving map backends;
* :mod:`~repro.runtime.distributed` — the file-based work-queue
  backend: a spool directory, lease-based fault tolerance (bounded
  retries, heartbeats, per-task timeouts), ``repro worker`` processes,
  and structured :class:`TaskAttempt` records (DESIGN.md §8);
* :mod:`~repro.runtime.faults` — fault injection (kill / hang / delay)
  for proving the sweep survives worker failure bit-identically;
* :mod:`~repro.runtime.events` — the one runtime event log: every
  backend degradation, cache corruption and task attempt is a typed
  event appended by one ``record`` (warning once per cause) and read
  back by type (:func:`backend_degradations`,
  :func:`cache_corruptions`, :func:`task_attempts`).  Events recorded in a pool or spool worker
  travel back with its result and are replayed into the caller's log;
* :mod:`~repro.runtime.spool_tools` — spool telemetry and debris
  compaction behind ``repro spool stats|compact``;
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

from repro.runtime.cache import (
    CACHE_FORMAT_VERSION,
    CacheDiskStats,
    CacheStats,
    PickleStore,
    RunCache,
    fingerprint_many,
    item_key,
    run_fingerprint,
)
from repro.runtime.config import BACKENDS, DistributedConfig, RuntimeConfig
from repro.runtime.curve_cache import (
    CURVE_FORMAT_VERSION,
    CurveCache,
    cell_curve_key,
    curve_key,
    transactions_fingerprint,
)
from repro.runtime.distributed import (
    DistributedExecutor,
    LeaseLedger,
    Spool,
    TaskAttempt,
    WorkerSummary,
    run_worker,
    signal_stop,
    task_attempts,
)
from repro.runtime.executor import (
    Executor,
    ProcessExecutor,
    SerialExecutor,
    get_executor,
)
from repro.runtime.faults import FaultPlan, FaultSpec
from repro.runtime.events import (
    BackendDegradation,
    BackendDegradationWarning,
    CacheCorruption,
    CacheCorruptionWarning,
    backend_degradations,
    cache_corruptions,
)
from repro.runtime.runner import (
    ArchipelagoRequest,
    BatchRequest,
    RunRequest,
    execute_archipelago,
    execute_batch,
    execute_request,
    execute_runs,
    parallel_map,
)
from repro.runtime.sweep import (
    CellRuns,
    SweepCell,
    SweepPlan,
    SweepResult,
    execute_sweep,
    plan_cells,
    plan_grid,
    select_regions,
)
from repro.runtime.spool_tools import (
    SpoolCompaction,
    SpoolStats,
    compact_spool,
    spool_stats,
)

__all__ = [
    "ArchipelagoRequest",
    "BACKENDS",
    "BackendDegradation",
    "BackendDegradationWarning",
    "BatchRequest",
    "CACHE_FORMAT_VERSION",
    "CURVE_FORMAT_VERSION",
    "CacheCorruption",
    "CacheCorruptionWarning",
    "CacheDiskStats",
    "CacheStats",
    "CellRuns",
    "CurveCache",
    "DistributedConfig",
    "DistributedExecutor",
    "Executor",
    "FaultPlan",
    "FaultSpec",
    "LeaseLedger",
    "PickleStore",
    "ProcessExecutor",
    "RunCache",
    "RunRequest",
    "RuntimeConfig",
    "SerialExecutor",
    "Spool",
    "SpoolCompaction",
    "SpoolStats",
    "SweepCell",
    "SweepPlan",
    "SweepResult",
    "TaskAttempt",
    "WorkerSummary",
    "backend_degradations",
    "cache_corruptions",
    "cell_curve_key",
    "compact_spool",
    "curve_key",
    "execute_archipelago",
    "execute_batch",
    "execute_request",
    "execute_runs",
    "execute_sweep",
    "fingerprint_many",
    "get_executor",
    "item_key",
    "parallel_map",
    "plan_cells",
    "plan_grid",
    "run_fingerprint",
    "run_worker",
    "select_regions",
    "signal_stop",
    "spool_stats",
    "task_attempts",
    "transactions_fingerprint",
]
