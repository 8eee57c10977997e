"""Machine-readable benchmark results, tracked across PRs.

Every bench dumps its wall-clock matrix to ``BENCH_<name>.json`` at the
repo root via :func:`write_bench_result`, so the perf trajectory of the
hot paths is diffable from PR to PR instead of living only in CI logs.
The payload always carries the host context that makes timings
comparable (python/numpy versions, CPU count) next to the bench's own
numbers.

The committed JSONs are *acceptance artifacts* produced by full-size
standalone runs; reduced-size entry points (pytest smoke, ``--fast``
tripwires) must not clobber them, so benches write from those paths
only when ``REPRO_BENCH_WRITE=1`` is set explicitly
(:func:`smoke_write_enabled`).
"""

from __future__ import annotations

import json
import os
import platform
import sys
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]


def smoke_write_enabled() -> bool:
    """Whether reduced-size entry points may overwrite the JSONs."""
    return os.environ.get("REPRO_BENCH_WRITE", "") == "1"


def bench_environment() -> dict:
    """Host context stamped into every bench result."""
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "cpu_count": os.cpu_count() or 1,
        "platform": sys.platform,
    }


def write_bench_result(name: str, payload: dict) -> Path:
    """Write one bench's result to ``BENCH_<name>.json`` at the repo root.

    Args:
        name: Bench identifier (``ensemble``, ``runtime``, ``sweep``).
        payload: The bench's result matrix (JSON-serializable).

    Returns:
        The path written.
    """
    document = {
        "bench": name,
        "generated_unix": int(time.time()),
        "environment": bench_environment(),
        **payload,
    }
    path = REPO_ROOT / f"BENCH_{name}.json"
    path.write_text(
        json.dumps(document, indent=2, sort_keys=True) + "\n",
        encoding="utf-8",
    )
    return path
