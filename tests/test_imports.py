"""What the package imports, checked in fresh interpreters.

numpy is the only runtime dependency (``pyproject.toml``), so importing
the package and its CLI must load no scipy module.  And ``run_fig4``
must load no module that set-up did not: a first import inside the
timed call (``np.unique`` loads ``numpy.ma`` on its first call, for
one) lands in fig4's wall clock, cold or warm.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

_LOADED_MODULES = """
import json, sys
import repro, repro.cli
print(json.dumps(sorted(sys.modules)))
"""

_FIG4_NEW_MODULES = """
import json, sys
from pathlib import Path

from repro.config import MiningConfig
from repro.experiments import fig4
from repro.experiments.base import ExperimentContext
from repro.runtime import RuntimeConfig

context = ExperimentContext.create(
    scale=0.03,
    seed=9,
    region_codes=("KOR", "JPN"),
    mining=MiningConfig(min_support=0.05),
    ensemble_runs=2,
    runtime=RuntimeConfig(cache_dir=Path(sys.argv[1])),
    engine="batched",
)
before = set(sys.modules)
fig4.run_fig4(context, level="ingredient")
print(json.dumps(sorted(set(sys.modules) - before)))
"""


def _run(snippet: str, *args: str) -> list[str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        part for part in (str(ROOT / "src"), env.get("PYTHONPATH", "")) if part
    )
    result = subprocess.run(
        [sys.executable, "-c", snippet, *args],
        capture_output=True,
        text=True,
        check=True,
        env=env,
        cwd=ROOT,
    )
    return json.loads(result.stdout)


def test_import_loads_no_scipy():
    loaded = _run(_LOADED_MODULES)
    assert "repro.cli" in loaded
    assert [name for name in loaded if name.split(".")[0] == "scipy"] == []


def test_run_fig4_imports_nothing_cold_or_warm(tmp_path):
    cache = tmp_path / "cache"
    cold = _run(_FIG4_NEW_MODULES, str(cache))  # simulates and mines
    assert any(cache.iterdir())
    warm = _run(_FIG4_NEW_MODULES, str(cache))  # reads the caches only
    assert {"cold": cold, "warm": warm} == {"cold": [], "warm": []}
