"""What the package imports, checked in fresh interpreters.

numpy is the only runtime dependency (``pyproject.toml``), so importing
the package and its CLI must load no scipy module.  And ``run_fig4``
must load no module that set-up did not: a first import inside the
timed call (``np.unique`` loads ``numpy.ma`` on its first call, for
one) lands in fig4's wall clock, cold or warm.

Packages import their re-exports on first access, so fig4's set-up
loads only the modules fig4 runs: none of the other experiments,
analyses or backends, and at most :data:`FIG4_SETUP_MODULES` of
``repro``'s in all.
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

#: fig4's set-up: the imports and the corpus of ``perfbench/child.py``.
_FIG4_SETUP_MODULES = """
import json, sys

from repro.config import MiningConfig
from repro.experiments import fig4
from repro.experiments.base import ExperimentContext
from repro.runtime import RuntimeConfig, backend_degradations

ExperimentContext.create(
    scale=0.03,
    seed=9,
    region_codes=("KOR", "JPN"),
    mining=MiningConfig(min_support=0.05),
    ensemble_runs=2,
    engine="batched",
)
print(json.dumps(sorted(sys.modules)))
"""

#: The most ``repro`` modules fig4's set-up may load.
FIG4_SETUP_MODULES = 55

#: Modules fig4 never runs, so its set-up must not load them.
NOT_IN_FIG4 = (
    "repro.runtime.distributed",
    "repro.runtime.spool_tools",
    "repro.models.islands",
    "repro.models.statistics",
    "repro.experiments.ablations",
    "repro.experiments.fig1",
    "repro.experiments.fig2",
    "repro.experiments.fig3",
    "repro.experiments.islands",
    "repro.experiments.non_equilibrium",
    "repro.experiments.registry",
    "repro.experiments.table1",
    "repro.corpus.builder",
    "repro.corpus.merge",
    "repro.corpus.stats",
    "repro.analysis.category_usage",
    "repro.analysis.ingredient_usage",
    "repro.analysis.least_squares",
    "repro.analysis.overrepresentation",
    "repro.analysis.size_distribution",
    "repro.analysis.vocabulary_growth",
    "repro.synthesis.calibration",
)

_TOP_LEVEL_NAMES = """
import json, sys
import repro

loaded = sorted(name for name in sys.modules if name.startswith("repro."))
missing = [name for name in repro.__all__ if name not in dir(repro)]
unresolved = [name for name in repro.__all__ if getattr(repro, name) is None]
print(json.dumps([loaded, missing, unresolved]))
"""

_RE_EXPORTS_AFTER_SUBMODULES = """
import importlib, json, pkgutil, sys, types
import repro.experiments.fig1  # imports repro.analysis.size_distribution

packages = ["repro"] + [
    f"repro.{info.name}" for info in pkgutil.iter_modules(
        importlib.import_module("repro").__path__
    ) if info.ispkg
]
for package in packages:
    for info in pkgutil.iter_modules(importlib.import_module(package).__path__):
        importlib.import_module(f"{package}.{info.name}")
modules = sorted(
    f"{package}.{name}"
    for package in packages
    for name in getattr(sys.modules[package], "__all__", ())
    if isinstance(getattr(sys.modules[package], name), types.ModuleType)
)
from repro.analysis import size_distribution
home = sys.modules["repro.analysis.size_distribution"]
print(json.dumps([modules, size_distribution is home.size_distribution]))
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


#: Modules only a process pool needs; a serial fig4 loads none of them.
POOL_MODULES = ("multiprocessing", "concurrent.futures.process")

_SERIAL_FIG4_MODULES = _FIG4_NEW_MODULES.replace(
    "print(json.dumps(sorted(set(sys.modules) - before)))",
    "print(json.dumps(sorted(sys.modules)))",
)


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


def test_serial_fig4_loads_no_process_pool(tmp_path):
    """Set-up plus a serial ``run_fig4`` never import ``multiprocessing``."""
    loaded = _run(_SERIAL_FIG4_MODULES, str(tmp_path / "cache"))
    assert "repro.experiments.fig4" in loaded
    assert [name for name in POOL_MODULES if name in loaded] == []


def test_fig4_setup_loads_only_what_fig4_runs():
    loaded = [
        name for name in _run(_FIG4_SETUP_MODULES)
        if name == "repro" or name.startswith("repro.")
    ]
    assert "repro.experiments.fig4" in loaded
    assert [name for name in NOT_IN_FIG4 if name in loaded] == []
    assert len(loaded) <= FIG4_SETUP_MODULES


def test_top_level_names_resolve_on_use():
    """``import repro`` loads no subpackage; every ``__all__`` name is
    listed by ``dir(repro)`` and resolves when read."""
    loaded, missing, unresolved = _run(_TOP_LEVEL_NAMES)
    assert loaded == []
    assert missing == [] and unresolved == []


def test_re_exports_stay_objects_once_their_submodule_is_imported():
    """Importing ``repro.analysis.size_distribution`` (the module) does
    not replace the package's ``size_distribution`` (the function)."""
    modules, is_function = _run(_RE_EXPORTS_AFTER_SUBMODULES)
    assert modules == []
    assert is_function
