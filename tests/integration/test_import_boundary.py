"""Running a simulation never loads the offline tools.

The linter, the trace analysers, the baselines and the ALPS source
language are read after a run or before one, never during it.  A fresh
interpreter that imports ``repro`` and the nine packages a workload
driver uses (``perflab/workloads.py``) must leave all of them unloaded,
so none of them adds to any simulation's set-up cost.
"""

import json
import os
import subprocess
import sys

ROOT = os.path.abspath(os.path.join(os.path.dirname(__file__), "..", ".."))

RUNTIME_PACKAGES = (
    "repro",
    "repro.channels",
    "repro.core",
    "repro.faults",
    "repro.kernel",
    "repro.net",
    "repro.obs",
    "repro.replication",
    "repro.stdlib",
    "repro.workloads",
)

OFFLINE_PACKAGES = ("repro.analysis", "repro.lang", "repro.baselines")
OFFLINE_MODULES = (
    "repro.kernel.waitgraph",
    "repro.obs.analyze",
    "repro.obs.diff",
    "repro.obs.regress",
    "repro.obs.live.dashboard",
)


def is_offline(name: str) -> bool:
    package = ".".join(name.split(".")[:2])
    return package in OFFLINE_PACKAGES or name in OFFLINE_MODULES


def test_runtime_imports_load_no_offline_tool():
    code = (
        "import importlib, json, sys\n"
        f"for name in {RUNTIME_PACKAGES!r}:\n"
        "    importlib.import_module(name)\n"
        "print(json.dumps(sorted(n for n in sys.modules if n.startswith('repro'))))\n"
    )
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env=env,
        cwd=ROOT,
        check=True,
    )
    loaded = json.loads(proc.stdout)
    assert set(RUNTIME_PACKAGES) <= set(loaded)
    assert [name for name in loaded if is_offline(name)] == []

