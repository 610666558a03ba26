"""Byte identity of what ``alpslint`` prints, pinned by recorded output.

A refactor of ``repro.analysis`` changes how findings are *computed*,
never what a user reads.  Every scenario below runs ``main()`` from the
repo root over the four linted trees with relative paths — so the
recorded paths are the ones CI prints — and compares the bytes with the
recording under ``tests/fixtures/alpslint/``: text, ``--format json``
and ``--sarif`` in both modes, the merged call graph as ``--dot``, and
the ``DeadlockError`` message of every ``tests/fixtures/deadlock``
program (the runtime twin of the ALP120 text).

Re-record (only when a change is *meant* to move an output)::

    PYTHONPATH=src python tests/analysis/test_output_identity.py
"""

from __future__ import annotations

import contextlib
import glob
import importlib.util
import io
import json
import os
import tempfile
from pathlib import Path

import pytest

from repro.analysis.cli import main
from repro.errors import DeadlockError
from repro.kernel import Kernel

ROOT = Path(__file__).resolve().parent.parent.parent
FIXTURES = ROOT / "tests" / "fixtures" / "alpslint"
TREES = [
    "src/repro",
    "examples",
    "tests/fixtures/analysis",
    "tests/fixtures/deadlock",
]


@contextlib.contextmanager
def _in_root():
    previous = os.getcwd()
    os.chdir(ROOT)
    try:
        yield
    finally:
        os.chdir(previous)


def alpslint(*flags: str) -> str:
    """What ``alpslint FLAGS TREES`` writes to stdout, run from ROOT."""
    out = io.StringIO()
    with _in_root(), contextlib.redirect_stdout(out):
        main([*flags, *TREES])
    return out.getvalue()


def sarif(*flags: str) -> str:
    with tempfile.TemporaryDirectory() as tmp:
        target = os.path.join(tmp, "out.sarif")
        alpslint(*flags, "--sarif", target)
        return Path(target).read_text(encoding="utf-8")


def deadlock_messages() -> str:
    """``str(DeadlockError)`` of every deadlock fixture, as one JSON map."""
    messages = {}
    for path in sorted(glob.glob(str(ROOT / "tests/fixtures/deadlock/dl_*.py"))):
        name = os.path.basename(path)[:-3]
        spec = importlib.util.spec_from_file_location("identity_" + name, path)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        kernel = Kernel()
        module.build(kernel)
        with pytest.raises(DeadlockError) as excinfo:
            kernel.run()
        messages[name] = str(excinfo.value)
    return json.dumps(messages, indent=1, sort_keys=True) + "\n"


SCENARIOS = {
    "plain.txt": lambda: alpslint(),
    "plain.json": lambda: alpslint("--format", "json"),
    "plain.sarif": lambda: sarif(),
    "merged.txt": lambda: alpslint("--whole-program"),
    "merged.json": lambda: alpslint("--whole-program", "--format", "json"),
    "merged.sarif": lambda: sarif("--whole-program"),
    "merged.dot": lambda: alpslint("--whole-program", "--dot"),
    "deadlock_errors.json": deadlock_messages,
}


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_output_matches_recorded(name):
    recorded = (FIXTURES / name).read_text(encoding="utf-8")
    assert SCENARIOS[name]() == recorded


def test_fixtures_cover_every_scenario_and_nothing_else():
    assert {p.name for p in FIXTURES.iterdir()} == set(SCENARIOS)


def test_recordings_are_not_vacuous():
    """Both modes report findings, and the graph has a red cycle."""
    plain = json.loads((FIXTURES / "plain.json").read_text())
    merged = json.loads((FIXTURES / "merged.json").read_text())
    assert {f["code"] for f in plain} >= {"ALP101", "ALP114", "ALP120", "ALP121"}
    assert {f["code"] for f in merged} >= {"ALP101", "ALP114", "ALP120", "ALP121"}
    assert "color=red" in (FIXTURES / "merged.dot").read_text()
    assert all(
        "wait-for cycle" in text
        for text in json.loads((FIXTURES / "deadlock_errors.json").read_text()).values()
    )


if __name__ == "__main__":
    FIXTURES.mkdir(parents=True, exist_ok=True)
    for name, run in sorted(SCENARIOS.items()):
        (FIXTURES / name).write_text(run(), encoding="utf-8")
        print("recorded", name)
