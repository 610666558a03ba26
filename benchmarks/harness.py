"""Shared helpers for the benchmark suite.

Each ``bench_e*.py`` module reproduces one experiment from DESIGN.md §4.
The measured quantity is *virtual-time behaviour* (throughput, latency,
process counts — the numbers the paper argues about); what the
simulation costs the host is the perf lab's question (``perflab/``).

Every experiment prints its table via :func:`print_table`, so
``pytest benchmarks/ -s`` regenerates the full set of results, and each
module exposes ``run_experiment()`` so the tables can also be produced
without pytest.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from typing import Any, Sequence

# The §2 listings' twin driver (``tests/paper_listings.py``) is shared with
# tier-1: let a bench run as a script import it from the repo root.
sys.path.append(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def print_table(title: str, rows: Sequence[dict], note: str = "") -> None:
    """Render rows (list of dicts with identical keys) as an aligned table."""
    print(f"\n## {title}")
    if not rows:
        print("(no rows)")
        return
    keys = list(rows[0])
    widths = {
        key: max(len(str(key)), *(len(_fmt(row[key])) for row in rows))
        for key in keys
    }
    header = "  ".join(str(key).rjust(widths[key]) for key in keys)
    print(header)
    print("-" * len(header))
    for row in rows:
        print("  ".join(_fmt(row[key]).rjust(widths[key]) for key in keys))
    if note:
        print(f"({note})")


def _fmt(value: Any) -> str:
    if isinstance(value, float):
        return f"{value:.2f}"
    return str(value)


def write_results(
    experiment: str,
    rows: Sequence[dict],
    seed: int | None = None,
    note: str = "",
    out_dir: str | None = None,
) -> str:
    """Persist an experiment's table as ``BENCH_<EXPERIMENT>.json``.

    The file records everything needed to reproduce and compare runs:
    the experiment id, the metric rows exactly as printed, the seed the
    workload used, and the git revision that produced them.  Returns the
    path written.  ``REPRO_BENCH_DIR`` overrides the output directory
    (default: current working directory).
    """
    out_dir = out_dir or os.environ.get("REPRO_BENCH_DIR") or "."
    path = os.path.join(out_dir, f"BENCH_{experiment.upper()}.json")
    payload = {
        "experiment": experiment.upper(),
        "seed": seed,
        "git_rev": _git_rev(),
        "note": note,
        "rows": list(rows),
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, default=str)
        fh.write("\n")
    return path


def artifact_path(filename: str, out_dir: str | None = None) -> str:
    """Where a bench artifact lands (honours ``REPRO_BENCH_DIR``)."""
    out_dir = out_dir or os.environ.get("REPRO_BENCH_DIR") or "."
    return os.path.join(out_dir, filename)


def attach_chrome_trace(kernel, experiment: str, out_dir: str | None = None) -> str:
    """Attach a Chrome ``trace_event`` sink writing ``TRACE_<EXPERIMENT>.json``.

    The file lands next to the ``BENCH_*.json`` results (same
    ``REPRO_BENCH_DIR`` override) and opens directly in Perfetto
    (https://ui.perfetto.dev) or ``chrome://tracing``.  Attaching the
    sink enables span recording; call ``kernel.obs.close()`` after the
    run to flush the file.  Returns the path that will be written.
    """
    from repro.obs import ChromeTraceSink

    out_dir = out_dir or os.environ.get("REPRO_BENCH_DIR") or "."
    path = os.path.join(out_dir, f"TRACE_{experiment.upper()}.json")
    kernel.obs.add_sink(ChromeTraceSink(path))
    return path


def _git_rev() -> str:
    try:
        return (
            subprocess.run(
                ["git", "rev-parse", "--short", "HEAD"],
                cwd=os.path.dirname(os.path.abspath(__file__)),
                capture_output=True,
                text=True,
                timeout=5,
                check=True,
            ).stdout.strip()
            or "unknown"
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
