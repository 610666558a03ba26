"""repro.obs.regress — benchmark trajectory and perf-regression gate.

The benchmark suite writes one ``BENCH_E<k>.json`` per experiment —
virtual-time numbers that are fully deterministic for a given source
tree, so any change is a *real* behavioural change, not noise.  This
module keeps those numbers honest across PRs:

* ``BENCH_HISTORY.jsonl`` is the committed trajectory: one JSON line per
  recorded experiment run, carrying the git revision and the tracked
  metrics flattened to ``cell:metric`` keys;
* ``--check`` compares freshly generated ``BENCH_E*.json`` files against
  the latest recorded entry per experiment and **fails with a readable
  report** when a tracked metric regresses beyond its tolerance;
* ``--record`` appends the current files to the trajectory (done once
  per perf-relevant PR, after review).

Tracked metrics are declared per experiment in :data:`TRACKED` with a
direction and a relative tolerance; hard invariants (``lost_acked``)
use tolerance 0 against a zero baseline, so *any* acknowledged-write
loss fails the gate.

CLI (also reachable as ``tools/benchdiff.py``)::

    python -m repro.obs.regress --check            # CI gate
    python -m repro.obs.regress --record           # extend the trajectory
    python -m repro.obs.regress --show             # print the trajectory

Exit codes: 0 clean, 1 regression (or empty history on ``--check``),
2 usage/input errors.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import sys
from typing import Any, Iterable

DEFAULT_HISTORY = "BENCH_HISTORY.jsonl"


class Metric:
    """Direction and tolerance of one tracked benchmark column."""

    __slots__ = ("name", "higher_is_better", "tolerance")

    def __init__(self, name: str, higher_is_better: bool, tolerance: float) -> None:
        self.name = name
        self.higher_is_better = higher_is_better
        #: Relative slack before a move in the bad direction is a
        #: regression (0.0 = any worsening fails).
        self.tolerance = tolerance

    def regressed(self, baseline: float, current: float) -> bool:
        if baseline == 0:
            # Zero baselines are hard floors/ceilings: moving off zero in
            # the bad direction is a regression regardless of tolerance.
            return current < 0 if self.higher_is_better else current > 0
        if self.higher_is_better:
            return current < baseline * (1.0 - self.tolerance)
        return current > baseline * (1.0 + self.tolerance)


class Experiment:
    """Which rows and columns of one ``BENCH_E*.json`` are tracked."""

    __slots__ = ("id_keys", "metrics")

    def __init__(self, id_keys: tuple[str, ...], metrics: Iterable[Metric]) -> None:
        self.id_keys = id_keys
        self.metrics = {m.name: m for m in metrics}


#: The regression contract: per experiment, the row-identifying columns
#: and the metrics gated (direction, relative tolerance).
TRACKED: dict[str, Experiment] = {
    "E1": Experiment(
        ("mechanism", "size"),
        [Metric("ops_per_ktick", higher_is_better=True, tolerance=0.05),
         Metric("switches", higher_is_better=False, tolerance=0.10)],
    ),
    "E12": Experiment(
        ("loss", "policy"),
        [Metric("completed_frac", higher_is_better=True, tolerance=0.02),
         Metric("goodput_per_ktick", higher_is_better=True, tolerance=0.05),
         Metric("p95_response", higher_is_better=False, tolerance=0.10)],
    ),
    "E13": Experiment(
        ("replicas", "plan"),
        [Metric("completed_frac", higher_is_better=True, tolerance=0.02),
         Metric("goodput_per_ktick", higher_is_better=True, tolerance=0.05),
         Metric("lost_acked", higher_is_better=False, tolerance=0.0)],
    ),
    "E14": Experiment(
        ("object", "arrival", "mean_gap"),
        [Metric("goodput_per_ktick", higher_is_better=True, tolerance=0.05),
         Metric("p99", higher_is_better=False, tolerance=0.10),
         # Harness invariant: an `error` outcome is a bug in the driven
         # object, so any move off zero fails the gate.
         Metric("error", higher_is_better=False, tolerance=0.0)],
    ),
    "E15": Experiment(
        ("config", "mean_gap"),
        # goodput_per_ktick exists on the calm knee-sweep rows only,
        # post_goodput on the crash-and-heal rows only; flatten() skips
        # the absent combinations.
        [Metric("goodput_per_ktick", higher_is_better=True, tolerance=0.05),
         Metric("post_goodput", higher_is_better=True, tolerance=0.05),
         # Robustness hard floors: a lost acknowledged write or a broken
         # attempts-conservation check is a correctness bug, so any move
         # off zero fails regardless of tolerance.
         Metric("lost_acked", higher_is_better=False, tolerance=0.0),
         Metric("conservation_violations", higher_is_better=False, tolerance=0.0),
         Metric("error", higher_is_better=False, tolerance=0.0)],
    ),
    "E6SMP": Experiment(
        ("cpus_per_node",),
        [Metric("goodput_per_ktick", higher_is_better=True, tolerance=0.05),
         Metric("p95_response", higher_is_better=False, tolerance=0.10)],
    ),
}


def flatten(payload: dict[str, Any]) -> dict[str, float]:
    """Tracked metrics of one bench payload as ``cell:metric`` → value."""
    experiment = payload.get("experiment", "").upper()
    spec = TRACKED.get(experiment)
    if spec is None:
        return {}
    out: dict[str, float] = {}
    for row in payload.get("rows", []):
        cell = "/".join(str(row.get(k)) for k in spec.id_keys)
        for name in spec.metrics:
            value = row.get(name)
            if isinstance(value, (int, float)):
                out[f"{cell}:{name}"] = value
    return out


def _metric_of(experiment: str, key: str) -> Metric | None:
    spec = TRACKED.get(experiment)
    if spec is None:
        return None
    return spec.metrics.get(key.rsplit(":", 1)[-1])


# ----------------------------------------------------------------------
# Trajectory file
# ----------------------------------------------------------------------


def load_bench(path: str) -> dict[str, Any]:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def load_history(path: str) -> list[dict[str, Any]]:
    if not os.path.exists(path):
        return []
    entries = []
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if line:
                entries.append(json.loads(line))
    return entries


def latest_baselines(history: list[dict[str, Any]]) -> dict[str, dict[str, Any]]:
    """The most recent trajectory entry per tracked experiment.

    Entries of a retired experiment stay in the file as history and
    gate nothing.
    """
    out: dict[str, dict[str, Any]] = {}
    for entry in history:  # file order == record order
        if entry["experiment"] in TRACKED:
            out[entry["experiment"]] = entry
    return out


def record(history_path: str, bench_paths: list[str]) -> list[dict[str, Any]]:
    """Append the given bench files to the trajectory; returns new entries."""
    history = load_history(history_path)
    next_seq = 1 + max((e.get("seq", 0) for e in history), default=0)
    added = []
    for path in bench_paths:
        payload = load_bench(path)
        experiment = payload.get("experiment", "").upper()
        metrics = flatten(payload)
        if not metrics:
            continue  # untracked experiment: nothing to gate
        added.append(
            {
                "experiment": experiment,
                "seq": next_seq,
                "git_rev": payload.get("git_rev", "unknown"),
                "note": payload.get("note", ""),
                "metrics": metrics,
            }
        )
    with open(history_path, "a", encoding="utf-8") as fh:
        for entry in added:
            fh.write(json.dumps(entry, sort_keys=True) + "\n")
    return added


# ----------------------------------------------------------------------
# The check
# ----------------------------------------------------------------------


class Finding:
    """One compared metric: baseline vs current and the verdict."""

    __slots__ = ("experiment", "key", "baseline", "current", "verdict")

    def __init__(self, experiment: str, key: str, baseline: float | None,
                 current: float | None, verdict: str) -> None:
        self.experiment = experiment
        self.key = key
        self.baseline = baseline
        self.current = current
        self.verdict = verdict

    @property
    def delta(self) -> float | None:
        if self.baseline in (None, 0) or self.current is None:
            return None
        return (self.current - self.baseline) / self.baseline

    def to_dict(self) -> dict[str, Any]:
        return {
            "experiment": self.experiment,
            "metric": self.key,
            "baseline": self.baseline,
            "current": self.current,
            "verdict": self.verdict,
        }


class Report:
    """Outcome of ``--check``: every compared metric plus a verdict."""

    def __init__(self) -> None:
        self.findings: list[Finding] = []
        self.problems: list[str] = []

    @property
    def regressions(self) -> list[Finding]:
        return [f for f in self.findings if f.verdict == "REGRESSED"]

    def ok(self) -> bool:
        return not self.regressions and not self.problems

    def render(self) -> str:
        lines = ["# benchdiff: current BENCH_E*.json vs recorded trajectory"]
        by_exp: dict[str, list[Finding]] = {}
        for finding in self.findings:
            by_exp.setdefault(finding.experiment, []).append(finding)
        for experiment in sorted(by_exp):
            findings = by_exp[experiment]
            moved = [f for f in findings if f.verdict != "ok"]
            lines.append(
                f"\n## {experiment}: {len(findings)} metrics checked, "
                f"{len(moved)} moved"
            )
            shown = moved if moved else []
            for finding in shown:
                delta = finding.delta
                delta_txt = "" if delta is None else f" ({delta:+.1%})"
                lines.append(
                    f"  {finding.verdict:>9}  {finding.key}: "
                    f"{finding.baseline} -> {finding.current}{delta_txt}"
                )
            if not moved:
                lines.append("  all tracked metrics within tolerance.")
        for problem in self.problems:
            lines.append(f"\nPROBLEM: {problem}")
        lines.append(
            "\nverdict: "
            + ("OK" if self.ok() else f"{len(self.regressions)} regression(s)"
               + (f", {len(self.problems)} problem(s)" if self.problems else ""))
        )
        return "\n".join(lines)


def check(history_path: str, bench_paths: list[str]) -> Report:
    """Compare current bench files against the recorded trajectory."""
    report = Report()
    history = load_history(history_path)
    if not history:
        report.problems.append(
            f"no recorded trajectory at {history_path}; run --record first"
        )
        return report
    baselines = latest_baselines(history)
    seen: set[str] = set()
    for path in bench_paths:
        try:
            payload = load_bench(path)
        except (OSError, json.JSONDecodeError) as exc:
            report.problems.append(f"cannot read {path}: {exc}")
            continue
        experiment = payload.get("experiment", "").upper()
        if experiment not in TRACKED:
            continue
        seen.add(experiment)
        current = flatten(payload)
        base_entry = baselines.get(experiment)
        if base_entry is None:
            report.problems.append(
                f"{experiment}: present now but absent from the trajectory"
            )
            continue
        base = base_entry["metrics"]
        for key in sorted(set(base) | set(current)):
            metric = _metric_of(experiment, key)
            if metric is None:
                continue
            if key not in current:
                report.findings.append(
                    Finding(experiment, key, base[key], None, "MISSING")
                )
                report.problems.append(
                    f"{experiment}: tracked metric {key} vanished"
                )
                continue
            if key not in base:
                report.findings.append(
                    Finding(experiment, key, None, current[key], "new")
                )
                continue
            if metric.regressed(base[key], current[key]):
                verdict = "REGRESSED"
            elif current[key] != base[key]:
                verdict = "moved"
            else:
                verdict = "ok"
            report.findings.append(
                Finding(experiment, key, base[key], current[key], verdict)
            )
    for experiment in sorted(set(baselines) - seen):
        report.problems.append(
            f"{experiment}: recorded in the trajectory but no current "
            f"BENCH_{experiment}.json was given"
        )
    return report


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------


def _default_paths() -> list[str]:
    return sorted(glob.glob("BENCH_E*.json"))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="benchdiff",
        description="Track benchmark trajectories and gate perf regressions.",
    )
    parser.add_argument("benches", nargs="*",
                        help="BENCH_E*.json files (default: glob the cwd)")
    parser.add_argument("--history", default=DEFAULT_HISTORY,
                        help=f"trajectory file (default {DEFAULT_HISTORY})")
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--check", action="store_true",
                      help="fail if a tracked metric regressed vs the trajectory")
    mode.add_argument("--record", action="store_true",
                      help="append the current bench files to the trajectory")
    mode.add_argument("--show", action="store_true",
                      help="print the recorded trajectory")
    parser.add_argument("--json", action="store_true", dest="as_json")
    args = parser.parse_args(argv)

    paths = args.benches or _default_paths()

    if args.show:
        history = load_history(args.history)
        if not history:
            print(f"benchdiff: no trajectory at {args.history}")
            return 1
        for entry in history:
            print(
                f"seq {entry.get('seq')}  {entry['experiment']:>4}  "
                f"rev {entry.get('git_rev', '?')}  "
                f"{len(entry.get('metrics', {}))} metrics  {entry.get('note', '')}"
            )
        return 0

    if not paths:
        print("benchdiff: no BENCH_E*.json files found", file=sys.stderr)
        return 2

    if args.record:
        added = record(args.history, paths)
        for entry in added:
            print(
                f"recorded {entry['experiment']} (seq {entry['seq']}, "
                f"rev {entry['git_rev']}, {len(entry['metrics'])} metrics)"
            )
        if not added:
            print("benchdiff: nothing tracked in the given files", file=sys.stderr)
            return 2
        return 0

    report = check(args.history, paths)
    if args.as_json:
        print(json.dumps(
            {
                "ok": report.ok(),
                "findings": [f.to_dict() for f in report.findings],
                "problems": report.problems,
            },
            indent=2, sort_keys=True,
        ))
    else:
        print(report.render())
    return 0 if report.ok() else 1


if __name__ == "__main__":  # pragma: no cover - exercised via CLI tests
    raise SystemExit(main())
