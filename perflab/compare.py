#!/usr/bin/env python3
"""Compare two perf-lab result files: one verdict per (metric, workload).

    python perflab/compare.py A/RESULTS.json B/RESULTS.json

A is the parent, B the change.  Verdicts use only the bounds in
BENCHMARK.json:

* ``improved``      B is better than A (for a wall-clock or RSS metric:
                    by more than the bound);
* ``within bound``  B equals A, or is worse by no more than the bound;
* ``regressed``     B is worse than A by more than the bound;
* ``unresolved``    B is worse by more than the bound, but the samples
                    inside one of the runs spread wider than the bound.

Exact metrics (bytecode and call counts, virtual time) repeat bit for
bit at one seed, so any difference is real and is listed; ``host.*`` is
printed with its quartiles and never gets a verdict.  Exit status 1 when
anything regressed.
"""

from __future__ import annotations

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))

#: Per-layer metrics that are measured times, not counts.
NOISY_PER_LAYER = ("host.", ".self_share")


def load_bounds() -> dict[str, tuple[str, float]]:
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    return {m["name"]: (m["better"], m["bound"]) for m in spec["end_to_end"]}


def verdict(a: float, b: float, better: str, bound: float, exact: bool,
            spread: float = 0.0) -> str:
    """Verdict on one metric moving from ``a`` (parent) to ``b`` (change)."""
    if a == b:
        return "within bound"
    worse = (b - a if better == "lower" else a - b) / abs(a) if a else float("inf")
    if worse > bound:
        return "unresolved" if spread > bound else "regressed"
    if worse < 0 and (exact or -worse > bound):
        return "improved"
    return "within bound"


def compare(a: dict, b: dict, bounds: dict[str, tuple[str, float]],
            exact_names: tuple[str, ...]) -> tuple[list[tuple], list[tuple]]:
    """(verdict rows, exact-metric differences) for two result documents."""
    same_seed = a["seed"] == b["seed"]
    rows, differences = [], []
    for workload, wa in a["workloads"].items():
        wb = b["workloads"].get(workload)
        if wb is None:
            continue
        for name, (better, bound) in bounds.items():
            va, vb = wa["end_to_end"][name], wb["end_to_end"][name]
            exact = same_seed and name in exact_names
            spread = max(wa.get("spread", {}).get(name, 0.0),
                         wb.get("spread", {}).get(name, 0.0))
            rows.append((workload, name, va, vb,
                         verdict(va, vb, better, bound, exact, spread)))
            if exact and va != vb:
                differences.append((workload, name, va, vb))
        if same_seed:
            for name, va in wa["per_layer"].items():
                vb = wb["per_layer"][name]
                if va != vb and not any(tag in name for tag in NOISY_PER_LAYER):
                    differences.append((workload, name, va, vb))
    return rows, differences


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    sys.path.insert(0, HERE)
    from metrics import EXACT_END_TO_END

    with open(argv[0], encoding="utf-8") as fh:
        a = json.load(fh)
    with open(argv[1], encoding="utf-8") as fh:
        b = json.load(fh)
    if a["seed"] != b["seed"]:
        print(f"seeds differ ({a['seed']} vs {b['seed']}): inputs are not the same, "
              f"so exact metrics are compared by bound only")
    rows, differences = compare(a, b, load_bounds(), EXACT_END_TO_END)
    for workload, name, va, vb, result in rows:
        print(f"{workload:14s} {name:24s} {va:>14.6g} -> {vb:>14.6g}  {result}")
    for workload, wa in a["workloads"].items():
        wb = b["workloads"].get(workload)
        if wb is not None:
            qa = [wa["per_layer"][f"host.us_per_op_p{p}"] for p in (25, 50, 75)]
            qb = [wb["per_layer"][f"host.us_per_op_p{p}"] for p in (25, 50, 75)]
            print(f"{workload:14s} host.us_per_op           "
                  f"{qa[0]:.1f}/{qa[1]:.1f}/{qa[2]:.1f} -> "
                  f"{qb[0]:.1f}/{qb[1]:.1f}/{qb[2]:.1f}  (p25/p50/p75, no verdict)")
    for workload, name, va, vb in differences:
        print(f"exact metric moved: {workload} {name}: {va!r} -> {vb!r}")
    regressed = sum(1 for row in rows if row[4] == "regressed")
    print(f"{regressed} regressed, "
          f"{sum(1 for row in rows if row[4] == 'unresolved')} unresolved, "
          f"{sum(1 for row in rows if row[4] == 'improved')} improved, "
          f"{len(differences)} exact-metric differences")
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
