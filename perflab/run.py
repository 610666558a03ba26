#!/usr/bin/env python3
"""The perf lab: run the workloads, check their outputs, print every metric.

    python perflab/run.py [--workload W] [--seed S] [--seconds T] [--out DIR]

Without ``--workload`` all seven run and ``RESULTS.json`` is written.
Each workload is measured by the passes of ``passes.py``, one fresh
interpreter each, one at a time.  ``--trace 0|1`` is the benchmark
driver's protocol (see BENCHMARK.json): the last line of output is then
one JSON object with the end-to-end (0) or per-layer (1) metrics.

Exit status is non-zero when ``src/`` is missing, an output check fails,
the passes disagree on the fingerprint, or the layers do not add up.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import statistics
import sys
import time

import layers
import metrics

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
DEFAULT_SEED = 11  # 23 is the held-out seed for checking claims
SETUP_ONLY_RUNS = 3  # on top of the four passes' own set-up samples
WORKLOAD_DEADLINE_S = 170  # the driver allows one run 180 s


class BenchFailed(Exception):
    """The benchmark could not produce a trustworthy result."""


def spawn_pass(pass_name: str, workload: str, seed: int, seconds: float,
               deadline: float) -> dict:
    env = dict(os.environ, PYTHONHASHSEED="0")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, env.get("PYTHONPATH")) if p)
    command = [sys.executable, os.path.join(HERE, "passes.py"), pass_name, workload,
               str(seed), str(seconds), repr(time.monotonic())]
    try:
        done = subprocess.run(command, env=env, stdout=subprocess.PIPE, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise BenchFailed(f"{workload}: out of time in the {pass_name} pass "
                          f"({WORKLOAD_DEADLINE_S} s for all passes)")
    if done.returncode != 0:
        raise BenchFailed(f"{workload}: {pass_name} pass exited {done.returncode}")
    return json.loads(done.stdout.splitlines()[-1])


def measure(workload: str, seed: int, seconds: float) -> dict:
    """All passes of one workload, cross-checked."""
    deadline = time.monotonic() + WORKLOAD_DEADLINE_S
    passes = {name: spawn_pass(name, workload, seed, seconds, deadline)
              for name in ("timed", "mem", "profile", "opcount")}
    passes["setup_s"] = [passes[name]["setup_s"] for name in passes] + [
        spawn_pass("setup", workload, seed, seconds, deadline)["setup_s"]
        for _ in range(SETUP_ONLY_RUNS)
    ]
    reference = passes["timed"]["fingerprint"]
    for name in ("mem", "profile", "opcount"):
        if passes[name]["fingerprint"] != reference:
            raise BenchFailed(
                f"{workload}: {name} pass fingerprint {passes[name]['fingerprint']} "
                f"!= timed pass {reference}; counts under instrumentation would "
                f"not describe the uninstrumented program")
    return passes


def layers_report(workload: str, seed: int, passes: dict) -> dict:
    n = passes["timed"]["n"]
    profile, pyops = passes["profile"], passes["opcount"]["pyops"]
    return {
        "workload": workload,
        "seed": seed,
        "ops": n,
        "layers": [
            {
                "layer": layer,
                "pyops": pyops.get(layer, 0),
                "pyops_per_op": pyops.get(layer, 0) / n,
                "calls": profile["calls"][layer],
                "calls_per_op": profile["calls"][layer] / n,
                "self_s": profile["self_s"][layer],
                "self_share": profile["self_share"][layer],
            }
            for layer in layers.LAYERS
        ],
        "edges": profile["edges"],
        "top_self": profile["top_self"],
    }


def check_additivity(workload: str, passes: dict) -> None:
    """A saving must land in one row: the layer rows sum to the totals, exactly."""
    pyops, profile = passes["opcount"]["pyops"], passes["profile"]
    for what, rows, total in (
        ("pyops", [pyops.get(layer, 0) for layer in layers.LAYERS], sum(pyops.values())),
        ("pycalls", [profile["calls"][layer] for layer in layers.LAYERS],
         profile["total_calls"]),
    ):
        if sum(rows) != total:
            raise BenchFailed(
                f"{workload}: the layer rows of {what} sum to {sum(rows)}, "
                f"the total is {total}")


def setup_spread(samples: list[float]) -> float:
    """Interquartile range of the set-up samples as a share of their median."""
    q1, q2, q3 = statistics.quantiles(samples, n=4)
    return (q3 - q1) / q2


def git_rev() -> str:
    try:
        done = subprocess.run(["git", "rev-parse", "--short", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def print_metrics(workload: str, values: dict, units: dict) -> None:
    for name, value in values.items():
        print(f"{workload:14s} {name:38s} {value:>16.6g} {units[name][0]}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=2.0,
                        help="wall-clock window of the timed pass's repetitions")
    parser.add_argument("--trace", type=int, choices=(0, 1))
    parser.add_argument("--out", default=os.path.join(HERE, "out"))
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"perflab: {SRC}/repro is missing — the benchmark measures the "
              f"program under src/ and has nothing to run without it",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import workloads

    if args.workload is not None and args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(workloads.WORKLOADS)}")
    if args.trace is not None and args.workload is None:
        parser.error("--trace reports one workload; name it with --workload")
    names = [args.workload] if args.workload else list(workloads.WORKLOADS)
    os.makedirs(args.out, exist_ok=True)
    results: dict[str, dict] = {}
    try:
        for name in names:
            passes = measure(name, args.seed, args.seconds)
            virt = metrics.virtual(passes["timed"]["trials"])
            e2e = metrics.end_to_end(passes, virt)
            layer = metrics.per_layer(passes, virt)
            check_additivity(name, passes)
            with open(os.path.join(args.out, f"LAYERS_{name}.json"), "w",
                      encoding="utf-8") as fh:
                json.dump(layers_report(name, args.seed, passes), fh, indent=1)
            results[name] = {
                "ops": passes["timed"]["n"],
                "fingerprint": passes["timed"]["fingerprint"],
                "tail_percentile": virt["tail_p"],
                "attempted": virt["attempted"],
                "failed": virt["failed"],
                "spread": {"setup_s": setup_spread(passes["setup_s"])},
                "end_to_end": e2e,
                "per_layer": layer,
            }
            print_metrics(name, e2e, metrics.END_TO_END)
            print_metrics(name, layer, metrics.PER_LAYER)
            if virt["tail_p"] != 99:
                print(f"{name:14s} note: virt_p99_ticks is p{virt['tail_p']} "
                      f"(fewer than 10 served samples beyond p99)")
    except BenchFailed as exc:
        print(f"perflab: FAILED: {exc}", file=sys.stderr)
        return 1

    if args.workload is None:
        with open(os.path.join(args.out, "RESULTS.json"), "w", encoding="utf-8") as fh:
            json.dump({
                "seed": args.seed,
                "git_rev": git_rev(),
                "python": platform.python_version(),
                "workloads": results,
            }, fh, indent=1)
    if args.trace is not None:
        only = results[args.workload]
        chosen = only["end_to_end" if args.trace == 0 else "per_layer"]
        units = metrics.END_TO_END if args.trace == 0 else metrics.PER_LAYER
        print(json.dumps({
            "correct": True,
            "attempted": only["attempted"],
            "failed": only["failed"],
            "metrics": {k: {"value": v, "unit": units[k][0]} for k, v in chosen.items()},
        }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
