"""The measurement passes, child side.

``run.py`` starts one fresh interpreter per pass (``PYTHONHASHSEED=0``,
one busy process at a time); this module is what runs inside it.  Every
pass sets up the reference trial of the workload, measures how long that
took since the parent spawned it, runs it under the pass's instrument,
runs the workload's output checks, and prints one JSON object.

============ ==================================================================
``setup``    set-up only: one more ``setup_s`` sample
``timed``    nothing installed: warm-up, same-seed repetitions for
             ``--seconds`` (at least five, fingerprints must agree), then
             the workload's remaining trials for the pooled ``virt_*``
``mem``      nothing installed, one run: RSS before, peak RSS (VmHWM) after
``profile``  ``cProfile`` around the run: calls and self time per layer
``opcount``  ``sys.settrace`` opcode events: bytecodes per layer
============ ==================================================================
"""

from __future__ import annotations

import dataclasses
import gc
import json
import statistics
import sys
import time
import layers
import metrics
import workloads
from workloads import CheckFailed, RunResult, Scenario, check

MIN_REPS = 5


def trial_seed(seed: int, trial: int) -> int:
    """Input seed of trial ``trial`` >= 1 (trial 0, the reference, is ``seed``)."""
    return seed * 1009 + trial


def fingerprint_of(scenario: Scenario, result: RunResult) -> dict:
    kernel = scenario.kernel
    return metrics.fingerprint(kernel.stats.resumptions, kernel.clock.now, result.ops)


def run_checked(scenario: Scenario) -> tuple[RunResult, dict, float]:
    """Run, check outputs, fingerprint.  Returns (result, fingerprint, wall s)."""
    started = time.perf_counter()
    scenario.run()
    wall = time.perf_counter() - started
    result = scenario.finish()
    return result, fingerprint_of(scenario, result), wall


def counters(scenario: Scenario, result: RunResult) -> dict:
    """Kernel-side counts of one run: KernelStats fields and the typed registry."""
    kernel = scenario.kernel
    return {
        "stats": {
            f.name: getattr(kernel.stats, f.name)
            for f in dataclasses.fields(kernel.stats)
            if f.name not in ("custom", "cpu")
        },
        "cpu_busy": dict(kernel.stats.cpu),
        "registry": kernel.metrics.snapshot(),
        "now": kernel.clock.now,
        "procs_retained": kernel.process_count(alive_only=False),
        "extra": result.extra,
    }


def calibrate() -> float:
    """Milliseconds a fixed pure-Python loop takes: what the machine was doing."""
    samples = []
    for _ in range(5):
        started = time.perf_counter()
        total = 0
        for i in range(200_000):
            total += i & 7
        samples.append((time.perf_counter() - started) * 1000)
    return statistics.median(samples)


def proc_status_kb(field: str) -> int:
    """``VmRSS`` / ``VmHWM`` of this process, in KiB."""
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith(field + ":"):
                return int(line.split()[1])
    raise RuntimeError(f"/proc/self/status has no {field}")


def timed_pass(name: str, seed: int, seconds: float, first: Scenario) -> dict:
    spec = workloads.WORKLOADS[name]
    _result, reference, _wall = run_checked(first)  # warm-up
    walls: list[float] = []
    measure_started = time.perf_counter()
    while len(walls) < MIN_REPS or time.perf_counter() - measure_started < seconds:
        scenario = spec.build(seed)
        result, fp, wall = run_checked(scenario)
        check(fp == reference,
              f"{name}: repetition {len(walls) + 1} fingerprint {fp} != warm-up {reference}")
        walls.append(wall)
    trials = [result] + [
        run_checked(spec.build(trial_seed(seed, trial)))[0]
        for trial in range(1, spec.trials)
    ]
    if spec.twin is not None:
        twin = run_checked(workloads.WORKLOADS[spec.twin].build(seed))[1]
        check(twin == reference,
              f"{name}: fingerprint {reference} != {spec.twin}'s {twin} (same traffic)")
    return {
        "fingerprint": reference,
        "n": result.n,
        "walls": walls,
        "calib_ms": calibrate(),
        "counters": counters(scenario, result),
        "trials": [
            {"n": r.n, "start": r.start, "end": r.end, "ops": r.ops} for r in trials
        ],
    }


def mem_pass(scenario: Scenario) -> dict:
    # Peak RSS is VmHWM, not ru_maxrss: across fork+exec the kernel seeds
    # the child's ru_maxrss with the *parent's* resident set, so it would
    # report run.py's own footprint whenever that is the larger one.
    gc.collect()
    before = proc_status_kb("VmRSS")
    scenario.run()
    peak = proc_status_kb("VmHWM")
    result = scenario.finish()
    return {
        "fingerprint": fingerprint_of(scenario, result),
        "n": result.n,
        "rss_before_kb": before,
        "peak_rss_kb": peak,
    }


def instrumented_pass(scenario: Scenario, instrument) -> dict:
    """Run under ``instrument`` (a context manager); checks run outside it."""
    started = time.perf_counter()
    with instrument:
        scenario.run()
    wall = time.perf_counter() - started
    result = scenario.finish()
    return {"fingerprint": fingerprint_of(scenario, result), "n": result.n, "wall": wall}


def main(argv: list[str]) -> int:
    pass_name, name, seed, seconds, spawned_at = (
        argv[0], argv[1], int(argv[2]), float(argv[3]), float(argv[4]))
    scenario = workloads.WORKLOADS[name].build(seed)
    # CLOCK_MONOTONIC is system-wide on Linux, so the parent's reading at
    # spawn and ours now measure interpreter start + imports + set-up.
    setup_s = time.monotonic() - spawned_at
    try:
        if pass_name == "setup":
            out: dict = {}
        elif pass_name == "timed":
            out = timed_pass(name, seed, seconds, scenario)
        elif pass_name == "mem":
            out = mem_pass(scenario)
        elif pass_name == "profile":
            profile = layers.CallProfile(layers.default_layer_map())
            out = instrumented_pass(scenario, profile)
            out.update(profile.report())
        elif pass_name == "opcount":
            counter = layers.OpcodeCounter(layers.default_layer_map())
            out = instrumented_pass(scenario, counter)
            out["pyops"] = counter.counts()
        else:
            raise SystemExit(f"unknown pass {pass_name!r}")
    except CheckFailed as exc:
        print(f"perflab: output check failed in {pass_name} pass of {name}: {exc}",
              file=sys.stderr)
        return 3
    out["setup_s"] = setup_s
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
