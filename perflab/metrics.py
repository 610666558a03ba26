"""The perf lab's metric contract: names, units, directions, derivations.

``END_TO_END`` and ``PER_LAYER`` are what ``BENCHMARK.json`` lists (a
test keeps the two in step).  Later issues refer to metrics by exactly
these names.
"""

from __future__ import annotations

import hashlib
import json
import math
import statistics
from typing import Any, Sequence

from layers import LAYERS

#: name -> (unit, better, may-worsen-by bound as a share of the parent's median).
#: The driver varies the seed between runs, so each bound is at least three
#: times the widest seed-to-seed spread of any workload (README.md has them).
END_TO_END: dict[str, tuple[str, str, float]] = {
    "setup_s": ("s", "lower", 0.25),
    "pyops_per_op": ("bytecodes/op", "lower", 0.03),
    "pycalls_per_op": ("calls/op", "lower", 0.03),
    "peak_rss_mb": ("MiB", "lower", 0.05),
    "mem_kb_per_op": ("KiB/op", "lower", 0.05),
    "virt_goodput_per_ktick": ("ok/ktick", "higher", 0.03),
    "virt_p50_ticks": ("ticks", "lower", 0.08),
    "virt_p99_ticks": ("ticks", "lower", 0.25),
    "served_frac": ("ratio", "higher", 0.03),
}

#: Metrics that are exact functions of (code, seed): they repeat bit for
#: bit, so compare.py flags any difference at all between same-seed runs.
EXACT_END_TO_END = (
    "pyops_per_op", "pycalls_per_op", "virt_goodput_per_ktick",
    "virt_p50_ticks", "virt_p99_ticks", "served_frac",
)


def _per_layer() -> dict[str, tuple[str, str]]:
    out: dict[str, tuple[str, str]] = {}
    for layer in LAYERS:
        if layer != "builtins":  # C functions execute no bytecode
            out[f"{layer}.pyops_per_op"] = ("bytecodes/op", "lower")
        out[f"{layer}.calls_per_op"] = ("calls/op", "lower")
        out[f"{layer}.self_share"] = ("ratio", "lower")
    out.update({
        "kernel.loop.resumptions_per_op": ("1/op", "lower"),
        "kernel.loop.context_switches_per_op": ("1/op", "lower"),
        "kernel.loop.spawns_per_op": ("1/op", "lower"),
        "kernel.loop.selects_per_op": ("1/op", "lower"),
        "kernel.loop.polls_per_commit": ("polls/commit", "lower"),
        "kernel.loop.procs_retained_per_op": ("1/op", "lower"),
        "kernel.sched.migrations_per_kop": ("1/kop", "lower"),
        "kernel.sched.steals_per_kop": ("1/kop", "lower"),
        "kernel.sched.balance_runs": ("count", "lower"),
        "kernel.sched.cpu_util": ("ratio", "higher"),
        "channels.sends_per_op": ("1/op", "lower"),
        "channels.blocked_sends_per_op": ("1/op", "lower"),
        "core.primitives_per_op": ("1/op", "lower"),
        "core.entry_calls_per_op": ("1/op", "lower"),
        "core.shed_frac": ("ratio", "lower"),
        "core.combined_frac": ("ratio", "higher"),
        "faults.failed_calls_per_kop": ("1/kop", "lower"),
        "faults.retry_attempts_per_op": ("1/op", "lower"),
        "faults.retry_exhausted": ("count", "lower"),
        "replication.writes": ("count", "higher"),
        "replication.reads": ("count", "higher"),
        "replication.failovers": ("count", "lower"),
        "replication.promotions": ("count", "lower"),
        "replication.catchup_writes": ("count", "lower"),
        "replication.stale_max": ("versions", "lower"),
        "replication.write_p99_ticks": ("ticks", "lower"),
        "replication.read_p99_ticks": ("ticks", "lower"),
        "obs.spans_per_op": ("1/op", "lower"),
        "obs.live_snapshots": ("count", "lower"),
        "workloads.dropped_frac": ("ratio", "lower"),
        "workloads.late_issue_p99_ticks": ("ticks", "lower"),
        "host.us_per_op_p25": ("us/op", "lower"),
        "host.us_per_op_p50": ("us/op", "lower"),
        "host.us_per_op_p75": ("us/op", "lower"),
        "host.events_per_s_p50": ("1/s", "higher"),
        "host.profile_overhead_x": ("x", "lower"),
        "host.opcount_overhead_x": ("x", "lower"),
        "host.calib_ms_p50": ("ms", "lower"),
        # End-to-end by nature, listed here because it is 0 by design and
        # the driver's relative bounds cannot gate a zero; the driver sees
        # it as ``failed``/``attempted`` on every run.
        "failed_frac": ("ratio", "lower"),
    })
    return out


PER_LAYER = _per_layer()


# -- percentiles ---------------------------------------------------------------


def percentile(values: Sequence[int], p: float) -> float:
    """Percentile of whole-tick latencies, interpolated inside ties.

    Virtual latencies are integers and bunch on a few values, so a
    nearest-rank p50 flips between 13 and 14 ticks from seed to seed —
    an 8% step that says nothing about the program.  Each value ``v`` is
    instead taken as spread evenly over ``[v - 0.5, v + 0.5)`` (the
    grouped-data percentile), which moves smoothly with the share of
    samples on either side and still depends on nothing but the sample.
    """
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    rank = p / 100 * len(ordered)
    index = min(len(ordered) - 1, max(0, math.ceil(rank) - 1))
    value = ordered[index]
    below = _count_below(ordered, value)
    ties = _count_below(ordered, value + 1) - below
    return value - 0.5 + (rank - below) / ties


def _count_below(ordered: Sequence[int], value: int) -> int:
    lo, hi = 0, len(ordered)
    while lo < hi:
        mid = (lo + hi) // 2
        if ordered[mid] < value:
            lo = mid + 1
        else:
            hi = mid
    return lo


def tail_percentile(values: Sequence[int]) -> tuple[float, int]:
    """(value, p): p99, or p95 when fewer than 10 samples lie beyond p99."""
    p = 99 if len(values) - math.ceil(0.99 * len(values)) >= 10 else 95
    return percentile(values, p), p


# -- fingerprint -----------------------------------------------------------------


def fingerprint(resumptions: int, now: int, ops: Sequence[tuple]) -> dict[str, Any]:
    """What must be identical across passes and repetitions of one run."""
    counts: dict[str, int] = {}
    for status, _latency in ops:
        counts[status] = counts.get(status, 0) + 1
    latencies = sorted(lat for status, lat in ops if status == "ok")
    digest = hashlib.sha256(
        json.dumps([resumptions, now, sorted(counts.items()), latencies]).encode()
    ).hexdigest()[:16]
    return {"resumptions": resumptions, "now": now, "counts": counts, "digest": digest}


# -- derivations: raw pass outputs -> named metrics ------------------------------

#: Refusal (``shed``) is not failure; ``served_frac`` reports it.  A lost
#: acknowledged write or an ``error`` outcome never gets this far: those
#: are output checks and fail the run.
FAILED_STATUSES = ("error", "timeout", "dropped", "unaccounted")


def virtual(trials: Sequence[dict]) -> dict[str, Any]:
    """The virtual-time metrics, pooled over a run's trials."""
    attempted = sum(t["n"] for t in trials)
    ok = [lat for t in trials for status, lat in t["ops"] if status == "ok"]
    failed = sum(1 for t in trials for status, _lat in t["ops"]
                 if status in FAILED_STATUSES)
    ticks = sum(t["end"] - t["start"] for t in trials)
    tail, tail_p = tail_percentile(ok)
    return {
        "virt_goodput_per_ktick": len(ok) * 1000 / ticks,
        "virt_p50_ticks": percentile(ok, 50),
        "virt_p99_ticks": tail,
        "tail_p": tail_p,
        "served_frac": len(ok) / attempted,
        "attempted": attempted,
        "failed": failed,
    }


def end_to_end(passes: dict[str, Any], virt: dict[str, Any]) -> dict[str, float]:
    n = passes["timed"]["n"]
    mem = passes["mem"]
    return {
        "setup_s": statistics.median(passes["setup_s"]),
        "pyops_per_op": sum(passes["opcount"]["pyops"].values()) / n,
        "pycalls_per_op": passes["profile"]["total_calls"] / n,
        "peak_rss_mb": mem["peak_rss_kb"] / 1024,
        "mem_kb_per_op": (mem["peak_rss_kb"] - mem["rss_before_kb"]) / n,
        "virt_goodput_per_ktick": virt["virt_goodput_per_ktick"],
        "virt_p50_ticks": virt["virt_p50_ticks"],
        "virt_p99_ticks": virt["virt_p99_ticks"],
        "served_frac": virt["served_frac"],
    }


def per_layer(passes: dict[str, Any], virt: dict[str, Any]) -> dict[str, float]:
    timed, profile, opcount = passes["timed"], passes["profile"], passes["opcount"]
    n = timed["n"]
    count = timed["counters"]
    stats, registry, extra = count["stats"], count["registry"], count["extra"]
    out: dict[str, float] = {}
    for layer in LAYERS:
        if layer != "builtins":
            out[f"{layer}.pyops_per_op"] = opcount["pyops"][layer] / n
        out[f"{layer}.calls_per_op"] = profile["calls"][layer] / n
        out[f"{layer}.self_share"] = profile["self_share"][layer]
    cpu_busy = count["cpu_busy"]
    q1, q2, q3 = statistics.quantiles([wall / n * 1e6 for wall in timed["walls"]], n=4)
    wall_p50 = statistics.median(timed["walls"])

    def tail(values: Sequence[int]) -> float:
        return tail_percentile(values)[0] if values else 0.0

    out.update({
        "kernel.loop.resumptions_per_op": stats["resumptions"] / n,
        "kernel.loop.context_switches_per_op": stats["context_switches"] / n,
        "kernel.loop.spawns_per_op": stats["spawns"] / n,
        "kernel.loop.selects_per_op": stats["selects"] / n,
        "kernel.loop.polls_per_commit":
            stats["guard_polls"] / stats["commits"] if stats["commits"] else 0.0,
        "kernel.loop.procs_retained_per_op": count["procs_retained"] / n,
        "kernel.sched.migrations_per_kop": stats["migrations"] * 1000 / n,
        "kernel.sched.steals_per_kop": stats["steals"] * 1000 / n,
        "kernel.sched.balance_runs": stats["balance_runs"],
        "kernel.sched.cpu_util":
            sum(cpu_busy.values()) / (count["now"] * len(cpu_busy)) if cpu_busy else 0.0,
        "channels.sends_per_op": stats["sends"] / n,
        "channels.blocked_sends_per_op": registry.get("channels.blocked_sends", 0) / n,
        "core.primitives_per_op": sum(
            stats[k] for k in ("accepts", "starts", "awaits", "finishes")) / n,
        "core.entry_calls_per_op": stats["calls_issued"] / n,
        "core.shed_frac": stats["calls_shed"] / n,
        "core.combined_frac": stats["calls_combined"] / n,
        "faults.failed_calls_per_kop": registry.get("faults.failed_calls", 0) * 1000 / n,
        "faults.retry_attempts_per_op": registry.get("retry.attempts", 0) / n,
        "faults.retry_exhausted": registry.get("retry.exhausted", 0),
        "replication.writes": registry.get("replication.writes", 0),
        "replication.reads": registry.get("replication.reads", 0),
        "replication.failovers": registry.get("replication.failovers", 0),
        "replication.promotions": registry.get("replication.promotions", 0),
        "replication.catchup_writes": registry.get("replication.catchup_writes", 0),
        "replication.stale_max": extra.get("stale_max", 0),
        "replication.write_p99_ticks": tail(extra.get("put_latencies", ())),
        "replication.read_p99_ticks": tail(extra.get("get_latencies", ())),
        "obs.spans_per_op": extra.get("spans", 0) / n,
        "obs.live_snapshots": extra.get("live_snapshots", 0),
        "workloads.dropped_frac": timed["fingerprint"]["counts"].get("dropped", 0) / n,
        "workloads.late_issue_p99_ticks": tail(extra.get("late_issue", ())),
        "host.us_per_op_p25": q1,
        "host.us_per_op_p50": q2,
        "host.us_per_op_p75": q3,
        "host.events_per_s_p50": stats["resumptions"] / wall_p50,
        "host.profile_overhead_x": profile["wall"] / wall_p50,
        "host.opcount_overhead_x": opcount["wall"] / wall_p50,
        "host.calib_ms_p50": timed["calib_ms"],
        "failed_frac": virt["failed"] / virt["attempted"],
    })
    return {name: out[name] for name in PER_LAYER}
