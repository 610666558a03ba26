"""E14: open-loop traffic — goodput curves, knees, and tail latency.

The closed-loop experiments (E1–E13) let slow objects throttle their own
load: a blocked caller issues nothing.  E14 drives three stdlib objects
with the open-loop :class:`~repro.workloads.TrafficEngine` — a million
logical callers multiplexed over four engine processes — and sweeps the
offered load across the object's capacity, for three arrival shapes:

* ``uniform`` — fixed-rate arrivals (the kindest possible shape);
* ``poisson`` — memoryless arrivals at the same mean rate;
* ``bursty``  — the same mean rate delivered in back-to-back bursts.

Every object runs with a ``queue_cap``, so past saturation the manager's
load-shedding arm (``#P > cap``, §2.5.1) converts overload into fast
:class:`~repro.errors.AdmissionError` rejections instead of unbounded
queueing.  Per cell: exact outcome accounting (``issued == ok + shed +
timeout + dropped + error``), p50/p99/p999 virtual latency of the served
requests, goodput per kilotick, and whether this cell is the **knee** of
its (object, arrival) curve — the sweep step where goodput stops
tracking offered load (see EXPERIMENTS.md E14 for interpretation).

The engine's offered load is provably identical across cells that share
an arrival process: the request schedule is fixed before the kernel
runs, so mechanism and admission policy can only change *outcomes*,
never *arrivals*.

Every cell also runs with the **live telemetry plane** attached
(:mod:`repro.obs.live`): a latency window, goodput/load rates, an SLO
burn-rate monitor, and a heavy-hitter sketch of the touched keys.  The
plane is schedule-neutral by contract — asserted below by re-running a
cell without it — so the table gains ``alerts`` (burn-rate transitions
fired) and ``hot_key`` (the dominant guaranteed-share key, KV cells)
columns at zero perturbation.  The traced re-run streams dashboard
snapshots to ``LIVE_E14.jsonl`` and renders ``DASHBOARD_E14.txt``; CI
replays the JSONL through ``python -m repro.obs.live`` and ``cmp``s the
two dashboards byte for byte.
"""

from __future__ import annotations

from repro.kernel import Kernel
from repro.obs import JsonlSink
from repro.stdlib import BoundedBuffer, GatedKVStore, Spooler
from repro.workloads import (
    Bursty,
    Poisson,
    TrafficEngine,
    Uniform,
    Zipf,
    find_knee,
    summarize,
    watch_traffic,
)

from harness import artifact_path, attach_chrome_trace, print_table, write_results

SEED = 11
COUNT = 240          # requests per cell
CALLERS = 1_000_000  # logical caller ID space
ENGINES = 4
CLIENTS = 48         # per-engine in-flight bound
#: Mean inter-arrival gaps swept, fastest last (offered load rises).
GAPS = (24, 12, 6, 3, 1)
OBJECTS = ("buffer", "spooler", "kv")
ARRIVALS = ("uniform", "poisson", "bursty")

#: Zipf-skewed key popularity for the KV cells, materialized once so the
#: key sequence is a pure function of the request index (scheduling
#: order can never perturb which request touches which key).
KV_KEYS = list(Zipf([f"k{i}" for i in range(32)], s=1.2, seed=SEED).stream(COUNT))


def make_arrivals(kind: str, gap: int):
    if kind == "uniform":
        return Uniform(gap)
    if kind == "poisson":
        return Poisson(gap, seed=SEED)
    # Bursts of 8 at the same mean rate: quiet period carries the
    # whole burst's worth of gap.
    return Bursty(burst=8, quiet=8 * gap, jitter=gap, seed=SEED)


def make_target(kind: str, kernel: Kernel):
    """(object, request factory) for one cell; capacities sit inside GAPS."""
    if kind == "buffer":
        buf = BoundedBuffer(kernel, name="buf", size=8, work=4, queue_cap=12)

        def request(req):
            if req.index % 2 == 0:
                return buf.deposit(f"m{req.index}")
            return buf.remove()

        return buf, request
    if kind == "spooler":
        spool = Spooler(kernel, name="spool", printers=3, speed=8,
                        job_max=8, queue_cap=12)

        def request(req):
            return spool.print_file(f"job{req.index}")

        return spool, request
    kv = GatedKVStore(kernel, name="kv", read_work=2, write_work=6,
                      request_max=8, queue_cap=16)

    def request(req):
        key = KV_KEYS[req.index]
        if req.index % 3 == 0:
            return kv.put(key, req.index)
        return kv.get(key)

    return kv, request


#: Live-plane SLO config for every cell: 90% of requests served OK,
#: alert at 2x budget burn on both windows, clear below 1x.
LIVE_OBJECTIVE = 0.9
LIVE_FAST = 600
LIVE_SLOW = 3000


def drive(obj_kind: str, arrival_kind: str, gap: int, trace: bool = False,
          live: bool = True) -> dict:
    kernel = Kernel(seed=SEED)
    if trace:
        attach_chrome_trace(kernel, "e14")
    _, request = make_target(obj_kind, kernel)
    engine = TrafficEngine(
        kernel,
        make_arrivals(arrival_kind, gap),
        COUNT,
        request,
        callers=CALLERS,
        engines=ENGINES,
        clients=CLIENTS,
        seed=SEED,
    )
    plane = None
    capture = None
    if live:
        plane = kernel.obs.live
        if trace:
            from repro.obs import MemorySink

            kernel.obs.add_sink(
                JsonlSink(artifact_path("LIVE_E14.jsonl")), forward_trace=False
            )
            # In-memory capture of the same instants: DASHBOARD_E14.txt
            # renders from these dicts, CI re-renders from the JSONL via
            # the CLI and cmp's the two — byte identity across the
            # serialization boundary.
            capture = kernel.obs.add_sink(MemorySink(), forward_trace=False)
            plane.stream_snapshots(every=2)
        watch_traffic(
            plane, engine, objective=LIVE_OBJECTIVE, window=1200,
            fast=LIVE_FAST, slow=LIVE_SLOW,
            key=(lambda o: KV_KEYS[o.request.index]) if obj_kind == "kv"
            else None,
        )
    result = engine.run()
    if trace:
        if plane is not None:
            from repro.obs.live.dashboard import render

            snapshots = [r["detail"] for r in capture.records
                         if r.get("kind") == "live.snapshot"]
            with open(artifact_path("DASHBOARD_E14.txt"), "w",
                      encoding="utf-8") as fh:
                fh.write(render(snapshots[-1]))
            plane.write_alert_log(artifact_path("ALERTS_E14.jsonl"))
        kernel.obs.close()
    report = summarize(result)
    row = {"object": obj_kind, "arrival": arrival_kind, "mean_gap": gap}
    row.update(report.to_row())
    if plane is not None:
        monitor = plane.monitors["traffic.traffic.slo"]
        row["alerts"] = sum(1 for e in monitor.events if e.state == "firing")
        hot = plane.hot_keys("traffic.traffic.callers").candidates(0.15)
        row["hot_key"] = hot[0] if (hot and obj_kind == "kv") else ""
    return row


def run_experiment() -> list[dict]:
    rows = []
    for obj_kind in OBJECTS:
        for arrival_kind in ARRIVALS:
            curve = [drive(obj_kind, arrival_kind, gap) for gap in GAPS]
            knee = find_knee(
                [(r["offered_per_ktick"], r["goodput_per_ktick"]) for r in curve]
            )
            for i, row in enumerate(curve):
                row["knee"] = i == knee
            rows.extend(curve)
    return rows


def cell_row(rows: list[dict], obj_kind: str, arrival_kind: str, gap: int) -> dict:
    return next(
        r for r in rows
        if r["object"] == obj_kind
        and r["arrival"] == arrival_kind
        and r["mean_gap"] == gap
    )


def test_e14_table(capsys):
    rows = run_experiment()
    with capsys.disabled():
        print_table(
            f"E14 open-loop traffic ({COUNT} requests/cell, "
            f"{CALLERS} callers over {ENGINES} engines)",
            rows,
            note="same engine seed per cell; only object and arrivals vary",
        )
    write_results(
        "e14", rows, seed=SEED,
        note=f"objects {OBJECTS}, arrivals {ARRIVALS}, gaps {GAPS}",
    )

    # Exact accounting everywhere (engine.run() already asserted
    # conservation; the rows must also show zero unexpected errors).
    assert all(r["error"] == 0 for r in rows)
    assert all(r["timeout"] == 0 for r in rows)
    assert all(
        r["ok"] + r["shed"] + r["dropped"] == r["issued"] for r in rows
    )

    # Every cell served something, so the percentiles are real latencies.
    assert all(r["ok"] > 0 and r["p99"] is not None for r in rows)

    for obj_kind in OBJECTS:
        for arrival_kind in ARRIVALS:
            curve = [cell_row(rows, obj_kind, arrival_kind, g) for g in GAPS]
            # The sweep crosses the knee: the lightest load is (near-)
            # fully served, the heaviest is visibly saturated.
            assert curve[0]["goodput_fraction"] >= 0.95, curve[0]
            assert curve[-1]["goodput_fraction"] < 0.80, curve[-1]
            # Past saturation the gap is *accounted*: admission control
            # (shed) or the engine's client bound (dropped), never silence.
            assert curve[-1]["shed"] + curve[-1]["dropped"] > 0
            # Exactly one knee is marked per curve.
            assert sum(1 for r in curve if r["knee"]) == 1

    # Observation is schedule-neutral for the engine: re-running one cell
    # with the span recorder, Chrome sink, and live-plane snapshot stream
    # attached (TRACE_E14.json, LIVE_E14.jsonl, DASHBOARD_E14.txt)
    # reproduces the measured row exactly — no virtual timestamp moves.
    probe = dict(cell_row(rows, "kv", "poisson", 3))
    probe.pop("knee")
    traced = drive("kv", "poisson", 3, trace=True)
    assert traced == probe, "span recording changed an E14 cell"

    # And the live plane itself is schedule-neutral: the same cell with
    # no plane at all yields identical traffic numbers (the live columns
    # are the only difference).
    bare = drive("kv", "poisson", 3, live=False)
    assert bare == {
        k: v for k, v in probe.items() if k not in ("alerts", "hot_key")
    }, "live telemetry plane changed an E14 cell"

    # The burn-rate monitors saw the overload the knees report: at least
    # one saturated KV cell fired an alert, and the Zipf skew surfaced a
    # guaranteed-hot key for the resharder.
    kv_rows = [r for r in rows if r["object"] == "kv"]
    assert any(r["alerts"] > 0 for r in kv_rows)
    assert any(r["hot_key"] for r in kv_rows)


if __name__ == "__main__":
    print_table("E14", run_experiment())
