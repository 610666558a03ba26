"""E13: availability under crashes — replicated vs restart-in-place.

Not an experiment from the 1988 paper (§4 stops at recovering a single
ALPS object on its node), but the payoff question for `repro.replication`:
what does running N copies of an object buy while nodes crash?

A replicated KVStore serves a mixed read/write workload on a 6-ring for
a fixed virtual-time horizon.  The sweep crosses replica count (1 = the
paper's restart-in-place baseline, 2, 3) with a fault plan:

* ``calm``  — no faults (replication overhead is visible here);
* ``crash`` — the primary's node dies mid-run and restarts much later;
* ``churn`` — the primary dies and restarts, then a backup does too.

Reported per cell: completed fraction, goodput (ops per kilotick),
failovers/promotions taken, worst read staleness, and ``lost_acked`` —
acknowledged writes missing from any live replica at the end, which must
be 0 everywhere (the durability claim).  The headline check: under the
``crash`` plan, ``replicas=2`` keeps strictly more goodput than the
unreplicated baseline, which visibly stalls for the whole down window.
"""

from __future__ import annotations

from repro.errors import RemoteCallError
from repro.faults import FaultPlan, install
from repro.kernel import Delay, Kernel
from repro.kernel.costs import FREE
from repro.net import ring
from repro.replication import Replicated
from repro.stdlib import KVStore, Supervisor

from harness import attach_chrome_trace, print_table, write_results

SEED = 7
HORIZON = 4000      # virtual ticks simulated per cell
OPS_DEADLINE = 3200  # clients stop issuing here so recovery can drain
KEYS = 4
TIMEOUT = 60
REPLICA_NODES = ("n0", "n2", "n4")  # Supervisor lives on n5, never crashed

PLANS = {
    "calm": lambda: FaultPlan(seed=SEED, detection_delay=20),
    "crash": lambda: (
        FaultPlan(seed=SEED, detection_delay=20)
        .crash_node("n0", at=1200, restart_at=2600)
    ),
    "churn": lambda: (
        FaultPlan(seed=SEED, detection_delay=20)
        .crash_node("n0", at=1000, restart_at=2000)
        .crash_node("n2", at=2400, restart_at=3000)
    ),
}


def drive(replicas: int, plan_name: str, trace: bool = False) -> dict:
    kernel = Kernel(costs=FREE, seed=SEED)
    if trace:
        attach_chrome_trace(kernel, "e13")
    net = ring(kernel, 6)
    runtime = install(kernel, net, PLANS[plan_name]())
    sup = net.node("n5").place(Supervisor(kernel, name="sup", faults=runtime))
    rep = Replicated(
        lambda name: KVStore(kernel, name=name),
        net,
        replicas,
        writes=("put", "delete"),
        nodes=list(REPLICA_NODES)[:replicas],
        supervisor=sup,
        call_timeout=TIMEOUT,
        heartbeat_interval=40,
        seed=SEED,
    )

    acked: dict[str, int] = {}  # key -> last acknowledged value
    counts = {"ok": 0, "failed": 0}

    def writer():
        i = 0
        while kernel.clock.now < OPS_DEADLINE:
            key = f"k{i % KEYS}"
            try:
                yield from rep.put(key, i)
                acked[key] = i
                counts["ok"] += 1
            except RemoteCallError:
                counts["failed"] += 1
            i += 1
            yield Delay(60)

    def reader(start, gap):
        def body():
            yield Delay(start)
            i = 0
            while kernel.clock.now < OPS_DEADLINE:
                try:
                    yield from rep.get(f"k{i % KEYS}")
                    counts["ok"] += 1
                except RemoteCallError:
                    counts["failed"] += 1
                i += 1
                yield Delay(gap)

        return body

    kernel.spawn(writer, name="writer")
    net.node("n1").spawn(reader(7, 45), name="reader1")
    net.node("n3").spawn(reader(13, 51), name="reader3")
    kernel.run(until=HORIZON)
    if trace:
        kernel.obs.close()

    # Durability audit: every acknowledged write must be present on every
    # replica the view believes is live.
    lost = 0
    for name in rep.view.live():
        data = rep.replica(name).data
        for key, value in acked.items():
            if data.get(key) != value:
                lost += 1
    attempted = counts["ok"] + counts["failed"]
    staleness = rep.staleness()
    return {
        "replicas": replicas,
        "plan": plan_name,
        "ok": counts["ok"],
        "failed": counts["failed"],
        "completed_frac": round(counts["ok"] / max(1, attempted), 3),
        "goodput_per_ktick": round(counts["ok"] * 1000 / HORIZON, 1),
        "failovers": kernel.metrics.value("replication.failovers"),
        "promotions": kernel.metrics.value("replication.promotions"),
        "stale_max": max(staleness) if staleness else 0,
        "lost_acked": lost,
    }


def run_experiment() -> list[dict]:
    return [
        drive(replicas, plan)
        for plan in PLANS
        for replicas in (1, 2, 3)
    ]


def cell_row(rows: list[dict], replicas: int, plan: str) -> dict:
    return next(
        r for r in rows if r["replicas"] == replicas and r["plan"] == plan
    )


def test_e13_table(capsys):
    rows = run_experiment()
    with capsys.disabled():
        print_table(
            "E13 availability under crashes "
            f"(replicated KVStore, ring of 6, horizon {HORIZON})",
            rows,
            note="same workload and fault seed per row; only replication varies",
        )
    write_results(
        "e13", rows, seed=SEED,
        note=f"plans {tuple(PLANS)}, replicas (1, 2, 3), timeout {TIMEOUT}",
    )
    # Trace artifact: re-run the headline crash cell with spans and the
    # Chrome sink attached (TRACE_E13.json, openable in Perfetto).  The
    # measured table rows above stay span-free.
    traced = drive(2, "crash", trace=True)
    assert traced == cell_row(rows, 2, "crash"), (
        "span recording changed the E13 crash-cell results"
    )
    cell = {(r["replicas"], r["plan"]): r for r in rows}

    # Durability: no cell may lose an acknowledged write.
    assert all(r["lost_acked"] == 0 for r in rows)

    # Calm network: replication completes everything and never fails over.
    for replicas in (1, 2, 3):
        assert cell[(replicas, "calm")]["completed_frac"] == 1.0
        assert cell[(replicas, "calm")]["failovers"] == 0

    # The headline: under the crashing plan, two replicas keep strictly
    # more goodput than restart-in-place, which stalls for the window.
    assert (
        cell[(2, "crash")]["goodput_per_ktick"]
        > cell[(1, "crash")]["goodput_per_ktick"]
    )
    assert cell[(1, "crash")]["completed_frac"] < 1.0
    assert cell[(2, "crash")]["completed_frac"] == 1.0
    assert cell[(2, "crash")]["promotions"] >= 1

    # Churn: even with a second (backup) crash, replication holds up.
    assert (
        cell[(3, "churn")]["goodput_per_ktick"]
        > cell[(1, "churn")]["goodput_per_ktick"]
    )


if __name__ == "__main__":
    print_table("E13", run_experiment())
