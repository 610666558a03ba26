"""Replay contract: same seeded crash plan => tick-identical failover.

The wrapper adds daemons, elections and catch-up on top of the fault
layer; none of it may introduce nondeterminism, or seeded replay (the
debugging story of PR 1) stops working for replicated objects.
"""

from repro.faults import FaultPlan

from .scenarios import build, last_acked_values, spawn_reader, spawn_writer


def churn_plan(fault_seed=11):
    return (
        FaultPlan(seed=fault_seed, detection_delay=20)
        .crash_node("n0", at=300, restart_at=900)
        .crash_node("n4", at=1300, restart_at=1700)
        .drop_messages(0.25, dst="n0")
        .delay_jitter(4, dst="n0")
    )


def run_scenario(fault_seed=11):
    kernel, net, rep, runtime, sup = build(churn_plan(fault_seed))
    acked, wfailed = spawn_writer(kernel, rep, 25, gap=67)
    # The reader lives on a node, so its calls traverse the lossy network
    # (the wrapper's unplaced control plane is outside the failure model).
    ok, rfailed = spawn_reader(kernel, rep, 25, gap=73, net=net, node="n1")
    kernel.run(until=6000)
    return kernel, rep, acked, wfailed, ok, rfailed


def trace_snapshot(kernel):
    return [
        (e.time, e.kind, e.process, tuple(sorted(e.detail.items())))
        for e in kernel.trace
    ]


def test_same_seeded_plan_is_tick_identical():
    k1, rep1, acked1, wf1, ok1, rf1 = run_scenario()
    k2, rep2, acked2, wf2, ok2, rf2 = run_scenario()
    # The acceptance check: transition logs match tick for tick.
    assert rep1.view.transitions == rep2.view.transitions
    assert rep1.heartbeat.transitions == rep2.heartbeat.transitions
    assert (acked1, wf1, ok1, rf1) == (acked2, wf2, ok2, rf2)
    assert trace_snapshot(k1) == trace_snapshot(k2)
    assert k1.metrics.snapshot() == k2.metrics.snapshot()
    # The scenario genuinely failed over (it is not vacuous).
    events = {event for _, event, _, _ in rep1.view.transitions}
    assert {"down", "promote", "rejoin"} <= events


def test_different_fault_seed_diverges():
    # 15% loss toward a replica across dozens of messages: a different
    # RNG stream deterministically picks different victims.
    a = trace_snapshot(run_scenario(fault_seed=11)[0])
    b = trace_snapshot(run_scenario(fault_seed=12)[0])
    assert a != b


def test_no_acked_write_lost_under_seeded_churn():
    # Same churn, stronger claim: whatever the interleaving did, every
    # acknowledged write is on every live replica afterwards.
    kernel, rep, acked, wfailed, ok, rfailed = run_scenario()
    assert acked, "churn scenario must acknowledge writes"
    expected = last_acked_values(acked)
    for name in rep.view.live():
        data = rep.replica(name).data
        for key, value in expected.items():
            assert data[key] == value, (name, key)
