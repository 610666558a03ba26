"""Promotion: the highest-version live backup takes over, losing nothing."""

from repro.faults import FaultPlan
from repro.kernel import Delay, Kernel
from repro.kernel.costs import FREE
from repro.replication import ReplicaView

from .scenarios import build, spawn_writer


class TestPromotionPolicy:
    def view(self):
        return ReplicaView(Kernel(costs=FREE), ["r0", "r1", "r2"])

    def test_live_primary_is_left_in_place(self):
        v = self.view()
        assert v.promote() == "r0"
        assert v.transitions == []

    def test_highest_version_wins(self):
        v = self.view()
        v.mark_applied("r1", 3)
        v.mark_applied("r2", 5)
        v.mark_down("r0")
        assert v.promote() == "r2"
        assert v.primary == "r2"

    def test_tie_breaks_by_placement_order(self):
        v = self.view()
        v.mark_applied("r1", 5)
        v.mark_applied("r2", 5)
        v.mark_down("r0")
        assert v.promote() == "r1"

    def test_no_live_replica_leaves_leadership_vacant(self):
        v = self.view()
        for name in ("r0", "r1", "r2"):
            v.mark_down(name)
        assert v.promote() is None
        assert v.primary == "r0"  # unchanged; nothing to lead


class TestPromotionEndToEnd:
    def test_promotes_most_up_to_date_backup(self):
        # r2's node dies early, so r2 misses writes; when the primary dies
        # later, the election must pick r1 (caught up), never r2 (stale).
        kernel, net, rep, runtime, sup = build(
            FaultPlan(detection_delay=20)
            .crash_node("n4", at=100)  # r2: out early, stays out
            .crash_node("n0", at=900)  # r0: primary dies mid-workload
        )
        acked, failed = spawn_writer(kernel, rep, 12, gap=80)
        kernel.run(until=4000)
        assert failed == []
        assert rep.view.primary == "rep.r1"
        promotes = [t for t in rep.view.transitions if t[1] == "promote"]
        assert [t[2] for t in promotes] == ["rep.r1"]
        # The winner holds every acknowledged write.
        assert rep.view.versions["rep.r1"] == rep.view.version == len(acked)
        assert rep.view.versions["rep.r2"] < rep.view.version

    def test_ex_primary_rejoins_as_backup(self):
        kernel, net, rep, runtime, sup = build(
            FaultPlan(detection_delay=20).crash_node("n0", at=200, restart_at=900)
        )
        acked, failed = spawn_writer(kernel, rep, 15, gap=70)
        kernel.run(until=4000)
        assert failed == []
        # Promotion stuck: the restarted ex-primary does not reclaim the role.
        assert rep.view.primary != "rep.r0"
        assert rep.view.is_up("rep.r0")
        events = [(e, n) for _, e, n, _ in rep.view.transitions]
        assert ("promote", rep.view.primary) in events
        assert ("rejoin", "rep.r0") in events
        # ...and it caught up on every write it slept through.
        assert rep.view.versions["rep.r0"] == rep.view.version == len(acked)

    def test_monitor_promotes_without_any_writes(self):
        # No write ever reaches the sequencer, so the heartbeat/monitor
        # pair alone must notice the dead primary and re-elect.
        kernel, net, rep, runtime, sup = build(
            FaultPlan(detection_delay=20).crash_node("n0", at=100)
        )
        kernel.run(until=1000)
        assert rep.view.primary != "rep.r0"
        assert kernel.metrics.value("replication.promotions") == 1

    def test_supervised_restart_requeues_interrupted_write(self):
        # A write interrupted by the primary crash is re-queued by the
        # Supervisor after restart; the sequencer's retry/election makes
        # the caller whole either way — the write must not be lost *or*
        # fail, and all replicas must agree afterwards.
        kernel, net, rep, runtime, sup = build(
            FaultPlan(detection_delay=20).crash_node("n0", at=115, restart_at=600),
            heartbeat_interval=30,
        )
        acked, failed = spawn_writer(kernel, rep, 4, gap=100, start=90)
        kernel.run(until=4000)
        assert failed == []
        assert len(acked) == 4
        datas = [r.data for r in rep.replicas()]
        assert datas[0] == datas[1] == datas[2]
