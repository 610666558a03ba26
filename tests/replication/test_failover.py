"""Read failover: callers of a Replicated object never see one crash."""

import pytest

from repro.errors import RemoteCallError
from repro.faults import FaultPlan

from .scenarios import build, spawn_reader, spawn_writer


class TestReadFailover:
    def test_reads_survive_primary_crash(self):
        # Primary node dies and never returns; every read still succeeds,
        # transparently served by a backup (then by the promoted primary).
        kernel, net, rep, runtime, sup = build(
            FaultPlan(detection_delay=20).crash_node("n0", at=150)
        )
        acked, wfailed = spawn_writer(kernel, rep, 6, gap=30)
        ok, rfailed = spawn_reader(kernel, rep, 12, gap=50)
        kernel.run(until=2500)
        assert len(ok) == 12 and rfailed == []
        assert acked == list(range(6)) and wfailed == []
        assert kernel.metrics.value("replication.failovers") >= 1
        assert rep.view.primary != "rep.r0"

    def test_read_exhausts_all_replicas(self):
        kernel, net, rep, runtime, sup = build(
            FaultPlan(detection_delay=20)
            .crash_node("n0", at=50)
            .crash_node("n2", at=50)
            .crash_node("n4", at=50)
        )
        errors = []

        def client():
            from repro.kernel import Delay

            yield Delay(100)
            try:
                yield from rep.get("missing")
            except RemoteCallError as exc:
                errors.append(str(exc))

        kernel.spawn(client, name="client")
        kernel.run(until=3000)
        assert len(errors) == 1
        assert "all 3 replicas unreachable" in errors[0]

    def test_write_fails_when_no_replica_live(self):
        kernel, net, rep, runtime, sup = build(
            FaultPlan(detection_delay=20)
            .crash_node("n0", at=50)
            .crash_node("n2", at=50)
            .crash_node("n4", at=50)
        )
        errors = []

        def client():
            from repro.kernel import Delay

            yield Delay(100)
            try:
                yield from rep.put("k", 1)
            except RemoteCallError:
                errors.append(kernel.clock.now)

        kernel.spawn(client, name="client")
        kernel.run(until=5000)
        assert len(errors) == 1
        assert kernel.metrics.value("replication.write_failures") == 1
        # Nothing was acknowledged, so nothing may claim durability.
        assert rep.view.version == 0 and len(rep.log) == 0

    def test_unreplicated_baseline_loses_availability(self):
        # replicas=1 is the paper's restart-in-place world: during the
        # down window every call fails — exactly what replication removes.
        kernel, net, rep, runtime, sup = build(
            FaultPlan(detection_delay=20).crash_node("n0", at=100, restart_at=800),
            replicas=1,
            nodes=["n0"],
        )
        ok, failed = spawn_reader(kernel, rep, 10, gap=100, start=10)
        kernel.run(until=2500)
        assert failed, "reads during the down window must fail with one replica"
        assert ok, "reads after the supervised restart must succeed again"
        assert max(ok) > 800

    def test_stale_read_from_straggler_records_lag(self):
        # White-box: a read served by a down-marked straggler reports its
        # version lag.  heartbeat_rounds=0 keeps the monitor from repairing
        # the straggler underneath the test.
        kernel, net, rep, runtime, sup = build(
            FaultPlan(detection_delay=20).crash_node("n0", at=500),
            replicas=2,
            nodes=["n0", "n2"],
            heartbeat_rounds=0,
        )
        acked, _ = spawn_writer(kernel, rep, 3, gap=20)
        served = []

        def late_reader():
            from repro.kernel import Delay

            yield Delay(510)  # after the primary crash
            served.append((yield from rep.get("k0")))

        kernel.spawn(late_reader, name="late")
        # Pretend the backup missed the last two writes and was marked down.
        def corrupt():
            from repro.kernel import Delay

            yield Delay(400)
            rep.view.mark_down("rep.r1")
            rep.view.versions["rep.r1"] = 1

        kernel.spawn(corrupt, name="corrupt")
        kernel.run(until=3000)
        assert acked == [0, 1, 2]
        assert served == [0]  # k0 was written by write #0
        assert rep.staleness() == [2]  # the straggler lags acks 2 and 3
        assert kernel.metrics.value("replication.failovers") == 1


class TestWrapperValidation:
    def test_unknown_entry_raises(self):
        from repro.errors import ReplicationError

        kernel, net, rep, runtime, sup = build(supervised=False)
        with pytest.raises(ReplicationError):
            rep.invoke("flush", ())
        with pytest.raises(AttributeError):
            rep.no_such_entry

    def test_entry_attribute_builds_proxy(self):
        kernel, net, rep, runtime, sup = build(supervised=False)
        proxy = rep.get
        assert proxy.name == "get" and proxy.rep is rep
