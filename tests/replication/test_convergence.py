"""Convergence: replicas end identical; acknowledged writes are never lost."""

import pytest

from repro.faults import FaultPlan

from .scenarios import build, last_acked_values, spawn_writer


class TestWriteLogUnit:
    def test_versions_must_be_monotone(self):
        from repro.replication import WriteLog

        log = WriteLog()
        log.append(1, "put", ("k", 1))
        log.append(2, "put", ("k", 2))
        with pytest.raises(ValueError):
            log.append(2, "put", ("k", 3))

    def test_since_and_prune_escalation(self):
        from repro.replication import WriteLog

        log = WriteLog(limit=3)
        for v in range(1, 7):
            log.append(v, "put", ("k", v))
        assert len(log) == 3 and log.base == 3
        assert [v for v, _, _ in log.since(4)] == [5, 6]
        assert log.since(3) == [log.entries[0], log.entries[1], log.entries[2]]
        # Behind the pruned prefix: replay impossible, snapshot required.
        assert log.since(2) is None

    def test_bad_limit_rejected(self):
        from repro.replication import WriteLog

        with pytest.raises(ValueError):
            WriteLog(limit=0)


class TestConvergence:
    def assert_converged(self, rep, acked):
        expected = last_acked_values(acked)
        for replica in rep.replicas():
            assert replica.data == expected, replica.alps_name
        assert rep.view.version == len(acked)
        assert all(v == rep.view.version for v in rep.view.versions.values())

    def test_replicas_converge_after_staggered_churn(self):
        kernel, net, rep, runtime, sup = build(
            FaultPlan(detection_delay=20)
            .crash_node("n0", at=250, restart_at=700)
            .crash_node("n2", at=1100, restart_at=1500)
        )
        acked, failed = spawn_writer(kernel, rep, 30, gap=60)
        kernel.run(until=6000)
        assert failed == []
        assert acked == list(range(30))
        self.assert_converged(rep, acked)
        assert kernel.metrics.value("replication.rejoins") >= 2

    def test_no_acked_write_lost_on_permanent_primary_crash(self):
        # The acceptance check: the primary dies mid-workload and never
        # returns, yet every acknowledged write is present on every live
        # replica (the ack implies it was forwarded before the crash).
        kernel, net, rep, runtime, sup = build(
            FaultPlan(detection_delay=20).crash_node("n0", at=500)
        )
        acked, failed = spawn_writer(kernel, rep, 20, gap=45)
        kernel.run(until=4000)
        assert failed == []
        expected = last_acked_values(acked)
        live = [rep.replica(n) for n in rep.view.live()]
        assert len(live) == 2
        for replica in live:
            for key, value in expected.items():
                assert replica.data[key] == value, (replica.alps_name, key)
        assert all(rep.view.versions[n] >= rep.view.version for n in rep.view.live())

    def test_pruned_log_escalates_to_state_snapshot(self):
        # The backup sleeps through far more writes than the bounded log
        # retains: replay is impossible and a full state transfer from the
        # primary repairs it instead.
        kernel, net, rep, runtime, sup = build(
            FaultPlan(detection_delay=20).crash_node("n2", at=100, restart_at=1400),
            replicas=2,
            nodes=["n0", "n2"],
            log_limit=4,
        )
        acked, failed = spawn_writer(kernel, rep, 25, gap=45)
        kernel.run(until=5000)
        assert failed == []
        assert kernel.metrics.value("replication.snapshots") >= 1
        self.assert_converged(rep, acked)

    def test_sequencer_orders_concurrent_writers(self):
        # Two interleaved writers race on the same keys; the sequencer's
        # single global order means all replicas agree exactly.
        kernel, net, rep, runtime, sup = build(
            FaultPlan(detection_delay=20).crash_node("n0", at=400, restart_at=900)
        )
        from repro.errors import RemoteCallError
        from repro.kernel import Delay

        done = []

        def writer(tag, start, gap):
            def body():
                yield Delay(start)
                for i in range(12):
                    try:
                        yield from rep.put(f"k{i % 3}", (tag, i))
                    except RemoteCallError:
                        pass
                    yield Delay(gap)
                done.append(tag)

            kernel.spawn(body, name=f"writer_{tag}")

        writer("a", 0, 53)
        writer("b", 11, 47)
        kernel.run(until=6000)
        assert sorted(done) == ["a", "b"]
        assert rep.view.version == 24 == len(rep.log)
        datas = [r.data for r in rep.replicas()]
        assert datas[0] == datas[1] == datas[2]
