"""Injection layer: crashes, link/partition faults, message fates, slow CPUs."""

import pytest

from repro.channels import Receive, TryReceive
from repro.errors import NetworkError, RemoteCallError
from repro.faults import FaultPlan, install
from repro.kernel import Delay, Kernel
from repro.kernel.costs import FREE
from repro.net import NetChannel, NetSend, ring
from repro.stdlib import Dictionary


def make_ring(seed=0, size=4, trace=True):
    kernel = Kernel(costs=FREE, seed=seed, trace=trace)
    return kernel, ring(kernel, size)


class TestNodeCrash:
    def test_crash_kills_node_processes(self):
        kernel, net = make_ring()
        install(kernel, net, FaultPlan().crash_node("n1", at=50))
        progress = []

        def worker():
            while True:
                yield Delay(20)
                progress.append(kernel.clock.now)

        proc = net.node("n1").spawn(worker, name="worker", daemon=True)
        kernel.run(until=200)
        assert not proc.alive
        assert progress == [20, 40]  # nothing after the crash at t=50
        assert kernel.trace.count("crash") == 1
        assert kernel.metrics.value("faults.node_crashes") == 1

    def test_other_nodes_keep_running(self):
        kernel, net = make_ring()
        install(kernel, net, FaultPlan().crash_node("n1", at=50))
        survivor = []

        def worker():
            for _ in range(5):
                yield Delay(20)
            survivor.append(kernel.clock.now)

        net.node("n2").spawn(worker, name="survivor")
        kernel.run()
        assert survivor == [100]

    def test_restart_brings_node_back(self):
        kernel, net = make_ring()
        runtime = install(
            kernel, net, FaultPlan().crash_node("n1", at=50, restart_at=120)
        )
        states = []

        def probe():
            for _ in range(4):
                yield Delay(40)
                states.append((kernel.clock.now, runtime.node_up("n1")))

        net.node("n0").spawn(probe, name="probe")
        kernel.run()
        assert states == [(40, True), (80, False), (120, True), (160, True)]
        assert kernel.trace.count("restart") == 1


class TestMessageFaults:
    def _pump(self, kernel, net, n, dst="n1", size=1):
        """Send n messages n0 -> dst; return list of receive times."""
        inbox = NetChannel(net.node(dst), name="inbox")
        got = []

        def sender():
            for i in range(n):
                yield NetSend(inbox, i, size=size)
                yield Delay(10)

        def receiver():
            while True:
                value = yield Receive(inbox)
                got.append((kernel.clock.now, value))

        net.node("n0").spawn(sender, name="sender")
        net.node(dst).spawn(receiver, name="receiver", daemon=True)
        kernel.run()
        return got

    def test_total_loss_delivers_nothing(self):
        kernel, net = make_ring()
        install(kernel, net, FaultPlan(seed=5).drop_messages(1.0, dst="n1"))
        got = self._pump(kernel, net, 5)
        assert got == []
        assert kernel.metrics.value("faults.dropped_messages") == 5
        assert kernel.trace.count("drop") == 5

    def test_no_loss_delivers_everything(self):
        kernel, net = make_ring()
        install(kernel, net, FaultPlan(seed=5).drop_messages(0.0))
        got = self._pump(kernel, net, 5)
        assert [v for _, v in got] == [0, 1, 2, 3, 4]

    def test_partial_loss_is_seeded(self):
        def run(seed):
            kernel, net = make_ring(trace=False)
            install(kernel, net, FaultPlan(seed=seed).drop_messages(0.5, dst="n1"))
            return [v for _, v in self._pump(kernel, net, 40)]

        first, again = run(seed=9), run(seed=9)
        assert first == again  # same seed, same fates
        assert 0 < len(first) < 40  # and the rate actually bites

    def test_duplication_delivers_twice(self):
        kernel, net = make_ring()
        install(kernel, net, FaultPlan(seed=5).duplicate_messages(1.0, dst="n1"))
        got = self._pump(kernel, net, 3)
        assert sorted(v for _, v in got) == [0, 0, 1, 1, 2, 2]
        assert kernel.metrics.value("faults.duplicated_messages") == 3

    def test_jitter_delays_delivery(self):
        kernel, net = make_ring()
        install(kernel, net, FaultPlan(seed=1).delay_jitter(50, dst="n1"))
        got = self._pump(kernel, net, 10)
        assert len(got) == 10
        base = 1  # n0-n1 link latency
        lags = [t - 10 * i - base for (t, _), i in zip(got, range(10))]
        assert all(0 <= lag <= 50 for lag in lags)
        assert any(lag > 0 for lag in lags)  # jitter actually drawn

    def test_send_to_downed_node_dropped(self):
        kernel, net = make_ring()
        install(kernel, net, FaultPlan().crash_node("n1", at=0))
        inbox = NetChannel(net.node("n1"), name="inbox")

        def sender():
            yield Delay(10)
            yield NetSend(inbox, "lost")

        net.node("n0").spawn(sender, name="sender")
        kernel.run()
        assert kernel.metrics.value("faults.dropped_messages") == 1
        assert len(inbox._queue) == 0


class TestTopologyFaults:
    def test_link_down_reroutes_the_long_way(self):
        kernel, net = make_ring()  # n0-n1-n2-n3-n0
        install(kernel, net, FaultPlan().link_down("n0", "n1", at=0, up_at=1000))
        inbox = NetChannel(net.node("n1"), name="inbox")
        got = []

        def sender():
            yield NetSend(inbox, "x")

        def receiver():
            yield Receive(inbox)
            got.append(kernel.clock.now)

        net.node("n0").spawn(sender, name="sender")
        net.node("n1").spawn(receiver, name="receiver")
        kernel.run(until=1000)
        assert got == [3]  # n0-n3-n2-n1 instead of the direct hop

    def test_link_restored_shortens_route(self):
        kernel, net = make_ring()
        install(kernel, net, FaultPlan().link_down("n0", "n1", at=0, up_at=50))
        kernel.run(until=10)  # applies the down transition at t=0
        assert net.latency("n0", "n1") == 3
        kernel.run(until=60)  # applies the up transition at t=50
        assert net.latency("n0", "n1") == 1

    def test_partition_fails_cross_calls(self):
        kernel, net = make_ring()
        install(
            kernel,
            net,
            FaultPlan(detection_delay=25).partition(["n0", "n3"], ["n1", "n2"], at=0),
        )
        d = net.node("n1").place(Dictionary(kernel, name="d", entries={"a": 1}, search_work=0))
        outcome = []

        def client():
            try:
                yield d.search("a")
            except RemoteCallError as exc:
                outcome.append((kernel.clock.now, "error", str(exc)))
            else:
                outcome.append((kernel.clock.now, "ok", None))

        net.node("n0").spawn(client, name="client")
        kernel.run()
        assert outcome and outcome[0][1] == "error"
        assert "no route" in outcome[0][2]

    def test_partition_heals(self):
        kernel, net = make_ring()
        install(kernel, net, FaultPlan().partition(["n0", "n3"], ["n1", "n2"], at=0, heal_at=40))
        d = net.node("n1").place(Dictionary(kernel, name="d", entries={"a": 1}, search_work=0))
        result = []

        def client():
            yield Delay(50)  # wait out the partition
            result.append((yield d.search("a")))

        net.node("n0").spawn(client, name="client")
        kernel.run()
        assert result == [1]
        assert kernel.trace.count("partition") == 2  # cut + heal

    def test_same_side_unaffected_by_partition(self):
        kernel, net = make_ring()
        install(kernel, net, FaultPlan().partition(["n0", "n3"], ["n1", "n2"], at=0))
        d = net.node("n3").place(Dictionary(kernel, name="d", entries={"a": 2}, search_work=0))

        def client():
            return (yield d.search("a"))

        proc = net.node("n0").spawn(client, name="client")
        kernel.run()
        assert proc.result == 2


class TestSlowCpu:
    def test_work_dilates_on_degraded_node(self):
        from repro.kernel import Charge

        kernel, net = make_ring()
        install(kernel, net, FaultPlan().slow_cpu("n1", factor=4.0, at=0))
        finish = {}

        def worker(tag):
            yield Charge(100)
            finish[tag] = kernel.clock.now

        net.node("n0").spawn(worker, "fast", name="fast")
        net.node("n1").spawn(worker, "slow", name="slow")
        kernel.run()
        assert finish["fast"] == 100
        assert finish["slow"] == 400

    def test_degradation_window_ends(self):
        from repro.kernel import Charge

        kernel, net = make_ring()
        install(kernel, net, FaultPlan().slow_cpu("n1", factor=4.0, at=0, until=1))
        finish = {}

        def worker():
            yield Delay(10)  # past the window
            yield Charge(100)
            finish["t"] = kernel.clock.now

        net.node("n1").spawn(worker, name="worker")
        kernel.run()
        assert finish["t"] == 110


class TestInstall:
    def test_double_install_rejected(self):
        kernel, net = make_ring()
        install(kernel, net, FaultPlan())
        with pytest.raises(NetworkError):
            install(kernel, net, FaultPlan())

    def test_unknown_node_in_plan_rejected(self):
        kernel, net = make_ring()
        with pytest.raises(NetworkError):
            install(kernel, net, FaultPlan().crash_node("nope", at=0))
