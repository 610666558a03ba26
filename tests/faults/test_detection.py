"""Detection layer: crash detection, timed calls, heartbeats."""

import pytest

from repro.errors import CallError, RemoteCallError
from repro.faults import Beacon, FaultPlan, Heartbeat, install
from repro.kernel import Delay, Kernel
from repro.kernel.costs import FREE
from repro.net import ring
from repro.stdlib import Dictionary


def scenario(plan, seed=0, trace=True, **dict_kwargs):
    kernel = Kernel(costs=FREE, seed=seed, trace=trace)
    net = ring(kernel, 4)
    dict_kwargs.setdefault("entries", {"a": 1})
    dict_kwargs.setdefault("search_work", 0)
    d = net.node("n1").place(Dictionary(kernel, name="d", **dict_kwargs))
    runtime = install(kernel, net, plan)
    return kernel, net, d, runtime


class TestCrashDetection:
    def test_call_to_crashed_node_fails_not_deadlocks(self):
        kernel, net, d, _ = scenario(
            FaultPlan(detection_delay=30).crash_node("n1", at=0)
        )
        failures = []

        def client():
            yield Delay(10)  # issue strictly after the crash
            try:
                yield d.search("a")
            except RemoteCallError as exc:
                failures.append((kernel.clock.now, exc))

        net.node("n0").spawn(client, name="client")
        kernel.run()  # must reach quiescence without DeadlockError
        assert len(failures) == 1
        when, exc = failures[0]
        assert when == 40  # issue at 10 + detection_delay 30
        assert exc.obj == "d" and exc.entry == "search"

    def test_call_interrupted_by_crash_fails(self):
        kernel, net, d, _ = scenario(
            FaultPlan(detection_delay=30).crash_node("n1", at=50),
            search_work=200,  # body still running when the node dies
        )
        failures = []

        def client():
            try:
                yield d.search("a")
            except RemoteCallError as exc:
                failures.append((kernel.clock.now, str(exc)))

        net.node("n0").spawn(client, name="client")
        kernel.run()
        assert len(failures) == 1
        assert failures[0][0] == 80  # crash at 50 + detection_delay
        assert "interrupted" in failures[0][1]

    def test_detection_delay_zero_fails_immediately(self):
        kernel, net, d, _ = scenario(FaultPlan(detection_delay=0).crash_node("n1", at=0))
        failures = []

        def client():
            yield Delay(5)
            try:
                yield d.search("a")
            except RemoteCallError:
                failures.append(kernel.clock.now)

        net.node("n0").spawn(client, name="client")
        kernel.run()
        assert failures == [5]


class TestTimedCalls:
    def test_timeout_on_lost_request(self):
        kernel, net, d, _ = scenario(FaultPlan(seed=2).drop_messages(1.0, dst="n1"))
        failures = []

        def client():
            try:
                yield d.search("a", timeout=40)
            except RemoteCallError as exc:
                failures.append((kernel.clock.now, str(exc)))

        net.node("n0").spawn(client, name="client")
        kernel.run()
        assert failures and failures[0][0] == 40
        assert "timed out" in failures[0][1]
        assert kernel.trace.count("call_timeout") == 1

    def test_timeout_on_lost_response(self):
        # Only the response leg (n1 -> n0) is lossy: the body executes,
        # but its results never arrive.
        kernel, net, d, _ = scenario(FaultPlan(seed=2).drop_messages(1.0, src="n1"))
        failures = []

        def client():
            try:
                yield d.search("a", timeout=60)
            except RemoteCallError:
                failures.append(kernel.clock.now)

        net.node("n0").spawn(client, name="client")
        kernel.run()
        assert failures == [60]
        assert d.searches_executed == 1  # the work happened
        assert kernel.metrics.value("faults.dropped_responses") == 1

    def test_generous_timeout_does_not_fire(self):
        kernel, net, d, _ = scenario(FaultPlan())
        results = []

        def client():
            results.append((yield d.search("a", timeout=500)))

        net.node("n0").spawn(client, name="client")
        kernel.run()
        assert results == [1]
        assert kernel.trace.count("call_timeout") == 0
        # The cancelled expiry timer must not stretch the simulation.
        assert kernel.clock.now < 500

    def test_late_response_after_timeout_is_discarded(self):
        # Slow body + short timeout: the caller gets the error, then the
        # response arrives and must be dropped, not double-delivered.
        kernel, net, d, _ = scenario(FaultPlan(), search_work=100)
        events = []

        def client():
            try:
                yield d.search("a", timeout=30)
            except RemoteCallError:
                events.append("timeout")
            yield Delay(200)  # outlive the late response
            events.append("alive")

        net.node("n0").spawn(client, name="client")
        kernel.run()
        assert events == ["timeout", "alive"]

    def test_negative_timeout_rejected(self):
        kernel, net, d, _ = scenario(FaultPlan())
        errors = []

        def client():
            try:
                yield d.search("a", timeout=-1)
            except CallError as exc:
                errors.append(exc)

        net.node("n0").spawn(client, name="client")
        kernel.run()
        assert len(errors) == 1

    def test_timed_calls_work_without_faults_installed(self):
        kernel = Kernel(costs=FREE)
        net = ring(kernel, 4)
        d = net.node("n1").place(
            Dictionary(kernel, name="d", entries={"a": 1}, search_work=100)
        )
        failures = []

        def client():
            try:
                yield d.search("a", timeout=20)
            except RemoteCallError:
                failures.append(kernel.clock.now)

        net.node("n0").spawn(client, name="client")
        kernel.run()
        assert failures == [20]


class TestHeartbeat:
    def test_detects_down_and_recovered(self):
        kernel = Kernel(costs=FREE, trace=True)
        net = ring(kernel, 4)
        beacon = net.node("n1").place(Beacon(kernel, name="beacon"))
        install(
            kernel, net,
            FaultPlan(detection_delay=10).crash_node("n1", at=100, restart_at=200),
        )
        # The node restart does not resurrect the object by itself.
        kernel.post(220, beacon.restart)

        hb = Heartbeat(kernel, interval=50, timeout=30, rounds=8)
        hb.watch("n1", beacon)
        hb.start()
        kernel.run()

        verdicts = [(name, verdict) for _, name, verdict in hb.transitions]
        assert verdicts == [("n1", "up"), ("n1", "down"), ("n1", "up")]
        assert hb.is_up("n1")

    def test_all_up_steady_state(self):
        kernel = Kernel(costs=FREE)
        net = ring(kernel, 3)
        b1 = net.node("n1").place(Beacon(kernel, name="b1"))
        b2 = net.node("n2").place(Beacon(kernel, name="b2"))
        install(kernel, net, FaultPlan())
        hb = Heartbeat(kernel, interval=20, timeout=15, rounds=3)
        hb.watch("n1", b1)
        hb.watch("n2", b2)
        hb.start()
        kernel.run()
        assert hb.status == {"n1": "up", "n2": "up"}
        assert len(hb.transitions) == 2  # unknown -> up, once each

    def test_probes_ping_concurrently(self):
        # Three dead targets, timeout 30: concurrent probes all record
        # "down" at tick 30.  A sequential monitor would serialize the
        # timeouts (30, 60, 90) and stretch every later verdict.
        kernel = Kernel(costs=FREE)
        net = ring(kernel, 4)
        beacons = {
            n: net.node(n).place(Beacon(kernel, name=f"b_{n}"))
            for n in ("n1", "n2", "n3")
        }
        install(
            kernel, net,
            FaultPlan(detection_delay=500)  # kernel detector never helps
            .crash_node("n1", at=0).crash_node("n2", at=0).crash_node("n3", at=0),
        )
        hb = Heartbeat(kernel, interval=20, timeout=30, rounds=1)
        for name, beacon in beacons.items():
            hb.watch(name, beacon)
        hb.start()
        kernel.run()
        assert [(t, v) for t, _, v in hb.transitions] == [(30, "down")] * 3

    def test_double_start_rejected(self):
        from repro.errors import KernelError

        kernel = Kernel(costs=FREE)
        net = ring(kernel, 3)
        install(kernel, net, FaultPlan())
        hb = Heartbeat(kernel, rounds=2)
        hb.watch("n1", net.node("n1").place(Beacon(kernel, name="b1")))
        hb.start()
        with pytest.raises(KernelError):
            hb.start()

    def test_stop_kills_unbounded_monitor(self):
        kernel = Kernel(costs=FREE)
        net = ring(kernel, 3)
        install(kernel, net, FaultPlan())
        hb = Heartbeat(kernel, interval=25, timeout=15, rounds=None)
        hb.watch("n1", net.node("n1").place(Beacon(kernel, name="b1")))
        hb.start()
        kernel.post(200, hb.stop)
        kernel.run(until=1000)
        # The daemon is gone: virtual time stops advancing with it.
        assert hb.process is None
        assert hb.is_up("n1")
        rounds_run = kernel.metrics.value("heartbeat.up")
        assert rounds_run == 1  # one unknown->up transition, then steady

    def test_stop_returns_whether_monitor_was_running(self):
        kernel = Kernel(costs=FREE)
        hb = Heartbeat(kernel, rounds=1)
        assert hb.stop() is False  # never started
        hb.watch("x", Beacon(kernel, name="b"))
        hb.start()
        assert hb.stop() is True
        assert hb.stop() is False  # idempotent
        hb.start()  # restartable after a stop
