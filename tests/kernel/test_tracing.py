"""Unit tests for tracing and stats plumbing."""

from repro.kernel import Delay, Kernel, Spawn
from repro.kernel.stats import KernelStats
from repro.kernel.tracing import Trace, TraceEvent


class TestTrace:
    def test_disabled_records_nothing(self):
        trace = Trace(enabled=False)
        trace.record(0, "spawn", "p")
        assert len(trace) == 0

    def test_enabled_records(self):
        trace = Trace(enabled=True)
        trace.record(5, "spawn", "p", pid=1)
        assert len(trace) == 1
        event = trace.events()[0]
        assert event.time == 5
        assert event.kind == "spawn"
        assert event.detail["pid"] == 1

    def test_filtering(self):
        trace = Trace(enabled=True)
        trace.record(0, "spawn", "a")
        trace.record(1, "exit", "a")
        trace.record(2, "spawn", "b")
        assert trace.count("spawn") == 2
        assert trace.count("spawn", process="b") == 1
        assert [e.process for e in trace.events(kind="exit")] == ["a"]

    def test_capacity_bound(self):
        trace = Trace(enabled=True, capacity=3)
        for i in range(10):
            trace.record(i, "tick", "p")
        assert len(trace) == 3
        assert trace.events()[0].time == 7

    def test_listener(self):
        trace = Trace(enabled=True)
        seen = []
        trace.subscribe(seen.append)
        trace.record(0, "spawn", "p")
        assert len(seen) == 1

    def test_format(self):
        event = TraceEvent(time=3, kind="send", process="p", detail={"ch": "c"})
        text = event.format()
        assert "send" in text and "'c'" in text

    def test_kernel_trace_integration(self):
        kernel = Kernel(trace=True)

        def child():
            yield Delay(1)

        def main():
            yield Spawn(child)
            yield Delay(2)

        kernel.run_process(main)
        assert kernel.trace.count("spawn") == 2
        assert kernel.trace.count("exit") == 2

    def test_kernel_sites_follow_recording(self):
        """The kernel tests ``recording`` inline before it builds a spawn,
        exit, block or wake event: a listener alone gets all four, with
        the times and details retention would have kept."""
        from repro.channels import Channel, ReceiveGuard, Send
        from repro.kernel import Select

        def run(kernel):
            ch = Channel(name="ch")

            def receiver():
                yield Select(ReceiveGuard(ch))

            def sender():
                yield Delay(3)
                yield Send(ch, "go")

            kernel.spawn(receiver)
            kernel.spawn(sender)
            kernel.run()

        retained, streamed, silent = Kernel(trace=True), Kernel(), Kernel()
        heard = []
        streamed.trace.subscribe(heard.append)
        assert retained.trace.recording and streamed.trace.recording
        assert not silent.trace.recording
        for kernel in (retained, streamed, silent):
            run(kernel)
        kinds = [(e.time, e.kind, e.process) for e in heard]
        assert kinds == [(e.time, e.kind, e.process) for e in retained.trace]
        assert {"spawn", "exit", "block", "wake"} <= {kind for _t, kind, _p in kinds}
        assert [e.detail for e in heard] == [e.detail for e in retained.trace]
        assert len(streamed.trace) == len(silent.trace) == 0

    def test_clear(self):
        trace = Trace(enabled=True)
        trace.record(0, "x", "p")
        trace.clear()
        assert len(trace) == 0


class TestKernelStats:
    def test_diff(self):
        stats = KernelStats()
        before = stats.snapshot()
        stats.sends = 10
        delta = stats.diff(before)
        assert delta["sends"] == 10
        assert delta["receives"] == 0
