"""Unit tests for tracing and stats plumbing."""

import pytest

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
        assert list(trace) == [TraceEvent(i, "tick", "p") for i in (7, 8, 9)]

    def test_listener(self):
        trace = Trace(enabled=True)
        seen = []
        trace.subscribe(seen.append)
        trace.record(0, "spawn", "p")
        assert len(seen) == 1

    def test_format(self):
        event = TraceEvent(time=3, kind="send", process="p", detail={"ch": "c", "n": 2})
        assert event.format() == (
            "[       3] send       p                        ch='c' n=2"
        )

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


class TestTraceEventContract:
    """What sinks and tests rely on: field names, keyword and positional
    construction, a fresh default ``detail``, value equality, unhashable.
    ``format()`` text and capacity retention are pinned in ``TestTrace``."""

    def test_keyword_and_positional_construction(self):
        by_name = TraceEvent(time=3, kind="send", process="p", detail={"ch": "c"})
        by_place = TraceEvent(3, "send", "p", {"ch": "c"})
        for event in (by_name, by_place):
            assert (event.time, event.kind, event.process, event.detail) == (
                3, "send", "p", {"ch": "c"}
            )
        assert TraceEvent(0, "x", "p").detail == {}
        assert TraceEvent(0, "x", "p").detail is not TraceEvent(0, "x", "p").detail

    def test_value_equality(self):
        assert TraceEvent(1, "wake", "p", {"by": "q"}) == TraceEvent(
            1, "wake", "p", {"by": "q"}
        )
        assert TraceEvent(1, "wake", "p", {"by": "q"}) != TraceEvent(
            1, "wake", "p", {"by": "r"}
        )
        assert TraceEvent(1, "wake", "p") != TraceEvent(2, "wake", "p")
        assert TraceEvent(1, "wake", "p") != (1, "wake", "p", {})

    def test_unhashable(self):
        with pytest.raises(TypeError):
            hash(TraceEvent(0, "spawn", "p"))

    def test_disabled_kernel_builds_no_event(self, monkeypatch):
        import repro.kernel.tracing as tracing

        built = []

        class Counting(TraceEvent):
            __slots__ = ()

            def __init__(self, *args, **kwargs):
                built.append(args or kwargs)
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(tracing, "TraceEvent", Counting)
        kernel = Kernel()

        def main():
            yield Delay(2)

        kernel.run_process(main)
        assert built == [] and len(kernel.trace) == 0
        kernel = Kernel(trace=True)
        kernel.run_process(main)
        assert len(built) == len(kernel.trace) > 0


class TestKernelStats:
    def test_diff(self):
        stats = KernelStats()
        before = stats.snapshot()
        stats.sends = 10
        delta = stats.diff(before)
        assert delta["sends"] == 10
        assert delta["receives"] == 0
