"""The zero-cost contract: the disabled layer changes nothing.

Two halves:

* disabled — no span allocations, no ``call.span``, nothing delivered;
* enabled — recording must not perturb the schedule either: a seeded
  replication crash scenario produces tick-identical transition logs
  and kernel traces with spans on and off (span hooks read timestamps
  the call path records anyway; no extra syscalls are spent).
"""

from repro.core import AlpsObject, entry, manager_process
from repro.errors import RemoteCallError
from repro.faults import FaultPlan, install
from repro.kernel import Delay, Kernel
from repro.kernel.costs import FREE
from repro.net import ring
from repro.obs import MemorySink
from repro.replication import Replicated
from repro.stdlib import KVStore, Supervisor


class TestDisabledCostsNothing:
    def test_no_span_allocations_on_the_call_path(self):
        kernel = Kernel()
        store = KVStore(kernel, name="kv", record_calls=True)

        def main():
            yield store.put("a", 1)
            yield store.get("a")

        kernel.run_process(main, name="client")
        assert not kernel.obs.enabled
        assert kernel.obs.span_count == 0
        assert kernel.obs.spans == []
        for call in store.completed_calls():
            assert call.span is None

    def test_no_latency_histogram_until_enabled(self):
        kernel = Kernel()
        assert kernel.metrics.get("calls.latency") is None
        kernel.obs.enable()
        assert kernel.metrics.get("calls.latency") is not None

    def test_heartbeat_records_carry_no_span_when_disabled(self):
        from repro.obs.spans import TransitionRecord

        kernel, rep = _build(spans=False)
        _run(kernel, rep)
        for t in rep.heartbeat.transitions + rep.view.transitions:
            assert isinstance(t, TransitionRecord)
            assert t.span_id is None


def _build(spans: bool):
    kernel = Kernel(costs=FREE, seed=3, trace=True, spans=spans)
    net = ring(kernel, 6)
    runtime = install(
        kernel,
        net,
        FaultPlan(seed=3, detection_delay=20)
        .crash_node("n0", at=300, restart_at=900)
        .drop_messages(0.2, dst="n4"),
    )
    sup = net.node("n5").place(Supervisor(kernel, name="sup", faults=runtime))
    rep = Replicated(
        lambda name: KVStore(kernel, name=name),
        net,
        3,
        writes=("put", "delete"),
        nodes=["n0", "n2", "n4"],
        supervisor=sup,
        call_timeout=60,
        heartbeat_interval=40,
        seed=3,
    )
    return kernel, rep


def _run(kernel, rep):
    outcomes = []

    def writer():
        for i in range(20):
            try:
                yield from rep.put(f"k{i % 4}", i)
                outcomes.append(("ack", i, kernel.clock.now))
            except RemoteCallError:
                outcomes.append(("fail", i, kernel.clock.now))
            yield Delay(61)

    def reader():
        yield Delay(13)
        for i in range(20):
            try:
                yield from rep.get(f"k{i % 4}")
                outcomes.append(("read", i, kernel.clock.now))
            except RemoteCallError:
                outcomes.append(("rfail", i, kernel.clock.now))
            yield Delay(53)

    kernel.spawn(writer, name="writer")
    rep.net.node("n1").spawn(reader, name="reader")
    kernel.run(until=3000)
    return outcomes


def _trace_snapshot(kernel):
    return [
        (e.time, e.kind, e.process, tuple(sorted(e.detail.items())))
        for e in kernel.trace
    ]


class TestEnabledIsScheduleNeutral:
    def test_crash_scenario_is_tick_identical_with_spans_on(self):
        k_off, rep_off = _build(spans=False)
        out_off = _run(k_off, rep_off)
        k_on, rep_on = _build(spans=True)
        out_on = _run(k_on, rep_on)

        # The scenario is not vacuous: it really failed over.
        events = {event for _, event, _, _ in rep_off.view.transitions}
        assert "down" in events and "promote" in events

        # Bit-identical schedules: same outcomes at the same ticks, same
        # transition logs (TransitionRecord compares as a plain tuple),
        # same kernel trace, same counters.
        assert out_on == out_off
        assert list(rep_on.view.transitions) == list(rep_off.view.transitions)
        assert list(rep_on.heartbeat.transitions) == list(
            rep_off.heartbeat.transitions
        )
        assert _trace_snapshot(k_on) == _trace_snapshot(k_off)
        assert k_on.clock.now == k_off.clock.now
        # Spans add their own latency histogram; every other metric agrees.
        on = k_on.metrics.snapshot()
        assert {
            k: v for k, v in on.items() if not k.startswith("calls.latency.")
        } == k_off.metrics.snapshot()

        # ... but only the enabled run recorded spans, and its records
        # carry the observing span ids (detection → promotion linkage).
        assert k_off.obs.span_count == 0
        assert k_on.obs.span_count > 0
        assert any(t.span_id is not None for t in rep_on.heartbeat.transitions)
        assert any(t.span_id is not None for t in rep_on.view.transitions)

    def test_every_acked_write_has_a_connected_span_tree(self):
        # The acceptance shape: client write span → sequencer span →
        # entry-call spans → phase spans, surviving primary failover.
        kernel, rep = _build(spans=True)
        outcomes = _run(kernel, rep)
        acked = [o for o in outcomes if o[0] == "ack"]
        assert acked
        obs = kernel.obs
        writes = [
            s for s in obs.find_spans(kind="replicated")
            if s.attrs.get("status") == "ok"
        ]
        assert len(writes) == len(acked)
        for write in writes:
            sequencer = [
                s for s in obs.children_of(write.span_id)
                if s.kind == "replication"
            ]
            assert sequencer, f"write span {write.span_id} has no sequencer child"
            calls = [
                c
                for s in sequencer
                for c in obs.children_of(s.span_id)
                if c.kind == "call"
            ]
            assert calls, f"write span {write.span_id} reached no replica"
            # Failed attempts (crashed target) may have no derivable
            # phases; every *successful* hop must, and an acked write
            # has at least one.
            served = [c for c in calls if c.attrs.get("status") == "ok"]
            assert served, f"write span {write.span_id} has no served call"
            for call in served:
                assert obs.children_of(call.span_id), (
                    f"call span {call.span_id} has no phase children"
                )
        # Failover happened while writes kept connecting: the promotion
        # transition links back to a recorded span.
        promotes = [t for t in rep.view.transitions if t[1] == "promote"]
        assert promotes and all(t.span_id is not None for t in promotes)


class Slow(AlpsObject):
    """One slot (returns=1): concurrent callers overflow into the
    slot queue of the hidden procedure array (§2.5)."""

    @entry(returns=1)
    def work(self, x):
        return x

    @manager_process(intercepts=["work"])
    def mgr(self):
        while True:
            call = yield self.accept("work")
            yield Delay(5)  # hold the slot: later callers must queue
            yield from self.execute(call)


def _contended_run(spans: bool, sink=None):
    kernel = Kernel(spans=spans)
    if sink is not None:
        kernel.obs.add_sink(sink)
    obj = Slow(kernel, name="slow")
    finishes = []

    def caller(tag):
        def body():
            result = yield obj.work(tag)
            finishes.append((tag, result, kernel.clock.now))

        return body

    for tag in range(4):
        kernel.spawn(caller(tag), name=f"c{tag}")
    kernel.run()
    return kernel, finishes


class TestSlotQueueInstantsAreScheduleNeutral:
    """The PR's new phase events must honour the PR 3 contract: slot-queue
    enter/leave markers are sink-only instants, never kernel events."""

    def test_sink_attached_run_is_tick_identical(self):
        k_off, out_off = _contended_run(spans=False)
        sink = MemorySink()
        k_on, out_on = _contended_run(spans=True, sink=sink)

        assert out_on == out_off
        assert k_on.clock.now == k_off.clock.now
        assert k_on.stats.context_switches == k_off.stats.context_switches

        # Non-vacuous: the contention really overflowed the hidden array
        # and the sink saw both edges of the queue wait.
        kinds = [r["kind"] for r in sink.records if r["type"] == "event"]
        enters = kinds.count("slot.queue.enter")
        leaves = kinds.count("slot.queue.leave")
        assert enters >= 3  # 4 callers, 1 slot
        assert leaves >= 1
        detail = next(
            r["detail"] for r in sink.records
            if r["type"] == "event" and r["kind"] == "slot.queue.enter"
        )
        assert detail["obj"] == "slow" and detail["entry"] == "work"

    def test_queue_instants_never_enter_the_kernel_trace(self):
        # Sink-only delivery: the markers must not appear as kernel
        # events even when kernel tracing is on — they are observations,
        # not schedulable occurrences.
        kernel = Kernel(trace=True, spans=True)
        sink = kernel.obs.add_sink(MemorySink(), forward_trace=False)
        obj = Slow(kernel, name="slow")
        for tag in range(3):
            kernel.spawn(lambda t=tag: (yield obj.work(t)), name=f"c{tag}")
        kernel.run()
        assert any(
            r["type"] == "event" and r["kind"].startswith("slot.queue.")
            for r in sink.records
        )
        assert not any(e.kind.startswith("slot.queue.") for e in kernel.trace)
