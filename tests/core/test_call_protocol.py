"""The entry-call state machine itself: one request, one fate.

Every edge of the §2.3 protocol is an :class:`~repro.core.runtime.EntryRuntime`
method; these tests pin what that buys:

* a call arms **one** expiry event — the earlier of its per-hop timeout
  and its end-to-end deadline, the timeout winning a tie;
* whichever fate settles a call first is the only one its caller ever
  sees, whatever else arrives later (table-driven);
* :meth:`AlpsObject.crash` is the inverse of ``restart()``;
* a non-intercepted ``array=`` entry runs through the same ``submit``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable

import pytest

from repro.core import (
    AcceptGuard,
    AlpsObject,
    AwaitGuard,
    CallState,
    DeadlineSweepGuard,
    Finish,
    PoolConfig,
    Reject,
    ShedGuard,
    Start,
    entry,
    manager_process,
)
from repro.errors import DeadlineExceeded, RemoteCallError
from repro.faults import FaultPlan, install
from repro.kernel import Delay, Kernel, Select
from repro.kernel.costs import FREE
from repro.net import ring
from repro.obs.sinks import MemorySink
from repro.workloads import TrafficEngine, Uniform

from tests.helpers import assert_index_matches_scan, step_to_quiescence


class Desk(AlpsObject):
    """One element; the manager sleeps ``hold`` ticks, then serves, sheds or sweeps."""

    def setup(self, work: int = 10, hold: int = 0, cap: int = 100):
        self.work = work
        self.hold = hold
        self.cap = cap
        self.calls: list = []  # every call the manager rendezvoused with

    @entry(returns=1)
    def op(self, x):
        yield Delay(self.work)
        if x == "boom":
            raise ValueError("boom")
        return x

    @manager_process(intercepts=["op"])
    def mgr(self):
        if self.hold:
            yield Delay(self.hold)
        select = Select(
            AwaitGuard(self, "op"),
            DeadlineSweepGuard(self, "op"),
            ShedGuard(self, "op", cap=self.cap),
            AcceptGuard(self, "op"),
        )
        while True:
            result = yield select
            if isinstance(result.guard, AwaitGuard):
                yield Finish(result.value)
                continue
            self.calls.append(result.value)
            if isinstance(result.guard, ShedGuard):  # the sweep arm is one too
                yield Reject(result.value, reason=result.guard.reason)
            else:
                yield Start(result.value)


# ----------------------------------------------------------------------
# (i) one expiry event; the timeout wins a tie
# ----------------------------------------------------------------------


def expire(timeout: int, deadline: int):
    """Issue ``op`` against a desk that is too slow for either bound."""
    kernel = Kernel(costs=FREE, seed=0, spans=True)
    sink = kernel.obs.add_sink(MemorySink())
    desk = Desk(kernel, name="desk", work=100)
    caught = []

    def client():
        try:
            yield desk.op(1, timeout=timeout, deadline=deadline)
        except RemoteCallError as exc:
            caught.append((type(exc), kernel.clock.now))

    kernel.spawn(client, name="client")
    kernel.run()
    (root,) = kernel.obs.find_spans(kind="call")
    return caught, root.attrs["status"], sink.records


def test_timeout_wins_a_tie_with_the_deadline():
    caught, status, records = expire(timeout=20, deadline=20)
    assert caught == [(RemoteCallError, 20)] and status == "timeout"
    # Sinks see the root span close before the instant that explains it.
    closed = next(i for i, r in enumerate(records)
                  if r["type"] == "span" and r["kind"] == "call")
    instant = next(i for i, r in enumerate(records)
                   if r["type"] == "event" and r["kind"] == "call_timeout")
    assert closed < instant
    assert not any(r.get("kind") == "deadline_exceeded" for r in records)


def test_deadline_one_tick_earlier_wins():
    caught, status, _records = expire(timeout=20, deadline=19)
    assert caught == [(DeadlineExceeded, 19)] and status == "deadline"


def test_a_served_doubly_bounded_call_leaves_one_stale_event():
    kernel = Kernel(costs=FREE, seed=0)
    desk = Desk(kernel, name="desk")

    def client():
        return (yield desk.op(7, timeout=50, deadline=60))

    assert kernel.run_process(client) == 7
    assert kernel.clock.now == 10  # the cancelled expiry does not move the clock
    assert kernel.stats.stale_events == 1


# ----------------------------------------------------------------------
# (ii) settle once: the first fate wins, whatever arrives later
# ----------------------------------------------------------------------

QUIET = 1000  # ticks the caller sits still after its call settled
LATE = 500  # when every remaining contender is thrown at the call


@dataclass
class Case:
    name: str
    first: str  # the root span's status
    bucket: str  # the traffic engine's outcome class
    desk: dict = field(default_factory=dict)
    call: dict = field(default_factory=dict)
    arg: Any = 1
    crash_at: int | None = None  # crash the desk's node (detection takes 20)
    later: Callable[[Kernel, Desk], bool] = lambda kernel, desk: True


def stat(name: str, value: int = 1):
    return lambda kernel, desk: getattr(kernel.stats, name) == value


def metric(name: str, value: int = 1):
    return lambda kernel, desk: kernel.metrics.value(name) == value


def detected_too_late(kernel, desk):
    crashed = kernel.metrics.value("faults.node_crashes") == 1
    return crashed and kernel.metrics.value("faults.failed_calls") == 0


CASES = [
    # first fate ok/error/shed: the armed expiry is the only later contender
    Case("ok, then its expiry", "ok", "ok",
         call={"timeout": 50, "deadline": 60}, later=stat("stale_events")),
    Case("error, then its expiry", "error", "error", arg="boom",
         call={"timeout": 50}, later=stat("stale_events")),
    Case("shed, then its expiry", "shed", "shed", desk={"cap": 0},
         call={"deadline": 50}, later=stat("stale_events")),
    # the caller gave up; the object carries on with the corpse
    Case("timeout, then a late finish", "timeout", "timeout",
         desk={"work": 30}, call={"timeout": 10}, later=stat("calls_completed")),
    Case("timeout, then a sweep", "timeout", "timeout",
         desk={"hold": 20}, call={"timeout": 10}, later=metric("admission.swept")),
    Case("timeout, then a body error", "timeout", "timeout", arg="boom",
         desk={"work": 30}, call={"timeout": 10},
         later=lambda kernel, desk: desk._runtimes["op"].free_slots == [0]
         and kernel.stats.calls_completed == 0),
    Case("deadline, then a late finish", "deadline", "timeout",
         desk={"work": 30}, call={"deadline": 10}, later=stat("calls_completed")),
    Case("deadline, then a sweep", "deadline", "timeout",
         desk={"hold": 20}, call={"deadline": 10}, later=metric("admission.swept")),
    # a crash at t=5 is detected at t=25: before or after the expiry
    Case("deadline, then crash detection", "deadline", "timeout",
         desk={"work": 100}, call={"deadline": 10}, crash_at=5,
         later=detected_too_late),
    Case("timeout, then crash detection", "timeout", "timeout",
         desk={"work": 100}, call={"timeout": 10}, crash_at=5,
         later=detected_too_late),
    Case("failed by crash detection, then its expiry", "failed", "timeout",
         desk={"work": 100}, call={"timeout": 80, "deadline": 90}, crash_at=5,
         later=lambda kernel, desk: kernel.metrics.value("faults.failed_calls") == 1
         and kernel.stats.stale_events >= 1),
]


@pytest.mark.parametrize("case", CASES, ids=lambda case: case.name)
def test_first_fate_wins(case):
    kernel = Kernel(costs=FREE, seed=0, spans=True)
    net = ring(kernel, 3)
    desk = net.node("n1").place(Desk(kernel, name="desk", **case.desk))
    if case.crash_at is not None:
        plan = FaultPlan(detection_delay=20).crash_node("n1", at=case.crash_at)
        install(kernel, net, plan)
    quiet = []

    def request(req):
        # The call, then a long quiet wait: a second settlement of the
        # same call would cut the wait short or raise into it.
        try:
            return (yield desk.op(case.arg, **case.call))
        finally:
            settled = kernel.clock.now
            yield Delay(QUIET)
            quiet.append(kernel.clock.now - settled)

    def every_other_contender():
        # Whatever the scenario did not send by itself, sent by hand.
        for call in desk.calls:
            runtime = call.runtime
            runtime.resume_caller(call, ("late",))
            runtime.fail(call, ValueError("late"))
            runtime.expire(call)

    kernel.post(LATE, every_other_contender)
    engine = TrafficEngine(kernel, Uniform(0), 1, request, engines=1, name="t")
    result = engine.run()  # to quiescence; checks five-way conservation
    assert result.counts == {**dict.fromkeys(result.counts, 0), case.bucket: 1}
    assert quiet == [QUIET], "the caller was settled twice"
    roots = kernel.obs.find_spans(kind="call")
    assert [root.attrs["status"] for root in roots] == [case.first]
    assert desk.calls and case.later(kernel, desk), "the later contender never arrived"


# ----------------------------------------------------------------------
# (iii) crash() is the inverse of restart()
# ----------------------------------------------------------------------


class Counter(AlpsObject):
    """A managed two-element entry and a slotless unmanaged one, one worker."""

    @entry(returns=1, array=2)
    def op(self, x):
        yield Delay(30)
        return x

    @entry(returns=1)
    def side(self, x):
        yield Delay(30)
        return x

    @manager_process(intercepts=["op"])
    def mgr(self):
        select = Select(AcceptGuard(self, "op"), AwaitGuard(self, "op"))
        while True:
            result = yield select
            if isinstance(result.guard, AcceptGuard):
                yield Start(result.value)
            else:
                yield Finish(result.value)


def test_crash_returns_every_held_call_once_and_restart_undoes_it():
    kernel = Kernel(costs=FREE, seed=0)
    counter = Counter(kernel, name="c", pool=PoolConfig("shared", size=1))
    outcomes = []

    def caller(bound, x):
        try:
            outcomes.append((yield bound(x)))
        except RemoteCallError:
            outcomes.append(f"{x} failed")

    for x in "abc":  # a: running; b: started but backlogged; c: overflow queue
        kernel.spawn(caller, counter.op, x)
    kernel.spawn(caller, counter.side, "s")  # slotless, backlogged
    step_to_quiescence(kernel, until=10)
    manager = counter.manager_process
    runtime = counter._runtimes["op"]
    a, b = runtime.slots
    assert (a.args, b.args) == (("a",), ("b",))
    assert a.body_process.alive and b.body_process is None
    assert counter.pool.queued_calls()[0] is b and len(runtime.waiting) == 1

    held = counter.crash()
    # hidden array, then overflow queue, then pool backlog; b only once
    assert [call.args[0] for call in held] == ["a", "b", "c", "s"]
    assert [call.state for call in held] == [
        CallState.STARTED, CallState.STARTED, CallState.PENDING, CallState.STARTED]
    assert not manager.alive and not a.body_process.alive
    assert counter.pool.busy == 0 and counter.pool.backlog == 0
    assert_index_matches_scan(kernel)
    assert counter.crash() == []  # nothing left to forget

    counter.restart()
    assert_index_matches_scan(kernel)
    assert runtime.free_slots == [0, 1] and counter.manager_process.alive
    for call in held:  # whoever crashed the object settles its callers
        call.runtime.fail(call, RemoteCallError("down"), "failed")
    kernel.spawn(caller, counter.op, "x")
    step_to_quiescence(kernel)
    assert sorted(outcomes) == ["a failed", "b failed", "c failed", "s failed", "x"]
    assert runtime.free_slots == [0, 1]


# ----------------------------------------------------------------------
# (iv) a non-intercepted array entry through the one submit
# ----------------------------------------------------------------------


class Bare(AlpsObject):
    @entry(returns=1, array=2)
    def op(self, x, work):
        yield Delay(work)
        if x == "boom":
            raise ValueError("boom")
        return x


def run_bare(*requests):
    kernel = Kernel(costs=FREE, seed=0)
    bare = Bare(kernel, name="bare", record_calls=True)
    log = []

    def caller(x, work):
        try:
            yield bare.op(x, work)
        except ValueError:
            pass
        log.append((x, kernel.clock.now))

    for x, work in requests:
        kernel.spawn(caller, x, work)
    return kernel, bare, log


def test_saturated_unmanaged_array_queues_then_starts_without_a_manager():
    kernel, bare, log = run_bare(("a", 10), ("b", 10), ("c", 10))
    runtime = bare._runtimes["op"]
    step_to_quiescence(kernel, until=5)
    assert bare.manager_process is None
    assert runtime.free_slots == [] and runtime.attached_slots == []
    (queued,) = runtime.waiting  # c: no element, so no body yet
    assert queued.state is CallState.PENDING and kernel.stats.starts == 2
    step_to_quiescence(kernel)
    assert log == [("a", 10), ("b", 10), ("c", 20)]
    assert (queued.attached_at, queued.started_at) == (10, 10)
    assert kernel.stats.calls_issued == kernel.stats.calls_completed == 3
    assert [call.args[0] for call in bare.completed_calls()] == ["a", "b", "c"]


def test_failing_unmanaged_body_hands_its_element_to_the_next_call():
    kernel, bare, log = run_bare(("boom", 5), ("b", 50), ("c", 10))
    step_to_quiescence(kernel)
    # c starts the tick the failing body frees its element, not when b ends.
    assert log == [("boom", 5), ("c", 15), ("b", 50)]
    assert bare._runtimes["op"].free_slots == [0, 1]
