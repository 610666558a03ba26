"""The slot index always equals a brute-force scan of the hidden array.

:class:`~repro.core.runtime.EntryRuntime` keeps ``free_slots``,
``attached_slots`` and ``done_slots`` up to date at the transition sites
instead of scanning ``slots`` on every guard poll.  Each scenario here is
stepped one kernel event at a time and, after every event, every runtime
of every object is compared with the scan — including the paths that
leave the accept→finish protocol sideways (a raising body, an expiring
caller, a killed body, a crash, a restart, an unmanaged array entry).

The stored lists are ``attached`` and ``done`` — the calls themselves —
plus ``mortal``, the count of attached calls with an armed expiry; the
``*_slots`` names are views derived from them.  The same per-event check
(``tests.helpers.assert_index_matches_scan``) holds every indexed call
against ``slots`` and ``mortal`` against a count.
"""

from __future__ import annotations

import pytest

from repro.channels import Channel, Receive, ReceiveGuard, Send
from repro.core import (
    ACCEPT_PRI,
    AcceptGuard,
    AlpsObject,
    AwaitGuard,
    CallState,
    DeadlineSweepGuard,
    Finish,
    PredictedWaitGuard,
    Reject,
    ShedGuard,
    Start,
    entry,
    execute_call,
    manager_process,
)
from repro.errors import RemoteCallError
from repro.faults import FaultPlan, install
from repro.kernel import Delay, Kernel, Kill, Select
from repro.kernel.costs import FREE
from repro.net import ring
from repro.stdlib import Dictionary, GatedKVStore, Supervisor
from repro.workloads import Poisson, TrafficEngine

from tests.helpers import assert_index_matches_scan, step_to_quiescence


class Gate(AlpsObject):
    """Two-element array behind an accept/start + await/finish manager."""

    def setup(self, work: int = 10, hold: int = 0):
        self.work = work
        self.hold = hold
        self.started: list = []

    @entry(returns=1, array=2)
    def op(self, x):
        if x == "boom":
            raise ValueError("boom")
        yield Delay(self.work)
        return x

    @manager_process(intercepts=["op"])
    def mgr(self):
        if self.hold:
            yield Delay(self.hold)
        guards = [AcceptGuard(self, "op"), AwaitGuard(self, "op")]
        while True:
            result = yield Select(*guards)
            if isinstance(result.guard, AcceptGuard):
                self.started.append(result.value)
                yield Start(result.value)
            else:
                yield Finish(result.value)


def test_gated_kv_overload_with_deadlines_fires_every_admission_arm():
    kernel = Kernel(seed=11)
    kv = GatedKVStore(kernel, name="kv", read_work=2, write_work=6,
                      request_max=8, queue_cap=16)

    def request(req):
        if req.index % 3 == 0:
            return kv.put(f"k{req.index % 7}", req.index, deadline=200)
        return kv.get(f"k{req.index % 7}", deadline=200)

    engine = TrafficEngine(kernel, Poisson(3, seed=11), 240, request,
                           callers=1000, engines=4, clients=48, seed=11)
    engine.start()
    assert step_to_quiescence(kernel) > 1000
    fired = kernel.metrics.snapshot()
    for arm in ("admission.shed.predicted-wait", "admission.shed.queue-cap",
                "admission.swept"):
        assert fired[arm] > 0, arm


def test_poll_source_contract_holds_across_restart():
    # "source empty => poll() is None", for every guard class that names a
    # poll_source, after every event — and the sources keep their identity
    # when restart() resets the runtimes under the manager's one Select.
    kernel = Kernel(seed=11)
    kv = GatedKVStore(kernel, name="kv", read_work=2, write_work=6,
                      request_max=4, queue_cap=6)
    side = Channel(name="side")
    probes = [ReceiveGuard(side)]
    for op in kv.OPS:
        probes += [AcceptGuard(kv, op), AwaitGuard(kv, op),
                   DeadlineSweepGuard(kv, op), PredictedWaitGuard(kv, op),
                   ShedGuard(kv, op, cap=6)]
    sources = [probe.poll_source for probe in probes]
    assert all(source is not None for source in sources)
    for probe in probes[1:]:  # the index lists themselves, not copies
        runtime = probe.runtime
        assert probe.poll_source is (
            runtime.done if isinstance(probe, AwaitGuard) else runtime.attached)
    ready = set()

    def contract():
        for probe, source in zip(probes, sources):
            assert probe.poll_source is source, probe.describe()
            if probe.poll(kernel) is not None:
                assert source, probe.describe()
                ready.add(type(probe))
        for pending in kernel._pending_selects.values():
            if pending.plan.compiled:  # the manager, blocked on its one Select
                for source, pairs in pending.plan.buckets:
                    assert all(g.poll_source is source for _i, g in pairs)

    def request(req):
        if req.index % 3 == 0:
            return kv.put(f"k{req.index % 7}", req.index, deadline=120)
        return kv.get(f"k{req.index % 7}", deadline=120)

    def side_traffic():
        yield Delay(40)
        yield Send(side, "m")
        yield Delay(200)
        yield Receive(side)

    kernel.spawn(side_traffic)
    engine = TrafficEngine(kernel, Poisson(3, seed=11), 300, request,
                           callers=1000, engines=4, clients=48, seed=11)
    engine.start()
    step_to_quiescence(kernel, until=300, also=contract)
    manager = kv.manager_process
    served_before = kv.reads_served
    kv.restart()  # manager alive: it keeps its Select and the compiled plan
    contract()
    step_to_quiescence(kernel, also=contract)
    assert kv.manager_process is manager and kv.reads_served > served_before
    assert ready >= {ReceiveGuard, AcceptGuard, AwaitGuard, ShedGuard,
                     DeadlineSweepGuard, PredictedWaitGuard}


def test_body_that_raises_frees_its_element():
    kernel = Kernel()
    gate = Gate(kernel, name="g")
    outcomes = []

    def caller(x):
        try:
            outcomes.append((yield gate.op(x)))
        except ValueError as exc:
            outcomes.append(str(exc))

    for x in ("a", "boom", "b", "boom", "c"):
        kernel.spawn(caller, x)
    step_to_quiescence(kernel)
    assert sorted(outcomes) == ["a", "b", "boom", "boom", "c"]
    assert gate._runtimes["op"].free_slots == [0, 1]


def test_caller_timeout_expiring_while_attached():
    # The manager sleeps through the callers' timeouts: the calls stay
    # ATTACHED (and indexed) with their callers gone, then get served.
    kernel = Kernel()
    gate = Gate(kernel, name="g", hold=50)
    errors = []

    def caller(x):
        try:
            yield gate.op(x, timeout=5)
        except RemoteCallError:
            errors.append(x)

    for x in "abc":
        kernel.spawn(caller, x)
    step_to_quiescence(kernel, until=40)
    runtime = gate._runtimes["op"]
    assert sorted(errors) == ["a", "b", "c"]
    assert runtime.attached_slots == [0, 1] and len(runtime.waiting) == 1
    step_to_quiescence(kernel)
    assert len(gate.started) == 3 and runtime.free_slots == [0, 1]


class SweepGate(AlpsObject):
    """Four elements behind a monitor-style manager with a sweep arm."""

    def setup(self, work: int = 10):
        self.work = work
        self.served: list = []

    @entry(returns=1, array=4)
    def op(self, x):
        yield Delay(self.work)
        return x

    @manager_process(intercepts=["op"])
    def mgr(self):
        select = Select(DeadlineSweepGuard(self, "op"),
                        AcceptGuard(self, "op", pri=ACCEPT_PRI))
        while True:
            result = yield select
            if isinstance(result.guard, DeadlineSweepGuard):
                yield Reject(result.value, reason=result.guard.reason)
            else:
                self.served.append(result.value.args[0])
                yield from execute_call(result.value)


def test_timed_call_expiring_in_a_high_element_is_still_swept():
    # Elements 0..3 hold a, b, c, d; only d (element 3) is timed.  It
    # expires at t=15 while the manager executes b, and the sweep arm
    # reaches past the live c in element 2 to free it.
    kernel = Kernel(costs=FREE)
    gate = SweepGate(kernel, name="g")
    runtime = gate._runtimes["op"]
    outcomes = []

    def caller(x, timeout):
        try:
            outcomes.append((yield gate.op(x, timeout=timeout)))
        except RemoteCallError:
            outcomes.append(f"{x} timed out")

    for x in "abcd":
        kernel.spawn(caller, x, 15 if x == "d" else None)
    step_to_quiescence(kernel, until=5)
    assert [c.args[0] for c in runtime.attached] == ["b", "c", "d"]
    assert runtime.mortal == 1 and runtime.attached[-1].slot == 3
    step_to_quiescence(kernel, until=18)  # d expired, still attached
    assert "d timed out" in outcomes and runtime.mortal == 1
    step_to_quiescence(kernel)
    assert gate.served == ["a", "b", "c"]
    assert sorted(outcomes) == ["a", "b", "c", "d timed out"]
    assert kernel.metrics.snapshot()["admission.swept"] == 1
    assert runtime.mortal == 0 and runtime.free_slots == [0, 1, 2, 3]


def test_kill_of_a_body_process_leaves_its_element_held():
    kernel = Kernel()
    gate = Gate(kernel, name="g", work=30)
    done = []

    def caller(x):
        done.append((yield gate.op(x)))

    def killer():
        yield Delay(10)
        victim = gate.started[0]
        assert victim.state is CallState.STARTED
        yield Kill(victim.body_process)

    kernel.spawn(caller, "doomed", daemon=True)
    for x in "abc":
        kernel.spawn(caller, x)
    kernel.spawn(killer)
    step_to_quiescence(kernel)
    # The killed body never reaches BODY_DONE: its element stays taken,
    # everyone else is served through the other one.
    assert sorted(done) == ["a", "b", "c"]
    runtime = gate._runtimes["op"]
    assert runtime.free_slots == [1] and runtime.done_slots == []


def test_node_crash_and_supervisor_requeue():
    kernel = Kernel(costs=FREE, seed=0)
    net = ring(kernel, 4)
    d = net.node("n1").place(
        Dictionary(kernel, name="d", entries={"a": 42, "b": 7},
                   search_work=30, search_max=2)
    )
    faults = install(
        kernel, net,
        FaultPlan(detection_delay=10).crash_node("n1", at=20, restart_at=200),
    )
    sup = net.node("n3").place(Supervisor(kernel, name="sup", faults=faults))
    sup.watch(d)
    results = []

    def client(word, at):
        yield Delay(at)
        results.append((yield d.search(word)))

    # In flight at the crash: two started bodies and three calls in the
    # overflow queue; all five re-queued after runtime.reset().
    for i, word in enumerate(["a", "b", "a", "b", "a"]):
        net.node("n0").spawn(client, word, 8 + 2 * i, name=f"c{i}")
    step_to_quiescence(kernel)
    assert sorted(results) == [7, 7, 42, 42, 42]
    assert sup.restarts == [(200, "d", 5)]
    assert d._runtimes["search"].free_slots == [0, 1]


def test_crash_zeroes_mortal_and_a_requeue_counts_again():
    kernel = Kernel(costs=FREE, seed=0)
    net = ring(kernel, 4)
    # The manager sleeps 60 ticks whenever it (re)starts: the deadlined
    # calls are caught ATTACHED by the crash, and again after the re-queue.
    gate = net.node("n1").place(Gate(kernel, name="g", hold=60))
    faults = install(
        kernel, net,
        FaultPlan(detection_delay=10).crash_node("n1", at=20, restart_at=200),
    )
    sup = net.node("n3").place(Supervisor(kernel, name="sup", faults=faults))
    sup.watch(gate)
    runtime = gate._runtimes["op"]
    results = []

    def client(x, deadline):
        results.append((yield gate.op(x, deadline=deadline)))

    for x, deadline in (("a", 1000), ("b", None), ("c", 1000)):
        net.node("n0").spawn(client, x, deadline, name=f"c{x}")
    step_to_quiescence(kernel, until=19)
    assert runtime.attached_slots == [0, 1] and runtime.mortal == 1
    assert len(runtime.waiting) == 1  # c: deadlined, but not attached
    step_to_quiescence(kernel, until=199)
    assert runtime.attached == [] and runtime.mortal == 0
    step_to_quiescence(kernel, until=205)
    assert sup.restarts == [(200, "g", 3)]
    assert runtime.attached_slots == [0, 1] and runtime.mortal == 1
    step_to_quiescence(kernel)
    assert sorted(results) == ["a", "b", "c"]
    assert runtime.mortal == 0 and runtime.free_slots == [0, 1]


def test_uncapped_manager_polls_as_it_always_did():
    # queue_cap=None: await and accept arms only, nothing reads ``mortal``.
    # The counts below were recorded on the int-list index (03819f2).
    kernel = Kernel(seed=11)
    kv = GatedKVStore(kernel, name="kv", read_work=2, write_work=6,
                      request_max=4, queue_cap=None)

    def request(req):
        if req.index % 3 == 0:
            return kv.put(f"k{req.index % 7}", req.index, deadline=120)
        return kv.get(f"k{req.index % 7}", timeout=90)

    engine = TrafficEngine(kernel, Poisson(3, seed=11), 300, request,
                           callers=1000, engines=4, clients=48, seed=11)
    engine.start()
    step_to_quiescence(kernel)
    stats = kernel.stats
    assert (stats.guard_polls, stats.accepts, stats.finishes, kernel.clock.now) == (
        3630, 300, 300, 1944)
    counts = engine.result.counts
    assert (counts["ok"], counts["timeout"]) == (39, 261)  # dead calls are served


def test_restart_orphans_in_flight_calls():
    kernel = Kernel()
    gate = Gate(kernel, name="g", work=30)
    served = []

    def caller(x):
        served.append((yield gate.op(x)))

    for x in "abc":  # two started (bodies running), one queued
        kernel.spawn(caller, x, daemon=True)
    step_to_quiescence(kernel, until=15)
    runtime = gate._runtimes["op"]
    assert runtime.free_slots == [] and len(runtime.waiting) == 1
    gate.restart()
    assert_index_matches_scan(kernel)
    assert runtime.free_slots == [0, 1] and not runtime.waiting
    for x in "xy":  # reuse the elements the orphans still point at
        kernel.spawn(caller, x)
    step_to_quiescence(kernel)
    # The orphaned bodies ran to BODY_DONE off-array and were never
    # indexed; only the post-restart callers were served.
    assert sorted(served) == ["x", "y"]
    assert runtime.done_slots == [] and runtime.free_slots == [0, 1]


def test_restart_forgets_attached_calls():
    kernel = Kernel()
    gate = Gate(kernel, name="g", hold=50)  # manager not accepting yet
    served = []

    def caller(x):
        served.append((yield gate.op(x)))

    for x in "abc":
        kernel.spawn(caller, x, daemon=True)
    step_to_quiescence(kernel, until=15)
    runtime = gate._runtimes["op"]
    assert runtime.attached_slots == [0, 1] and runtime.pending_count() == 3
    gate.restart()
    assert_index_matches_scan(kernel)
    assert runtime.attached_slots == [] and runtime.pending_count() == 0
    for x in "xy":
        kernel.spawn(caller, x)
    step_to_quiescence(kernel)
    assert sorted(served) == ["x", "y"]


def test_unmanaged_array_entry():
    class Bare(AlpsObject):
        @entry(returns=1, array=2)
        def op(self, x):
            if x == 3:
                raise ValueError("three")
            yield Delay(5)
            return x

    kernel = Kernel()
    bare = Bare(kernel, name="bare")
    got = []

    def caller(x):
        try:
            got.append((yield bare.op(x)))
        except ValueError:
            got.append("err")

    for x in range(6):
        kernel.spawn(caller, x)
    step_to_quiescence(kernel)
    assert sorted(map(str, got)) == ["0", "1", "2", "4", "5", "err"]
    assert bare._runtimes["op"].free_slots == [0, 1]


@pytest.mark.parametrize("arbitration", ["ordered", "random"])
def test_random_arbitration_draws_from_the_ascending_free_list(arbitration):
    kernel = Kernel(seed=5, arbitration=arbitration)
    gate = Gate(kernel, name="g", work=7)
    for x in range(9):
        kernel.spawn(lambda x=x: (yield gate.op(x)))
    step_to_quiescence(kernel)
    assert len(gate.started) == 9
