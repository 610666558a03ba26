"""Property: every admission arm is ready exactly when, and with exactly
the call, a scan of the hidden array says — after every kernel event.

The arms of :mod:`repro.core.admission` answer from the slot index: the
list of attached calls, handed over uncopied, and ``mortal``, the O(1)
reason a sweep or predicted-wait arm has nothing to look for.  The
*reference arms* below do what the arms did before the index held the
calls: copy the ATTACHED calls off ``runtime.slots``, then choose — the
shed arms the oldest ``attached_at``, every other arm in element order.
Drawn: arrivals on a managed and an unmanaged entry with and without
``timeout=`` / ``deadline=``, body lengths, the queue cap, how long the
manager rests between rendezvous, and an optional node crash with
supervised (re-queue) or manual recovery.
Every arrival ends in exactly one of five ways.
"""

from operator import attrgetter

from hypothesis import given, settings, strategies as st

from repro.core import (
    ACCEPT_PRI,
    AWAIT_PRI,
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
    icpt,
    manager_process,
)
from repro.errors import AdmissionError, DeadlineExceeded, RemoteCallError
from repro.faults import FaultPlan, install
from repro.kernel import Charge, Delay, Kernel, Select
from repro.net import ring
from repro.stdlib import Supervisor

from tests.helpers import step_to_quiescence


class Gate(AlpsObject):
    """Three managed elements behind the whole ladder, two unmanaged ones."""

    def setup(self, cap: int = 2, pace: int = 0):
        self.cap = cap
        self.pace = pace  # ticks the manager rests between rendezvous

    @entry(returns=1, array=3)
    def op(self, work):
        yield Charge(work)
        return work

    @entry(returns=1, array=2)
    def bare(self, work):
        yield Charge(work)
        return work

    @manager_process(intercepts={"op": icpt(params=1)})
    def mgr(self):
        select = Select(
            AwaitGuard(self, "op", pri=AWAIT_PRI),
            DeadlineSweepGuard(self, "op"),
            PredictedWaitGuard(self, "op"),
            ShedGuard(self, "op", cap=self.cap),
            AcceptGuard(self, "op", pri=ACCEPT_PRI),
        )
        while True:
            result = yield select
            if isinstance(result.guard, ShedGuard):
                yield Reject(result.value, reason=result.guard.reason)
            elif isinstance(result.guard, AcceptGuard):
                yield Start(result.value)
            else:
                yield Finish(result.value)
            if self.pace:  # lets a backlog sit attached, and age
                yield Delay(self.pace)


def even(work):
    return work % 2 == 0


def longest_first(call):
    return -call.args[0]


def reference(kernel, guard):
    """The call ``guard`` must be ready with (None: not ready), by scan."""
    runtime = guard.runtime
    calls = [c for c in runtime.slots
             if c is not None and c.state is CallState.ATTACHED]
    pending = len(calls) + len(runtime.waiting)
    now = kernel.clock.now
    if type(guard) is DeadlineSweepGuard:
        calls = [c for c in calls if c.caller_resumed
                 or (c.deadline_at is not None and c.deadline_at <= now)]
    elif type(guard) is PredictedWaitGuard:
        ewma = runtime.service_estimator.value
        calls = [] if ewma is None else [
            c for c in calls
            if c.deadline_at is not None and not c.caller_resumed
            and ewma * pending > c.deadline_at - now]
    elif type(guard) is ShedGuard:
        if pending <= guard.cap:
            calls = []
        calls = sorted(calls, key=attrgetter("attached_at"))  # oldest, stable
    else:  # a plain accept: one element, a condition, a run-time priority
        if guard.slot is not None:
            calls = [c for c in calls if c.slot == guard.slot]
        if guard.when is not None:
            calls = [c for c in calls if guard.when(*c.intercepted_args)]
        if callable(guard.pri):
            calls = sorted(calls, key=guard.pri)  # stable: first minimum
    return calls[0] if calls else None


def probes_of(gate, cap):
    arms = [
        DeadlineSweepGuard(gate, "op"),
        PredictedWaitGuard(gate, "op"),
        ShedGuard(gate, "op", cap=cap),
        ShedGuard(gate, "op", cap=0),
        AcceptGuard(gate, "op"),
        AcceptGuard(gate, "op", slot=2),
        AcceptGuard(gate, "op", when=even),
        AcceptGuard(gate, "op", pri=longest_first),
    ]
    # The unmanaged entry: attached and started in one event, never ready.
    return arms + [DeadlineSweepGuard(gate, "bare"), ShedGuard(gate, "bare", cap=0)]


arrivals = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=60),       # issue tick
        st.sampled_from(["op", "op", "op", "bare"]),  # entry
        st.sampled_from([1, 4, 9, 20]),               # body length
        st.sampled_from([None, None, 6, 25]),         # per-hop timeout
        st.sampled_from([None, None, 12, 45]),        # end-to-end deadline
    ),
    min_size=1,
    max_size=16,
)


@given(
    arrivals=arrivals,
    cap=st.integers(min_value=0, max_value=4),
    pace=st.sampled_from([0, 2, 5]),
    crash_at=st.one_of(st.none(), st.integers(min_value=3, max_value=50)),
    supervised=st.booleans(),
    seed=st.integers(min_value=0, max_value=20),
)
@settings(max_examples=60, deadline=None)
def test_arms_agree_with_a_scan_after_every_event(
    arrivals, cap, pace, crash_at, supervised, seed
):
    kernel = Kernel(seed=seed)
    net = ring(kernel, 3, cpus_per_node=1)
    gate = net.node("n1").place(Gate(kernel, name="gate", cap=cap, pace=pace))
    plan = FaultPlan(detection_delay=5)
    if crash_at is not None:
        plan = plan.crash_node("n1", at=crash_at, restart_at=crash_at + 30)
    faults = install(kernel, net, plan)
    if supervised:
        net.node("n2").place(Supervisor(kernel, name="sup", faults=faults)).watch(gate)
    elif crash_at is not None:
        kernel.post(crash_at + 31, gate.restart)
    probes = probes_of(gate, cap)
    outcomes = []

    def client(at, name, work, timeout, deadline):
        yield Delay(at)
        try:
            yield getattr(gate, name)(work, timeout=timeout, deadline=deadline)
            outcomes.append("ok")
        except AdmissionError:
            outcomes.append("shed")
        except DeadlineExceeded:
            outcomes.append("deadline")
        except RemoteCallError as exc:
            outcomes.append("timeout" if "timed out" in str(exc) else "failed")

    def arms_agree():
        for probe in probes:
            ready = probe.poll(kernel)
            assert (None if ready is None else ready.token) is reference(
                kernel, probe), f"{probe.describe()} at t={kernel.clock.now}"

    for i, spec in enumerate(arrivals):
        net.node("n0").spawn(client, *spec, name=f"c{i}", daemon=True)
    # Also checks, per event, the index against ``slots`` and ``mortal``
    # against a count (``tests.helpers.assert_index_matches_scan``).
    step_to_quiescence(kernel, also=arms_agree)

    assert len(outcomes) == len(arrivals)  # one fate each, five ways
    assert outcomes.count("shed") == kernel.stats.calls_shed
    counters = kernel.metrics.snapshot()
    assert outcomes.count("deadline") == counters.get("deadline.expired", 0)
    assert outcomes.count("failed") == counters.get("faults.failed_calls", 0)
    for runtime in gate._runtimes.values():
        assert not runtime.attached and not runtime.waiting and not runtime.mortal
