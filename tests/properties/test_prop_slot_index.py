"""Property: the slot index equals a scan of the hidden array after every
kernel event, over random interleavings of calls, raising bodies,
caller timeouts, a node crash and (supervised or manual) recovery."""

from hypothesis import given, settings, strategies as st

from repro.core import (
    AcceptGuard,
    AlpsObject,
    AwaitGuard,
    DeadlineSweepGuard,
    Finish,
    Reject,
    ShedGuard,
    Start,
    entry,
    manager_process,
)
from repro.faults import FaultPlan, install
from repro.kernel import Delay, Kernel, Select
from repro.net import ring
from repro.stdlib import Supervisor

from tests.helpers import step_to_quiescence


class Gate(AlpsObject):
    """Three-element array; sweeps dead calls, sheds past a cap of 2."""

    @entry(returns=1, array=3)
    def op(self, work):
        if work < 0:
            raise ValueError("negative work")
        yield Delay(work)
        return work

    @manager_process(intercepts=["op"])
    def mgr(self):
        guards = [
            AwaitGuard(self, "op", pri=0),
            DeadlineSweepGuard(self, "op"),
            ShedGuard(self, "op", cap=2),
            AcceptGuard(self, "op", pri=3),
        ]
        while True:
            result = yield Select(*guards)
            if isinstance(result.guard, ShedGuard):
                yield Reject(result.value, reason=result.guard.reason)
            elif isinstance(result.guard, AcceptGuard):
                yield Start(result.value)
            else:
                yield Finish(result.value)


calls = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=40),            # issue tick
        st.sampled_from([-1, 0, 4, 25]),                   # body work (-1 raises)
        st.sampled_from([None, None, 2, 12]),              # per-hop timeout
        st.sampled_from([None, None, 10]),                 # end-to-end deadline
    ),
    min_size=1,
    max_size=14,
)


@given(
    calls=calls,
    crash_at=st.one_of(st.integers(min_value=3, max_value=45), st.none()),
    supervised=st.booleans(),
    arbitration=st.sampled_from(["ordered", "random"]),
    seed=st.integers(min_value=0, max_value=50),
)
@settings(max_examples=80, deadline=None)
def test_index_matches_scan_after_every_event(
    calls, crash_at, supervised, arbitration, seed
):
    kernel = Kernel(seed=seed, arbitration=arbitration)
    net = ring(kernel, 3)
    gate = net.node("n1").place(Gate(kernel, name="gate"))
    plan = FaultPlan(detection_delay=5)
    if crash_at is not None:
        plan = plan.crash_node("n1", at=crash_at, restart_at=crash_at + 30)
    faults = install(kernel, net, plan)
    if supervised:
        net.node("n2").place(Supervisor(kernel, name="sup", faults=faults)).watch(gate)
    elif crash_at is not None:
        kernel.post(crash_at + 31, gate.restart)
    outcomes = []

    def client(at, work, timeout, deadline):
        yield Delay(at)
        try:
            outcomes.append((yield gate.op(work, timeout=timeout, deadline=deadline)))
        except Exception as exc:  # noqa: BLE001 - any terminal error counts
            outcomes.append(type(exc).__name__)

    for i, spec in enumerate(calls):
        net.node("n0").spawn(client, *spec, name=f"c{i}", daemon=True)
    step_to_quiescence(kernel)
    assert len(outcomes) <= len(calls)
    runtime = gate._runtimes["op"]
    assert len(runtime.free_slots) + len(runtime.attached_slots) <= 3
