"""Two runs, same seeds => tick-identical traces.

This is the contract that makes fault injection usable for debugging:
every crash, drop, jitter draw, retry and recovery lands on the same
virtual tick every time, so a failing schedule can be replayed exactly.
"""

from repro.errors import RemoteCallError
from repro.faults import ExponentialBackoff, FaultPlan, install, retry
from repro.kernel import Delay, Kernel
from repro.kernel.costs import FREE
from repro.net import ring
from repro.stdlib import Dictionary, Supervisor


def snapshot(kernel):
    """A trace as comparable tuples (drops Event object identity)."""
    return [
        (e.time, e.kind, e.process, tuple(sorted(e.detail.items())))
        for e in kernel.trace
    ]


def full_scenario(fault_seed=11, kernel_seed=0):
    """Crash + partition + lossy/jittery links + supervisor + retriers."""
    kernel = Kernel(costs=FREE, seed=kernel_seed, trace=True)
    net = ring(kernel, 4)
    d = net.node("n1").place(
        Dictionary(kernel, name="d", entries={"a": 1, "b": 2}, search_work=10)
    )
    runtime = install(
        kernel,
        net,
        FaultPlan(seed=fault_seed, detection_delay=20)
        .crash_node("n1", at=150, restart_at=400)
        .partition(["n0", "n1"], ["n2", "n3"], at=700, heal_at=900)
        .drop_messages(0.3, dst="n1")
        .delay_jitter(5, dst="n1"),
    )
    sup = net.node("n3").place(Supervisor(kernel, name="sup", faults=runtime))
    sup.watch(d)

    def client(node, key, phase):
        def body():
            yield Delay(phase)
            for _ in range(6):
                try:
                    value = yield from retry(
                        lambda: d.search(key, timeout=60),
                        ExponentialBackoff(base=15, max_attempts=6, jitter=8),
                        seed=phase,
                    )
                    assert value in (1, 2)
                except RemoteCallError:
                    pass
                yield Delay(40)

        net.node(node).spawn(body, name=f"client_{node}")

    client("n0", "a", 0)
    client("n2", "b", 7)
    kernel.run(until=1200)
    return kernel


def test_same_seeds_tick_identical_traces():
    first = full_scenario()
    second = full_scenario()
    a, b = snapshot(first), snapshot(second)
    assert a == b
    # The scenario genuinely exercised every fault class.
    kinds = {e.kind for e in first.trace}
    assert {"crash", "restart", "drop", "partition", "retry"} <= kinds
    assert first.metrics.snapshot() == second.metrics.snapshot()


def test_different_fault_seed_diverges():
    # 0.3 loss over dozens of messages: a different RNG stream is
    # (deterministically) certain to pick different victims.
    a = snapshot(full_scenario(fault_seed=11))
    b = snapshot(full_scenario(fault_seed=12))
    assert a != b


def test_fault_free_plan_matches_plain_run_outcomes():
    """Installing an empty plan must not perturb application results."""

    def run(with_faults):
        kernel = Kernel(costs=FREE, seed=0, trace=True)
        net = ring(kernel, 4)
        d = net.node("n1").place(
            Dictionary(kernel, name="d", entries={"a": 1}, search_work=10)
        )
        if with_faults:
            install(kernel, net, FaultPlan())
        results = []

        def client():
            for _ in range(3):
                results.append(((yield d.search("a")), kernel.clock.now))

        net.node("n0").spawn(client, name="client")
        kernel.run()
        return results

    assert run(with_faults=True) == run(with_faults=False)


def test_message_fate_draws_are_order_stable():
    """Per-send RNG draws depend only on event order, not wall time."""
    from repro.channels import Receive
    from repro.net import NetChannel, NetSend

    def run():
        kernel = Kernel(costs=FREE, seed=0, trace=True)
        net = ring(kernel, 4)
        install(
            kernel,
            net,
            FaultPlan(seed=21).drop_messages(0.5, dst="n2").delay_jitter(9, dst="n2"),
        )
        inbox = NetChannel(net.node("n2"), name="inbox")
        got = []

        def sender(start):
            yield Delay(start)
            for i in range(30):
                yield NetSend(inbox, (start, i))
                yield Delay(3)

        def receiver():
            while True:
                got.append((kernel.clock.now, (yield Receive(inbox))))

        net.node("n0").spawn(sender, 0, name="s0")
        net.node("n1").spawn(sender, 1, name="s1")
        net.node("n2").spawn(receiver, name="recv", daemon=True)
        kernel.run()
        return got

    first, second = run(), run()
    assert first == second
    assert 0 < len(first) < 60  # loss actually applied to the interleaving
