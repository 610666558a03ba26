"""Network edge cases: unplaced objects, same-node sends, no-route queries."""

import pytest

from repro.channels import Receive
from repro.errors import DeadlineExceeded, NetworkError
from repro.faults import FaultPlan, install
from repro.kernel import Delay, Join, Par, Self, Spawn
from repro.net import NetChannel, NetSend, Network, ring
from repro.stdlib import Dictionary


class TestUnplacedObject:
    def test_call_from_node_process_works_with_zero_latency(self, free_kernel):
        kernel = free_kernel
        net = ring(kernel, 4)
        # Never placed: the object lives "outside" the network, so calls
        # reach it without any network delay.
        d = Dictionary(kernel, name="d", entries={"a": 1}, search_work=0)
        times = []

        def client():
            value = yield d.search("a")
            times.append((kernel.clock.now, value))

        net.node("n2").spawn(client, name="client")
        kernel.run()
        assert times == [(0, 1)]
        assert net.traffic == 0

    def test_call_from_plain_process_works(self, kernel):
        ring(kernel, 4)  # a network exists but neither party is on it
        d = Dictionary(kernel, name="d", entries={"a": 1}, search_work=0)

        def client():
            return (yield d.search("a"))

        assert kernel.run_process(client) == 1


class TestSameNodeSend:
    def test_netsend_to_own_node_is_immediate_and_free(self, free_kernel):
        kernel = free_kernel
        net = ring(kernel, 4)
        inbox = NetChannel(net.node("n1"), name="inbox")
        got = []

        def main():
            yield NetSend(inbox, "local", size=100)  # size must not matter
            got.append((kernel.clock.now, (yield Receive(inbox))))

        net.node("n1").spawn(main, name="main")
        kernel.run()
        assert got == [(0, "local")]
        assert net.traffic == 0  # never touched a link

    def test_netsend_from_nodeless_process_is_immediate(self, free_kernel):
        kernel = free_kernel
        net = ring(kernel, 4)
        inbox = NetChannel(net.node("n1"), name="inbox")
        got = []

        def main():
            yield NetSend(inbox, "x")
            got.append((kernel.clock.now, (yield Receive(inbox))))

        kernel.spawn(main, name="main")  # spawned off-network
        kernel.run()
        assert got == [(0, "x")]


class TestNoRoute:
    def make_islands(self, kernel):
        """Two connected pairs with no bridge between them."""
        net = Network(kernel)
        for name in ("a0", "a1", "b0", "b1"):
            net.add_node(name)
        net.connect("a0", "a1", latency=2)
        net.connect("b0", "b1", latency=3)
        return net

    def test_latency_raises_across_islands(self, kernel):
        net = self.make_islands(kernel)
        with pytest.raises(NetworkError, match="no route"):
            net.latency("a0", "b1")

    def test_latency_or_none_returns_none(self, kernel):
        net = self.make_islands(kernel)
        assert net.latency_or_none("a0", "b1") is None
        assert net.latency_or_none("a0", "a1") == 2
        assert net.latency_or_none("b0", "b0") == 0

    def test_late_link_bridges_islands(self, kernel):
        net = self.make_islands(kernel)
        assert net.latency_or_none("a1", "b0") is None
        net.connect("a1", "b0", latency=1)  # invalidates cached routes
        assert net.latency("a0", "b1") == 2 + 1 + 3

    def test_entry_call_across_islands_fails_in_the_caller(self, kernel):
        # Used to raise out of kernel.run() from inside the syscall
        # handler, leaving the caller parked with its except unreached.
        net = self.make_islands(kernel)
        d = net.node("b1").place(Dictionary(kernel, name="d", entries={"a": 1}))
        caught = []

        def client():
            try:
                yield d.search("a")
            except NetworkError as exc:
                caught.append((kernel.clock.now, str(exc)))

        proc = net.node("a0").spawn(client, name="client")
        kernel.run()
        assert caught == [(0, "no route from 'a0' to 'b1'")]
        assert not proc.alive and kernel.stats.calls_issued == 0

    def test_netsend_across_islands_fails_in_the_sender(self, kernel):
        net = self.make_islands(kernel)
        inbox = NetChannel(net.node("b1"), name="inbox")
        caught = []

        def sender():
            try:
                yield NetSend(inbox, "x")
            except NetworkError as exc:
                caught.append(str(exc))

        net.node("a0").spawn(sender, name="sender")
        kernel.run()
        assert caught == ["no route from 'a0' to 'b1'"]
        assert not inbox._queue and kernel.stats.sends == 0

    def test_diameter_ignores_unreachable_pairs(self, kernel):
        net = self.make_islands(kernel)
        assert net.diameter() == 3  # largest *reachable* distance


def _parent(how, child, deadline_at=None):
    """A process that makes ``child`` by ``Spawn`` or by ``Par`` and waits."""
    (yield Self()).deadline_at = deadline_at
    if how == "spawn":
        yield Join((yield Spawn(child, name="child")))
    else:
        yield Par(child)


@pytest.mark.parametrize("how", ["spawn", "par"])
class TestChildrenLiveWhereTheirCreatorLives:
    """A ``Spawn``/``Par`` child inherits its creator's node and deadline."""

    def test_child_pays_the_latency_to_a_remote_object(self, free_kernel, how):
        kernel = free_kernel
        net = ring(kernel, 4, link_latency=5)
        d = net.node("n2").place(
            Dictionary(kernel, name="d", entries={"a": 1}, search_work=0)
        )
        seen = []

        def child():
            seen.append((yield Self()).node)
            yield d.search("a")
            seen.append(kernel.clock.now)

        home = net.node("n0")
        home.spawn(_parent, how, child, name="parent")
        kernel.run()
        # Two hops each way; a nodeless child took the local fast path (t=0).
        assert seen == [home, 20]
        assert net.traffic == 20

    def test_child_dies_with_its_creators_node(self, free_kernel, how):
        kernel = free_kernel
        net = ring(kernel, 4)
        install(kernel, net, FaultPlan().crash_node("n1", at=50))
        ticks = []

        def child():
            while True:
                yield Delay(20)
                ticks.append(kernel.clock.now)

        net.node("n1").spawn(_parent, how, child, name="parent", daemon=True)
        kernel.run(until=200)
        assert ticks == [20, 40]  # nothing after the crash at t=50
        assert kernel.processes() == []

    def test_child_calls_under_its_creators_deadline(self, free_kernel, how):
        kernel = free_kernel
        d = Dictionary(kernel, name="d", entries={"a": 1}, search_work=50)
        caught = []

        def child():
            try:
                yield d.search("a")
            except DeadlineExceeded as exc:
                caught.append((exc.deadline_at, kernel.clock.now))

        kernel.spawn(_parent, how, child, 30, name="parent")
        kernel.run()
        assert caught == [(30, 30)]
