"""Wait-for graph construction and cycle-naming DeadlockError."""

import pytest

from repro.core import AlpsObject, entry, manager_process
from repro.errors import DeadlockError
from repro.kernel import Delay, Kernel
from repro.kernel.waitgraph import WaitForSnapshot, build_wait_graph, strongly_connected


class Alpha(AlpsObject):
    """Manager accepts ping, then calls into its peer before finishing."""

    @entry(returns=1)
    def ping(self):
        return "ping"

    @entry
    def nudge(self):
        pass

    @manager_process(intercepts=["ping", "nudge"])
    def mgr(self):
        call = yield self.accept("ping")
        yield self.peer.pong()  # blocks on Beta's manager
        yield from self.execute(call)


class Beta(AlpsObject):
    """Manager accepts pong, then calls back into Alpha: circular wait."""

    @entry(returns=1)
    def pong(self):
        return "pong"

    @manager_process(intercepts=["pong"])
    def mgr(self):
        call = yield self.accept("pong")
        yield self.peer.nudge()  # blocks on Alpha's manager: cycle closed
        yield from self.execute(call)


def _deadlocked_pair(kernel):
    a = Alpha(kernel, name="A")
    b = Beta(kernel, name="B")
    a.peer = b
    b.peer = a
    kernel.spawn(lambda: (yield a.ping()), name="client")
    return a, b


class TestCycleDiagnosis:
    def test_two_manager_cycle_named_in_error(self, kernel):
        a, b = _deadlocked_pair(kernel)
        with pytest.raises(DeadlockError) as excinfo:
            kernel.run()
        message = str(excinfo.value)
        # The full cycle is spelled out: both managers, both entries, the
        # slots involved.
        assert "wait-for cycle:" in message
        assert "A.manager" in message
        assert "B.manager" in message
        assert "B.pong[0]" in message
        assert "A.nudge[0]" in message

    def test_wait_for_snapshot_attached(self, kernel):
        a, b = _deadlocked_pair(kernel)
        with pytest.raises(DeadlockError) as excinfo:
            kernel.run()
        snapshot = excinfo.value.wait_for
        assert isinstance(snapshot, WaitForSnapshot)
        cycles = snapshot.cycles()
        assert len(cycles) == 1
        cycle = cycles[0]
        assert len(cycle) == 2
        # Structured edge labels: object / entry / slot per hop.
        hops = {(e.obj, e.entry, e.slot) for e in cycle}
        assert hops == {("B", "pong", 0), ("A", "nudge", 0)}
        assert all(e.definite for e in cycle)
        names = {e.src.name for e in cycle}
        assert names == {"A.manager", "B.manager"}

    def test_client_edge_on_fringe(self, kernel):
        a, b = _deadlocked_pair(kernel)
        with pytest.raises(DeadlockError) as excinfo:
            kernel.run()
        snapshot = excinfo.value.wait_for
        client = next(p for p in snapshot.processes if p.name == "client")
        edges = snapshot.edges_from(client)
        assert len(edges) == 1
        assert edges[0].obj == "A" and edges[0].entry == "ping"
        assert edges[0].dst.name == "A.manager"

    def test_timed_call_edges_not_definite(self, kernel):
        # A pending timeout can dissolve the wait, so the edge of a timed
        # call must be marked non-definite in any snapshot.
        from repro.errors import RemoteCallError

        class Shy(AlpsObject):
            @entry(returns=1)
            def op(self):
                return 1

            @manager_process(intercepts=["op"])
            def mgr(self):
                yield Delay(100)  # not receptive yet: the call waits
                call = yield self.accept("op")
                yield from self.execute(call)

        obj = Shy(kernel, name="S")
        holder = {}

        def probe():
            yield Delay(5)
            holder["snap"] = build_wait_graph(kernel)

        def client():
            with pytest.raises(RemoteCallError):
                yield obj.op(timeout=50)

        kernel.spawn(probe, name="probe")
        kernel.spawn(client, name="timed-client")
        kernel.run()
        snap = holder["snap"]
        timed_edges = [e for e in snap.edges if e.entry == "op"]
        assert timed_edges
        assert all(not e.definite for e in timed_edges)
        assert all(e.dst.name == "S.manager" for e in timed_edges)


class TestQuiescenceStillClean:
    def test_no_cycle_text_for_plain_blocked_process(self, kernel):
        # A process blocked on a channel with no sender: deadlock, but no
        # circular wait — the error reports no cycle and an empty graph
        # cycle list.
        from repro.channels import Channel, Receive

        ch = Channel(name="lonely")
        kernel.spawn(lambda: (yield Receive(ch)), name="receiver")
        with pytest.raises(DeadlockError) as excinfo:
            kernel.run()
        assert excinfo.value.wait_for is not None
        assert excinfo.value.wait_for.cycles() == []
        assert "wait-for cycle" not in str(excinfo.value)


class TestStronglyConnected:
    """The one SCC routine: the order of its output is part of its contract."""

    def test_components_in_completion_order_members_in_pop_order(self):
        graph = {"a": ["b"], "b": ["c", "d"], "c": ["a"], "d": ["e"], "x": ["x"]}
        # "e" only ever appears as a successor; roots and successors are
        # visited in insertion order.
        assert strongly_connected(graph) == [["e"], ["d"], ["c", "b", "a"], ["x"]]

    def test_successor_order_decides_the_member_order(self):
        assert strongly_connected({1: [2, 3], 2: [1], 3: [1]}) == [[3, 2, 1]]
        assert strongly_connected({1: [3, 2], 2: [1], 3: [1]}) == [[2, 3, 1]]
