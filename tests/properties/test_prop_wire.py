"""Property: an installed empty ``FaultPlan()`` is no plan at all.

Every cross-node message takes one path (``repro.net.wire.carry``) and
the fault injector is only consulted on it, so over a random connected
topology and a random mix of entry calls (some timed, some expiring on
the wire) and ``NetSend``s among placed and unplaced parties, installing
an empty plan changes nothing one can observe: the trace, ``kernel.stats``,
the final clock and ``net.traffic`` are identical to the run without it.
"""

import dataclasses

from hypothesis import given, settings, strategies as st

from repro.channels import Receive
from repro.core import AlpsObject, entry
from repro.errors import RemoteCallError
from repro.faults import FaultPlan, install
from repro.kernel import Charge, Delay, Kernel
from repro.net import NetChannel, NetSend, Network
from repro.stdlib import Dictionary


class Echo(AlpsObject):
    """No manager: a body per call, ``work`` ticks each."""

    @entry(returns=1)
    def echo(self, work):
        yield Charge(work)
        return work


@st.composite
def machines(draw):
    """Node count, tree links (so every pair has a route) and a few more."""
    n = draw(st.integers(min_value=2, max_value=5))
    latency = st.integers(min_value=0, max_value=4)
    node = st.integers(min_value=0, max_value=n - 1)
    links = [
        (draw(st.integers(min_value=0, max_value=i - 1)), i, draw(latency))
        for i in range(1, n)
    ]
    extra = st.tuples(node, node, latency)
    links += [(a, b, w) for a, b, w in draw(st.lists(extra, max_size=3)) if a != b]
    home = st.one_of(st.none(), node)
    op = st.one_of(
        st.tuples(st.just("echo"), st.integers(0, 6), st.sampled_from([None, None, 1, 9])),
        st.tuples(st.just("search"), st.sampled_from(["a", "b"]), st.sampled_from([None, 40])),
        st.tuples(st.just("send"), st.integers(0, 1), st.integers(1, 3)),
        st.tuples(st.just("delay"), st.integers(0, 5), st.none()),
    )
    clients = st.lists(st.tuples(home, st.lists(op, max_size=6)), min_size=1, max_size=4)
    homes = draw(st.tuples(home, home, node, node))  # two objects, two channels
    return n, links, homes, draw(clients)


def run(machine, with_plan):
    n, links, (echo_home, dict_home, *chan_homes), clients = machine
    kernel = Kernel(seed=0, trace=True)
    net = Network(kernel)
    nodes = [net.add_node(f"n{i}") for i in range(n)]
    for a, b, latency in links:
        net.connect(nodes[a], nodes[b], latency=latency)
    if with_plan:
        install(kernel, net, FaultPlan())
    echo = Echo(kernel, name="echo")
    words = Dictionary(kernel, name="words", entries={"a": 1, "b": 2}, search_work=3)
    for obj, home in ((echo, echo_home), (words, dict_home)):
        if home is not None:
            nodes[home].place(obj)
    inboxes = [NetChannel(nodes[home], name=f"inbox{i}") for i, home in enumerate(chan_homes)]
    outcomes = []

    def receiver(inbox):
        while True:
            outcomes.append((kernel.clock.now, inbox.name, (yield Receive(inbox))))

    def client(index, script):
        for kind, arg, extra in script:
            try:
                if kind == "echo":
                    value = yield echo.echo(arg, timeout=extra)
                elif kind == "search":
                    value = yield words.search(arg, timeout=extra)
                elif kind == "send":
                    value = yield NetSend(inboxes[arg], index, size=extra)
                else:
                    value = yield Delay(arg)
            except RemoteCallError as exc:
                value = str(exc)
            outcomes.append((kernel.clock.now, index, kind, value))

    for inbox in inboxes:
        inbox.node.spawn(receiver, inbox, name=f"recv.{inbox.name}", daemon=True)
    for index, (home, script) in enumerate(clients):
        spawn = kernel.spawn if home is None else nodes[home].spawn
        spawn(client, index, script, name=f"client{index}")
    kernel.run()
    trace = [
        (e.time, e.kind, e.process, sorted(e.detail.items(), key=repr))
        for e in kernel.trace
    ]
    return outcomes, trace, dataclasses.asdict(kernel.stats), kernel.clock.now, net.traffic


@settings(max_examples=60, deadline=None)
@given(machines())
def test_empty_plan_is_no_plan(machine):
    assert run(machine, with_plan=True) == run(machine, with_plan=False)
