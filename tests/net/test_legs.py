"""The leg table: every way a message does or does not cross the network.

One row per (leg, condition).  The legs are the request and response of
an entry call, the request a ``Supervisor`` re-queues after a crash, and
a ``NetSend``; the conditions are where the two parties live (unplaced,
co-located, remote, no route between them) and what the fault injector
does to the message (loss, duplicate, jitter, the target down when the
message is issued, the target crashing while it is on the wire).  Each
row pins when the message arrived, how its sender was resumed, the
``drop`` trace records, the ``faults.*`` and ``rpc.messages`` counters,
the RPC tags on the call's root span and the ``traffic`` gauge.

The machine is ``a --3-- b`` plus an island ``c``; costs are FREE, so
every tick below is network delay, body work or a detector's patience.
"""

import random

import pytest

from repro.channels import Receive
from repro.core import AlpsObject, entry
from repro.errors import NetworkError, RemoteCallError
from repro.faults import FaultPlan, install
from repro.kernel import Charge, Delay, Kernel
from repro.kernel.costs import FREE
from repro.net import NetChannel, NetSend, Network
from repro.stdlib import Supervisor

DETECT = 7


class Echo(AlpsObject):
    """No manager, no array: the body starts the tick its request arrives."""

    def setup(self, work=0):
        self.work = work
        self.arrivals = []

    @entry(returns=1)
    def echo(self, x):
        self.arrivals.append(self.kernel.clock.now)
        if self.work:
            yield Charge(self.work)
        return x


def machine(plan):
    kernel = Kernel(costs=FREE, seed=0, trace=True, spans=True)
    net = Network(kernel)
    for name in "abc":
        net.add_node(name)
    net.connect("a", "b", latency=3)
    faults = None if plan is None else install(kernel, net, plan)
    return kernel, net, faults


def observe(kernel, net, **seen):
    """What a row may assert, with everything empty left out."""
    drops = [
        (e.time, e.detail["leg"], e.detail["reason"])
        for e in kernel.trace.events("drop")
    ]
    counters = {
        name: value
        for name, value in kernel.metrics.snapshot().items()
        if value and (name.startswith("faults.") or name == "rpc.messages")
    }
    tags = {}
    for span in kernel.obs.find_spans(kind="call"):
        tags = {
            key: span.attrs[key]
            for key in ("request_delay", "src_node", "dst_node")
            if key in span.attrs
        }
    seen.update(drops=drops, counters=counters, tags=tags, traffic=net.traffic)
    return {key: value for key, value in seen.items() if value}


def call(plan=None, obj_on="b", caller_on="a", work=0, issue_at=0, timeout=None,
         supervised=False):
    """One ``echo`` call; ``obj_on``/``caller_on`` of None leave a party unplaced."""
    kernel, net, faults = machine(plan)
    obj = Echo(kernel, name="echo", work=work)
    if obj_on is not None:
        net.node(obj_on).place(obj)
    if supervised:
        sup = net.node("a").place(Supervisor(kernel, name="sup", faults=faults))
        sup.watch(obj)
    resumed = []

    def client():
        if issue_at:
            yield Delay(issue_at)
        try:
            value = yield obj.echo("x", timeout=timeout)
        except (RemoteCallError, NetworkError) as exc:
            value = f"{type(exc).__name__}: {exc}"
        resumed.append((kernel.clock.now, value))

    spawn = kernel.spawn if caller_on is None else net.node(caller_on).spawn
    spawn(client, name="client")
    kernel.run()
    return observe(kernel, net, arrivals=obj.arrivals, resumed=resumed)


def send(plan=None, chan_on="b", sender_on="a", issue_at=0):
    """One ``NetSend`` to a channel homed on ``chan_on``."""
    kernel, net, _faults = machine(plan)
    inbox = NetChannel(net.node(chan_on), name="inbox")
    arrivals = []
    resumed = []

    def sender():
        if issue_at:
            yield Delay(issue_at)
        try:
            yield NetSend(inbox, "m")
        except NetworkError as exc:
            resumed.append((kernel.clock.now, f"{type(exc).__name__}: {exc}"))

    def receiver():
        while True:
            yield Receive(inbox)
            arrivals.append(kernel.clock.now)

    spawn = kernel.spawn if sender_on is None else net.node(sender_on).spawn
    spawn(sender, name="sender")
    kernel.spawn(receiver, name="receiver", daemon=True)  # unplaced: survives crashes
    kernel.run()
    return observe(kernel, net, arrivals=arrivals, resumed=resumed)


def plan(seed=0):
    return FaultPlan(seed=seed, detection_delay=DETECT)


def crashed(seed=0):
    """``b`` dies at 10 with the body running and is back at 30, when the
    Supervisor re-queues the interrupted call."""
    return plan(seed).crash_node("b", at=10, restart_at=30)


#: Under this seed a 50% loss rule spares the first message and would
#: take the second: a re-queue that drew a fate would be lost.
SPARE_THEN_TAKE = 10
_rng = random.Random(SPARE_THEN_TAKE)
assert _rng.random() >= 0.5 > _rng.random()

OK = [(6, "x")]
RPC = {"request_delay": 3, "src_node": "a", "dst_node": "b"}
NO_ROUTE = "NetworkError: no route from 'a' to 'c'"
TIMED_OUT = "RemoteCallError: call to echo.echo timed out after {} ticks"
CRASH = {"faults.node_crashes": 1}
RECOVERED = {
    "faults.node_crashes": 1,
    "faults.node_restarts": 1,
    "faults.requeued_calls": 1,
}


def row(leg, condition, run, **expected):
    return pytest.param(run, expected, id=f"{leg}: {condition}")


def either(leg, condition, run, **expected):
    """Two rows, one expectation: with no plan, and with an empty one."""
    return (
        row(leg, condition, lambda: run(None), **expected),
        row(leg, f"{condition}, empty plan", lambda: run(plan()), **expected),
    )


TABLE = [
    # -- one entry call: its request leg out, its response leg back ------
    *either("call", "unplaced object", lambda p: call(p, obj_on=None),
            arrivals=[0], resumed=[(0, "x")]),
    *either("call", "unplaced caller", lambda p: call(p, caller_on=None),
            arrivals=[0], resumed=[(0, "x")]),
    *either("call", "co-located", lambda p: call(p, obj_on="a"),
            arrivals=[0], resumed=[(0, "x")]),
    *either("call", "remote", call,
            arrivals=[3], resumed=OK, tags=RPC, traffic=6),
    row("call", "duplicate rule (never applies to a call)",
        lambda: call(plan().duplicate_messages(1.0)),
        arrivals=[3], resumed=OK, tags=RPC, traffic=6),
    # -- the request leg ------------------------------------------------
    row("request", "no route", lambda: call(obj_on="c"),
        resumed=[(0, NO_ROUTE)]),
    row("request", "no route, plan", lambda: call(plan(), obj_on="c"),
        resumed=[(DETECT, "RemoteCallError: no route from a to c for call to echo.echo")],
        drops=[(0, "request", "no route")],
        counters={"faults.failed_calls": 1}),
    row("request", "loss",
        lambda: call(plan().drop_messages(1.0, dst="b"), timeout=20),
        resumed=[(20, TIMED_OUT.format(20))],
        drops=[(0, "request", "loss")],
        counters={"faults.dropped_requests": 1}, traffic=3),
    row("request", "jitter", lambda: call(plan(1).delay_jitter(5, dst="b")),
        arrivals=[4], resumed=[(7, "x")], tags={**RPC, "request_delay": 4},
        traffic=6),
    row("request", "target down at issue",
        lambda: call(plan().crash_node("b", at=0), issue_at=5),
        resumed=[(5 + DETECT, "RemoteCallError: echo is down (node b)")],
        counters={**CRASH, "faults.calls_to_down_target": 1,
                  "faults.failed_calls": 1}),
    row("request", "target crashes while it is on the wire",
        lambda: call(plan().crash_node("b", at=2)),
        resumed=[(2 + DETECT, "RemoteCallError: call to echo.echo "
                  "interrupted by crash of node b")],
        counters={**CRASH, "faults.failed_calls": 1}, tags=RPC, traffic=3),
    *either("request", "caller times out while it is on the wire",
            lambda p: call(p, timeout=2),
            arrivals=[3], resumed=[(2, TIMED_OUT.format(2))], tags=RPC, traffic=3),
    # -- the response leg -------------------------------------------------
    row("response", "no route",
        lambda: call(plan().partition(["a"], ["b"], at=4), work=5, timeout=30),
        arrivals=[3], resumed=[(30, TIMED_OUT.format(30))],
        drops=[(8, "response", "no route")],
        counters={"faults.dropped_responses": 1}, tags=RPC, traffic=3),
    row("response", "loss",
        lambda: call(plan().drop_messages(1.0, src="b"), timeout=30),
        arrivals=[3], resumed=[(30, TIMED_OUT.format(30))],
        drops=[(3, "response", "loss")],
        counters={"faults.dropped_responses": 1}, tags=RPC, traffic=6),
    row("response", "jitter", lambda: call(plan(1).delay_jitter(5, src="b")),
        arrivals=[3], resumed=[(7, "x")], tags=RPC, traffic=6),
    row("response", "caller's node down when it is issued",
        lambda: call(plan().crash_node("a", at=4), work=5),
        arrivals=[3], counters=CRASH, tags=RPC, traffic=3),
    row("response", "caller's node crashes while it is on the wire",
        lambda: call(plan().crash_node("a", at=9), work=5),
        arrivals=[3], counters=CRASH, tags=RPC, traffic=6),
    # -- the request a Supervisor re-queues -------------------------------
    row("re-queue", "unplaced caller",
        lambda: call(crashed(), caller_on=None, work=20, supervised=True),
        arrivals=[0, 30], resumed=[(50, "x")], counters=RECOVERED),
    row("re-queue", "remote",
        lambda: call(crashed(), work=20, supervised=True),
        arrivals=[3, 33], resumed=[(56, "x")], counters=RECOVERED, tags=RPC,
        traffic=9),
    row("re-queue", "no route",
        lambda: call(crashed().partition(["a"], ["b"], at=25), work=20,
                     supervised=True),
        arrivals=[3],
        resumed=[(30 + DETECT, "RemoteCallError: no route from a to b for "
                  "call to echo.echo")],
        drops=[(30, "request", "no route")],
        counters={**RECOVERED, "faults.failed_calls": 1}, tags=RPC, traffic=3),
    row("re-queue", "loss (draws no fate)",
        lambda: call(crashed(SPARE_THEN_TAKE).drop_messages(0.5, dst="b"),
                     work=20, supervised=True),
        arrivals=[3, 33], resumed=[(56, "x")], counters=RECOVERED, tags=RPC,
        traffic=9),
    row("re-queue", "jitter (draws none)",
        lambda: call(crashed(1).delay_jitter(5, dst="b"), work=20,
                     supervised=True),
        arrivals=[4, 33], resumed=[(56, "x")], counters=RECOVERED, tags=RPC,
        traffic=9),
    row("re-queue", "target crashes again while it is on the wire",
        lambda: call(crashed().crash_node("b", at=31, restart_at=60), work=20,
                     supervised=True),
        arrivals=[3, 63], resumed=[(86, "x")],
        counters={name: 2 for name in RECOVERED}, tags=RPC, traffic=12),
    # -- NetSend ----------------------------------------------------------
    *either("send", "unplaced sender", lambda p: send(p, sender_on=None),
            arrivals=[0]),
    *either("send", "co-located", lambda p: send(p, chan_on="a"), arrivals=[0]),
    *either("send", "remote", send,
            arrivals=[3], counters={"rpc.messages": 1}, traffic=3),
    row("send", "no route", lambda: send(chan_on="c"),
        resumed=[(0, NO_ROUTE)]),
    row("send", "no route, plan", lambda: send(plan(), chan_on="c"),
        drops=[(0, "message", "no route")],
        counters={"faults.dropped_messages": 1}),
    row("send", "loss", lambda: send(plan().drop_messages(1.0)),
        drops=[(0, "message", "loss")],
        counters={"faults.dropped_messages": 1}, traffic=3),
    row("send", "duplicate", lambda: send(plan().duplicate_messages(1.0)),
        arrivals=[3, 3],
        counters={"faults.duplicated_messages": 1, "rpc.messages": 2},
        traffic=3),
    row("send", "jitter", lambda: send(plan(1).delay_jitter(5)),
        arrivals=[4], counters={"rpc.messages": 1}, traffic=3),
    row("send", "target down at issue",
        lambda: send(plan().crash_node("b", at=0), issue_at=5),
        drops=[(5, "message", "no route")],
        counters={**CRASH, "faults.dropped_messages": 1}),
    row("send", "target crashes while it is on the wire",
        lambda: send(plan().crash_node("b", at=2)),
        arrivals=[3], counters={**CRASH, "rpc.messages": 1}, traffic=3),
]


@pytest.mark.parametrize("run, expected", TABLE)
def test_leg(run, expected):
    assert run() == expected
