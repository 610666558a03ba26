"""Property: a wait is woken once, by what it waited for or by whoever
threw it out or killed it — never by a registration an earlier wait left
behind — and the process table is the set of live processes after every
event.

One subject process makes a drawn sequence of waits.  Each wait would
end naturally after ``length`` ticks with a known value; the draw says
whether it is left to, or the subject is thrown into or killed ``at``
ticks into it.  Whatever the wait set up (a join target, par children, a
receiver draining the full channel, a sender, a timeout, an entry body)
runs on to its natural end, so a registration that outlives its wait
fires into whichever wait the subject is in by then: it shows as a wait
that ended early or returned somebody else's value.  Costs are FREE, so
every expected time is exact.
"""

from hypothesis import given, settings, strategies as st

from repro.channels import Channel, Receive, ReceiveGuard, Send
from repro.kernel import Delay, Join, Kernel, Par, Select, Timeout
from repro.kernel.costs import FREE
from repro.stdlib import Dictionary

from tests.helpers import step_to_quiescence

#: Wait kind -> what the wait returns when it is left alone.
KINDS = {
    "delay": None,
    "join": "joined",
    "par": [0, 1],
    "send": None,
    "receive": "sent",
    "select": (1, None),  # the Timeout arm
    "call": 1,
}
LEAVES = ("normally", "throw", "kill")
#: Long enough that everything an earlier wait left behind has fired.
LAST_WAIT = 300


class Poke(Exception):
    pass


def sleeper(ticks, value):
    yield Delay(ticks)
    return value


def arm(kernel, index, kind, length, received):
    """The syscall of wait number ``index``, which ends after ``length``
    ticks, with whatever has to run beside it spawned."""
    if kind == "delay":
        return Delay(length)
    if kind == "join":
        return Join(kernel.spawn(sleeper, length, "joined"))
    if kind == "par":
        return Par(lambda: sleeper(length, 0), lambda: sleeper(length // 2, 1))
    if kind == "select":
        return Select(ReceiveGuard(Channel()), Timeout(length))
    if kind == "call":
        return Dictionary(kernel, entries={"word": 1}, search_work=length).search("word")
    if kind == "receive":
        ch = Channel()

        def sender():
            yield Delay(length)
            yield Send(ch, "sent")

        kernel.spawn(sender)
        return Receive(ch)
    ch = Channel(capacity=1)
    ch._enqueue(("fill",))

    def receiver():
        yield Delay(length)
        received.append((index, (yield Receive(ch))))
        yield Delay(1)
        received.append((index, (yield Receive(ch))))

    kernel.spawn(receiver, daemon=True)
    return Send(ch, "subject's")


def subject(kernel, steps, log, received):
    me = kernel.current_process
    for index, (kind, length, leave, at) in enumerate(steps):
        start = kernel.clock.now
        syscall = arm(kernel, index, kind, length, received)
        if leave == "throw":
            kernel.post(start + at, lambda: kernel.schedule_throw(me, Poke()))
        elif leave == "kill":
            kernel.post(start + at, lambda: kernel.kill_process(me))
        try:
            got = yield syscall
            if kind == "select":
                got = tuple(got)
            log.append((kind, got, kernel.clock.now - start))
        except Poke:
            log.append((kind, "poked", kernel.clock.now - start))
    start = kernel.clock.now
    log.append(("last", (yield Delay(LAST_WAIT)), kernel.clock.now - start))


def expected(steps):
    """(the subject's log, what the full channels' receivers got)."""
    log, received = [], []
    for index, (kind, length, leave, at) in enumerate(steps):
        if kind == "send":
            received.append((index, "fill"))
            if leave == "normally":  # a Send that raised did not send
                received.append((index, "subject's"))
        if leave == "kill":
            return log, received
        if leave == "throw":
            log.append((kind, "poked", at))
        else:
            log.append((kind, KINDS[kind], length))
    return log + [("last", None, LAST_WAIT)], received


def run_plan(steps):
    kernel = Kernel(costs=FREE)
    log, received, seen, off_table = [], [], {}, []

    def table_is_the_live_set():
        table = kernel.processes()
        seen.update((p.pid, p) for p in table)
        live = [p for _pid, p in sorted(seen.items()) if p.alive]
        if table != live and not off_table:
            off_table.append((kernel.clock.now, table, live))

    kernel.spawn(subject, kernel, steps, log, received, name="subject")
    step_to_quiescence(kernel, also=table_is_the_live_set)
    assert (log, sorted(received)) == expected(steps)
    assert not off_table


def step(kinds=tuple(KINDS), leaves=LEAVES):
    return st.tuples(
        st.sampled_from(kinds),
        st.sampled_from((20, 50)),  # the wait's natural length
        st.sampled_from(leaves),
        st.integers(1, 19),  # when the throw or kill lands, if any
    )


@settings(max_examples=150, deadline=None)
@given(st.lists(step(), min_size=1, max_size=3))
def test_every_wait_wakes_once(steps):
    run_plan(steps)


@settings(max_examples=20, deadline=None)
@given(step(("call",), ("throw",)), st.lists(step(), max_size=2))
def test_entry_call_thrown_into(first, rest):
    run_plan([first, *rest])
