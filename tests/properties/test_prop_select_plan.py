"""Property: yielding one ``Select`` object every iteration is
indistinguishable — in everything the model can see — from building a
fresh ``Select(*guards)`` per iteration over the same guard objects.

The reused select runs on a cached plan (or, with a dynamic-``feasible``
guard in the list, on a plan rebuilt per run): under ``"ordered"``, with
every guard naming a source, a ranked one whose sweep stops at the first
ready guard, else one bucketed by source.  The fresh one runs on a
first-run plan every time: a full sweep, then ``Kernel._choose``.  Same
traffic, same seed, both arbitration policies => the same commits in the
same order at the same ticks, the same modelled poll count, and the same
next ``rng`` draw.
"""

from hypothesis import example, given, settings, strategies as st

from repro.channels import Channel, ReceiveGuard, Send
from repro.core import (
    SHED_PRI_ALWAYS,
    AcceptGuard,
    AlpsObject,
    AwaitGuard,
    DeadlineSweepGuard,
    Finish,
    Reject,
    ShedGuard,
    Start,
    WhenGuard,
    entry,
    manager_process,
)
from repro.errors import AlpsError
from repro.kernel import Delay, Kernel, Select, Timeout
from repro.kernel.waiting import Guard, Ready, Waitable

ENTRIES = ("e0", "e1", "e2")


class Tokens(Waitable):
    def __init__(self):
        super().__init__()
        self.count = 0

    def __len__(self):  # empty <=> no token: a ``poll_source``
        return self.count


class TokenGuard(Guard):
    """A guard with no ``poll_source``: called on every sweep."""

    def __init__(self, tokens, pri):
        self.tokens = tokens
        self.pri = pri

    def poll(self, kernel):
        return Ready("token") if self.tokens.count else None

    def commit(self, kernel, proc, ready):
        self.tokens.count -= 1
        return ready.value

    def waitables(self):
        return (self.tokens,)


class SourcedTokenGuard(TokenGuard):
    """The same guard naming ``tokens`` as its source: a custom arm that a
    ranked plan may skip."""

    def __init__(self, tokens, pri):
        super().__init__(tokens, pri)
        self.poll_source = tokens


class Mixed(AlpsObject):
    """Three array entries behind a manager whose arms are the test input."""

    def setup(self, specs, timeout, reuse):
        self.specs, self.timeout, self.reuse = specs, timeout, reuse
        self.chan = Channel(name="side")
        self.tokens = Tokens()
        self.flag = False
        self.log = []

    @entry(returns=1, array=2)
    def e0(self, x):
        yield Delay(3)
        return x

    @entry(returns=1, array=2)
    def e1(self, x):
        yield Delay(7)
        return x

    @entry(returns=1, array=2)
    def e2(self, x):
        return x

    def arm(self, kind, which, pri):
        name = ENTRIES[which]
        if kind == "accept":
            return AcceptGuard(self, name, pri=pri)
        if kind == "await":
            return AwaitGuard(self, name, pri=pri)
        if kind == "shed":
            return ShedGuard(self, name, cap=0, pri=pri)
        if kind == "sweep":
            return DeadlineSweepGuard(self, name, pri=pri)
        if kind == "when":
            return WhenGuard(lambda: self.flag, value="flag", pri=pri)
        if kind == "receive":
            return ReceiveGuard(self.chan, pri=pri)
        if kind == "sourced":
            return SourcedTokenGuard(self.tokens, pri)
        return TokenGuard(self.tokens, pri)

    @manager_process(intercepts=list(ENTRIES))
    def mgr(self):
        guards = [self.arm(*spec) for spec in self.specs]
        if self.timeout is not None:
            guards.append(Timeout(self.timeout))
        select = Select(guards)
        try:
            while True:
                # A Timeout is spent once its select has blocked; polling it
                # again is a ValueError out of kernel.run — in both variants.
                result = yield (select if self.reuse else Select(*guards))
                guard, value = result.guard, result.value
                self.log.append((self.kernel.clock.now, result.index))
                if isinstance(guard, ShedGuard):
                    yield Reject(value, reason=guard.reason)
                elif isinstance(guard, AcceptGuard):
                    yield Start(value)
                elif isinstance(guard, AwaitGuard):
                    yield Finish(value)
                elif isinstance(guard, WhenGuard):
                    self.flag = False
                elif isinstance(guard, Timeout):
                    return
        except AlpsError as exc:  # every guard infeasible, in both variants
            self.log.append(type(exc).__name__)


def fingerprint(specs, timeout, traffic, arbitration, seed, reuse):
    kernel = Kernel(seed=seed, arbitration=arbitration)
    obj = Mixed(kernel, name="m", specs=specs, timeout=timeout, reuse=reuse)

    def caller(which, patience):
        try:
            yield getattr(obj, ENTRIES[which])(which, timeout=patience)
        except AlpsError:
            pass

    def driver():
        for gap, kind, which, patience in traffic:
            yield Delay(gap)
            if kind == "call":
                kernel.spawn(caller, which, patience, daemon=True)
            elif kind == "send":
                yield Send(obj.chan, which)
            elif kind == "flag":
                obj.flag = True
            else:
                obj.tokens.count += 1
                kernel.notify(obj.tokens)

    kernel.spawn(driver, daemon=True)
    try:
        kernel.run(until=400)
    except ValueError:
        obj.log.append("timeout re-armed")
    stats = kernel.stats
    return (
        obj.log, kernel.clock.now, stats.resumptions, stats.selects,
        stats.guard_polls, stats.commits, kernel.rng.random(),
    )


STATIC = ["accept", "accept", "accept", "await", "shed", "sweep", "token", "sourced"]
#: Half the draws unprioritized; the rest small, tied, negative or far out.
PRIS = [None] * 6 + [0, 1, 1, -3, 10**6, SHED_PRI_ALWAYS]


def arm_lists(kinds):
    arm = st.tuples(
        st.sampled_from(kinds),
        st.sampled_from([0, 0, 1, 2]),  # arms of one entry share a source
        st.sampled_from(PRIS),
    )
    return st.lists(arm, min_size=1, max_size=9)


#: Half the lists hold only static-feasibility arms (the plan is cached; it
#: is ranked unless a ``token`` arm or the ``Timeout`` has no source), half
#: may hold a ``when``/``receive`` arm (never cached).
specs = st.one_of(arm_lists(STATIC), arm_lists(STATIC + ["when", "receive"]))
events = st.tuples(
    st.sampled_from([0, 0, 0, 1, 3, 6]),                         # gap before it
    st.sampled_from(["call", "call", "call", "send", "flag", "token"]),
    st.integers(min_value=0, max_value=2),                       # entry / payload
    st.sampled_from([None, None, 4]),                            # caller patience
)


BURST = [(0, "call", which, None) for which in (0, 1, 0, 1, 0, 1, 0, 1)]


@settings(max_examples=300, deadline=None)
@given(
    specs=specs,
    timeout=st.sampled_from([None, None, 15, 60]),
    traffic=st.lists(events, min_size=1, max_size=30),
    arbitration=st.sampled_from(["ordered", "random"]),
    seed=st.integers(min_value=0, max_value=5),
)
# Every arm ready at once.  Ranked, the sweep stops at guard 0; bucketed
# (e0: [0, 2], e1: [1]) it meets them out of textual order, so the
# tie-break (first, or the rng's pick by position) must not depend on
# bucket order.
@example(
    specs=[("sweep", 0, None), ("accept", 1, None), ("accept", 0, None)],
    timeout=None, traffic=BURST, arbitration="ordered", seed=1,
)
@example(
    specs=[("shed", 0, None), ("accept", 1, None), ("accept", 0, None)],
    timeout=None, traffic=BURST, arbitration="random", seed=1,
)
# A ranked plan puts an unprioritized arm after ``pri 1``, not beside 0.
@example(
    specs=[("accept", 0, None), ("accept", 1, 1)],
    timeout=None, traffic=BURST, arbitration="ordered", seed=0,
)
# The Timeout is spent once the first call woke the blocked select; the
# second call's accept is ready on the next run, and a fresh select still
# polls the Timeout there (ValueError), so the reused one must too.
@example(
    specs=[("accept", 0, None)], timeout=15,
    traffic=[(1, "call", 0, None), (0, "call", 0, None)],
    arbitration="ordered", seed=0,
)
def test_reused_select_equals_fresh_select(specs, timeout, traffic, arbitration, seed):
    reused = fingerprint(specs, timeout, traffic, arbitration, seed, reuse=True)
    fresh = fingerprint(specs, timeout, traffic, arbitration, seed, reuse=False)
    assert reused == fresh
