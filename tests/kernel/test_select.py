"""Tests of the generic select machinery: guards, priorities, acceptance
conditions, else-clauses, exhaustion (§2.4 semantics at kernel level)."""

import pytest

from repro.channels import Channel, ReceiveGuard, Send
from repro.core import (
    AcceptGuard,
    AwaitGuard,
    DeadlineSweepGuard,
    PredictedWaitGuard,
    ShedGuard,
    WhenGuard,
)
from repro.errors import GuardExhaustedError
from repro.kernel import Delay, Kernel, Select, SelectResult, Timeout
from repro.kernel.costs import FREE
from repro.kernel.kernel import _FIRST_WINS
from repro.kernel.waiting import EventCount, Guard, Ready, Waitable
from repro.stdlib import GatedKVStore


class TestImmediateSelect:
    def test_ready_guard_fires(self, kernel):
        ch = Channel()

        def main():
            yield Send(ch, 5)
            result = yield Select(ReceiveGuard(ch))
            return (result.index, result.value)

        assert kernel.run_process(main) == (0, 5)

    def test_result_unpacks(self, kernel):
        ch = Channel()

        def main():
            yield Send(ch, 5)
            index, value = yield Select(ReceiveGuard(ch))
            return (index, value)

        assert kernel.run_process(main) == (0, 5)

    def test_textual_order_breaks_ties(self, kernel):
        a, b = Channel(name="a"), Channel(name="b")

        def main():
            yield Send(a, "from-a")
            yield Send(b, "from-b")
            result = yield Select(ReceiveGuard(a), ReceiveGuard(b))
            return result.value

        assert kernel.run_process(main) == "from-a"

    def test_random_arbitration_is_seed_deterministic(self):
        def run(seed):
            kernel = Kernel(seed=seed, arbitration="random")
            a, b = Channel(), Channel()

            def main():
                yield Send(a, "a")
                yield Send(b, "b")
                picks = []
                for _ in range(1):
                    result = yield Select(ReceiveGuard(a), ReceiveGuard(b))
                    picks.append(result.value)
                return picks

            return kernel.run_process(main)

        assert run(3) == run(3)

    def test_else_when_nothing_ready(self, kernel):
        ch = Channel()

        def main():
            result = yield Select(
                ReceiveGuard(ch), else_=True, else_value="polled"
            )
            return (result.index, result.value)

        assert kernel.run_process(main) == (-1, "polled")

    def test_guards_as_list(self, kernel):
        ch = Channel()

        def main():
            yield Send(ch, 1)
            result = yield Select([ReceiveGuard(ch)])
            return result.value

        assert kernel.run_process(main) == 1


class TestBlockingSelect:
    def test_blocks_until_guard_ready(self):
        kernel = Kernel(costs=FREE)
        ch = Channel()

        def sender():
            yield Delay(30)
            yield Send(ch, "late")

        def receiver():
            result = yield Select(ReceiveGuard(ch))
            return (result.value, kernel.clock.now)

        kernel.spawn(sender)
        proc = kernel.spawn(receiver)
        kernel.run()
        assert proc.result == ("late", 30)

    def test_first_event_wins(self):
        kernel = Kernel(costs=FREE)
        a, b = Channel(), Channel()

        def send_a():
            yield Delay(10)
            yield Send(a, "a")

        def send_b():
            yield Delay(5)
            yield Send(b, "b")

        def receiver():
            result = yield Select(ReceiveGuard(a), ReceiveGuard(b))
            return result.value

        kernel.spawn(send_a)
        kernel.spawn(send_b)
        proc = kernel.spawn(receiver)
        kernel.run()
        assert proc.result == "b"

    def test_two_receivers_one_message(self):
        kernel = Kernel(costs=FREE)
        ch = Channel()
        done = []

        def receiver(tag):
            result = yield Select(ReceiveGuard(ch))
            done.append((tag, result.value))

        def sender():
            yield Delay(5)
            yield Send(ch, "only")

        kernel.spawn(receiver, 1, daemon=True)
        kernel.spawn(receiver, 2, daemon=True)
        kernel.spawn(sender)
        kernel.run()
        assert done == [(1, "only")]  # FIFO wake: first waiter gets it


class TestAcceptanceConditions:
    def test_condition_scans_queue(self, kernel):
        ch = Channel()

        def main():
            for value in (1, 2, 9, 3):
                yield Send(ch, value)
            result = yield Select(ReceiveGuard(ch, when=lambda v: v > 5))
            return (result.value, ch.peek_all())

        value, remaining = kernel.run_process(main)
        assert value == 9
        assert remaining == [(1,), (2,), (3,)]

    def test_condition_false_blocks(self):
        kernel = Kernel(costs=FREE)
        ch = Channel()

        def sender():
            yield Send(ch, 1)
            yield Delay(10)
            yield Send(ch, 100)

        def receiver():
            result = yield Select(ReceiveGuard(ch, when=lambda v: v >= 100))
            return result.value

        kernel.spawn(sender)
        proc = kernel.spawn(receiver)
        kernel.run()
        assert proc.result == 100

    def test_multi_field_condition(self, kernel):
        ch = Channel(types=(str, int))

        def main():
            yield Send(ch, "small", 1)
            yield Send(ch, "big", 10)
            result = yield Select(
                ReceiveGuard(ch, when=lambda tag, n: n > 5)
            )
            return result.value

        assert kernel.run_process(main) == ("big", 10)


class TestRuntimePriorities:
    def test_smallest_pri_wins(self, kernel):
        a, b = Channel(), Channel()

        def main():
            yield Send(a, "low-priority")
            yield Send(b, "high-priority")
            result = yield Select(
                ReceiveGuard(a, pri=10),
                ReceiveGuard(b, pri=1),
            )
            return result.value

        assert kernel.run_process(main) == "high-priority"

    def test_pri_beats_textual_order(self, kernel):
        a, b = Channel(), Channel()

        def main():
            yield Send(a, "first-listed")
            yield Send(b, "prioritized")
            result = yield Select(
                ReceiveGuard(a, pri=5),
                ReceiveGuard(b, pri=0),
            )
            return result.value

        assert kernel.run_process(main) == "prioritized"

    def test_pri_can_use_received_values(self, kernel):
        # §2.4: priorities "can possibly use values received by an accept,
        # await or receive appearing in the guard".
        a, b = Channel(), Channel()

        def main():
            yield Send(a, 40)
            yield Send(b, 7)
            result = yield Select(
                ReceiveGuard(a, pri=lambda v: v),
                ReceiveGuard(b, pri=lambda v: v),
            )
            return result.value

        assert kernel.run_process(main) == 7

    def test_unprioritized_sorts_after_prioritized(self, kernel):
        a, b = Channel(), Channel()

        def main():
            yield Send(a, "unprioritized")
            yield Send(b, "prioritized")
            result = yield Select(
                ReceiveGuard(a),
                ReceiveGuard(b, pri=999),
            )
            return result.value

        assert kernel.run_process(main) == "prioritized"


class TestWhenGuards:
    def test_true_boolean_guard_fires(self, kernel):
        def main():
            result = yield Select(WhenGuard(True, value="yes"))
            return result.value

        assert kernel.run_process(main) == "yes"

    def test_callable_condition(self, kernel):
        flag = {"on": True}

        def main():
            result = yield Select(WhenGuard(lambda: flag["on"], value="ok"))
            return result.value

        assert kernel.run_process(main) == "ok"

    def test_all_false_booleans_exhaust(self, kernel):
        def main():
            yield Select(WhenGuard(False), WhenGuard(False))

        with pytest.raises(GuardExhaustedError):
            kernel.run_process(main)

    def test_false_boolean_with_live_channel_blocks(self):
        kernel = Kernel(costs=FREE)
        ch = Channel()

        def sender():
            yield Delay(5)
            yield Send(ch, "msg")

        def main():
            result = yield Select(WhenGuard(False), ReceiveGuard(ch))
            return result.index

        kernel.spawn(sender)
        proc = kernel.spawn(main)
        kernel.run()
        assert proc.result == 1

    def test_empty_select_without_else_exhausts(self, kernel):
        def main():
            yield Select()

        with pytest.raises(GuardExhaustedError):
            kernel.run_process(main)

    def test_empty_select_with_else(self, kernel):
        def main():
            result = yield Select(else_=True, else_value="fallthrough")
            return result.value

        assert kernel.run_process(main) == "fallthrough"


class TestTimeoutGuard:
    def test_timeout_fires_after_ticks(self):
        kernel = Kernel(costs=FREE)
        ch = Channel()

        def main():
            result = yield Select(ReceiveGuard(ch), Timeout(25, value="timeout"))
            return (result.value, kernel.clock.now)

        kernel.spawn(main, daemon=False)
        proc = kernel.processes()[0]
        kernel.run()
        assert proc.result == ("timeout", 25)

    def test_message_preempts_timeout(self):
        kernel = Kernel(costs=FREE)
        ch = Channel()

        def sender():
            yield Delay(5)
            yield Send(ch, "quick")

        def main():
            result = yield Select(ReceiveGuard(ch), Timeout(1000))
            return result.value

        kernel.spawn(sender)
        proc = kernel.spawn(main)
        kernel.run()
        assert proc.result == "quick"
        # The cancelled timer must not drag the clock to 1000.
        assert kernel.clock.now < 100

    def test_zero_timeout_fires_immediately(self, kernel):
        def main():
            result = yield Select(Timeout(0, value="now"))
            return result.value

        assert kernel.run_process(main) == "now"

    def test_negative_timeout_rejected(self):
        with pytest.raises(ValueError):
            Timeout(-1)


class TestGuardPollAccounting:
    def test_polls_counted(self):
        kernel = Kernel()
        ch = Channel()

        def main():
            yield Send(ch, 1)
            yield Select(ReceiveGuard(ch), ReceiveGuard(ch))

        kernel.run_process(main)
        assert kernel.stats.guard_polls >= 2
        assert kernel.stats.selects >= 1
        assert kernel.stats.commits >= 1

    def test_guard_poll_cost_charged(self):
        from repro.kernel import CostModel

        costs = CostModel(
            context_switch=0, process_create=0, lwp_create=0, send=0,
            accept=0, start=0, await_=0, finish=0,
            guard_poll=5, dispatch=0,
        )
        kernel = Kernel(costs=costs)
        ch = Channel()

        def main():
            yield Send(ch, 1)
            yield Select(ReceiveGuard(ch), ReceiveGuard(ch))

        kernel.run_process(main)
        assert kernel.clock.now >= 10  # two polls x 5 ticks


class TestBlockedSelectBookkeeping:
    """Registration and description of a blocked select (host-side only)."""

    def test_shared_waitable_is_registered_once_and_released(self, kernel):
        ch = Channel(name="c")
        procs = []

        def waiter():
            # Three guards, one waitable.
            yield Select(
                ReceiveGuard(ch, when=lambda v: v == "x"),
                ReceiveGuard(ch, when=lambda v: v == "y"),
                ReceiveGuard(ch, when=lambda v: v == "z"),
            )

        procs.append(kernel.spawn(waiter, name="w"))
        kernel.run(until=50)
        assert ch._waiters == procs
        (pending,) = kernel._pending_selects.values()
        assert pending.plan.waitables == [ch]
        kernel.spawn(lambda: (yield Send(ch, "y")))
        kernel.run()
        assert ch._waiters == [] and not kernel._pending_selects

    def test_wake_order_follows_blocking_order(self):
        # Both waiters block on (a, b) and (b, a); a message on b must
        # wake them in the order they blocked, whichever guard came first.
        kernel = Kernel(costs=FREE)
        a, b = Channel(name="a"), Channel(name="b")
        woke = []

        def waiter(tag, first, second):
            result = yield Select(ReceiveGuard(first), ReceiveGuard(second))
            woke.append((tag, result.value))

        kernel.spawn(waiter, "one", a, b)
        kernel.spawn(waiter, "two", b, a)

        def sender():
            yield Delay(5)
            yield Send(b, 1)
            yield Send(b, 2)

        kernel.spawn(sender)
        kernel.run()
        assert woke == [("one", 1), ("two", 2)]

    def test_blocked_on_renders_the_feasible_guards_on_demand(self):
        from repro.errors import DeadlockError

        kernel = Kernel()
        a, b = Channel(name="a"), Channel(name="b")
        b.close()  # a closed, drained channel's guard is infeasible

        def stuck():
            yield Select(ReceiveGuard(a), ReceiveGuard(b), Timeout(10**9, pri=1))

        proc = kernel.spawn(stuck, name="stuck")
        kernel.run(until=50)
        assert str(proc.blocked_on) == "select(receive(a), timeout(1000000000))"
        assert "blocked_on='select(receive(a), " in repr(proc)
        kind, guards = proc.waiting_for
        assert kind == "select" and [type(g) for g in guards] == [ReceiveGuard, Timeout]

        kernel2 = Kernel()
        c = Channel(name="c")
        kernel2.spawn(lambda: (yield Select(ReceiveGuard(c))), name="lonely")
        with pytest.raises(DeadlockError, match=r"lonely .* waiting on select\(receive\(c\)\)"):
            kernel2.run()

    def test_block_and_wake_trace_events_carry_plain_strings(self):
        kernel = Kernel(trace=True)
        ch = Channel(name="c")

        def waiter():
            yield Select(ReceiveGuard(ch))

        kernel.spawn(waiter, name="w")
        kernel.spawn(lambda: (yield Delay(3)) or (yield Send(ch, 1)))
        kernel.run()
        (block,) = kernel.trace.events("block")
        (wake,) = kernel.trace.events("wake")
        assert block.detail == {"on": "select(receive(c))"}
        assert wake.detail == {"guard": "receive(c)"}


class Inbox(Waitable):
    """A list of items to take; the list is its guards' ``poll_source``."""

    def __init__(self, name):
        super().__init__()
        self.name = name
        self.items = []

    def put(self, kernel, item):
        self.items.append(item)
        kernel.notify(self)


class TakeGuard(Guard):
    """Static-feasibility guard: ready while its inbox holds an item."""

    def __init__(self, inbox, pri=None, want=None):
        self.inbox = inbox
        self.poll_source = inbox.items
        self.pri = pri
        self.want = want

    def poll(self, kernel):
        items = self.inbox.items
        if items and self.want in (None, items[0]):
            return Ready(items[0])
        return None

    def commit(self, kernel, proc, ready):
        return self.inbox.items.pop(0)

    def waitables(self):
        return (self.inbox,)

    def describe(self):
        return f"take({self.inbox.name})"


class TestThrowIntoBlockedSelect:
    def test_throw_cancels_the_pending_select_and_its_timeout(self):
        kernel = Kernel(costs=FREE)
        ch = Channel(name="c")
        timeout = Timeout(50)
        log = []

        def victim():
            try:
                yield Select(ReceiveGuard(ch), timeout)
            except RuntimeError:
                log.append(("caught", kernel.clock.now))
            log.append(("slept", (yield Delay(100)), kernel.clock.now))

        proc = kernel.spawn(victim, name="victim")
        kernel.post(5, lambda: kernel.schedule_throw(proc, RuntimeError("boom")))
        kernel.spawn(lambda: (yield Delay(10)) or (yield Send(ch, "msg")))
        kernel.run(until=7)  # thrown into, message not yet sent
        assert not kernel._pending_selects and ch._waiters == []
        assert timeout._consumed and timeout._cancel["cancelled"]  # on_unblock ran
        kernel.run()
        # The send at t=10 neither consumed the message on the victim's
        # behalf nor cut its Delay short with a SelectResult.
        assert log == [("caught", 5), ("slept", None, 105)]
        assert ch.peek_all() == [("msg",)]
        assert kernel.clock.now == 105  # the cancelled timer did not fire at 50


class TestSelectPlan:
    """A ``Select`` object yielded more than once (DESIGN.md §5.1)."""

    def test_dynamic_feasible_select_is_never_cached(self, free_kernel):
        flag = {"on": True}
        select = Select(WhenGuard(lambda: flag["on"], value="ok"))
        seen = []

        def main():
            seen.append((yield select).value)
            assert select._plan is None
            seen.append((yield select).value)
            flag["on"] = False  # now infeasible: nothing could ever wake it
            yield select

        with pytest.raises(GuardExhaustedError):
            free_kernel.run_process(main)
        assert seen == ["ok", "ok"] and select._plan is None

    def test_one_select_object_blocks_two_processes(self, free_kernel):
        kernel = free_kernel
        a, b = Inbox("a"), Inbox("b")
        shared = Select(TakeGuard(a), TakeGuard(b), TakeGuard(a, pri=0))
        got = []

        def taker(tag):
            for _ in range(2):
                result = yield shared
                got.append((tag, result.index, result.value))

        first = kernel.spawn(taker, "one")
        second = kernel.spawn(taker, "two")
        kernel.run(until=1)
        one, two = (kernel._pending_selects[p.pid] for p in (first, second))
        assert one is not two and one.plan is two.plan is shared._plan
        assert a._waiters == b._waiters == [first, second]
        b.put(kernel, "b1")     # wakes "one" only
        a.put(kernel, "a1")     # "two": guards 0 and 2 ready, pri 0 wins
        kernel.run(until=2)     # both block again, on the compiled plan
        assert got == [("one", 1, "b1"), ("two", 2, "a1")]
        assert a._waiters == b._waiters == [first, second]
        b.put(kernel, "b2")
        b.put(kernel, "b3")
        kernel.run()
        assert got[2:] == [("one", 1, "b2"), ("two", 1, "b3")]
        assert a._waiters == b._waiters == [] and not kernel._pending_selects

    def test_compiled_plan_still_chooses_in_textual_order(self, free_kernel):
        a, b = Inbox("a"), Inbox("b")
        # Buckets a: [0, 2], b: [1].  Guard 0 never matches, so a sweep
        # meets guard 2 before guard 1; the choice is guard 1 all the same.
        select = Select(TakeGuard(a, want="never"), TakeGuard(b), TakeGuard(a))
        picks = []

        def main():
            for _ in range(3):
                a.items.append("x")
                b.items.append("y")
                picks.append((yield select).index)

        free_kernel.run_process(main)
        assert select._plan.compiled and picks == [1, 1, 1]

    @staticmethod
    def blocked_on_a_compiled_plan(arbitration):
        kernel = Kernel(arbitration=arbitration)
        a, b = Inbox("a"), Inbox("b")
        guards = [TakeGuard(a), TakeGuard(b), TakeGuard(a)]
        select = Select(guards)
        a.items.extend(["x", "y"])

        def main():
            for _ in range(3):  # two commits, then a block on the compiled plan
                yield select

        proc = kernel.spawn(main, name="m", daemon=True)
        kernel.run()
        # The wait-for graph and the deadlock report still see textual order.
        kind, pending = proc.waiting_for
        assert kind == "select" and list(pending) == guards
        assert str(proc.blocked_on) == "select(take(a), take(b), take(a))"
        buckets = [
            (source, [index for index, _guard in pairs])
            for source, pairs in select._plan.buckets
        ]
        return buckets, a.items, b.items

    def test_blocked_reused_select_still_lists_its_guards_in_order(self):
        # Ranked (all static pri None): one bucket per guard, a / b / a.
        buckets, a, b = self.blocked_on_a_compiled_plan("ordered")
        assert [index for _source, index in buckets] == [[0], [1], [2]]
        assert buckets[0][0] is a and buckets[1][0] is b and buckets[2][0] is a

    def test_blocked_reused_select_under_random_keeps_source_buckets(self):
        # Unranked: bucketed by source as a: [0, 2], b: [1].
        buckets, a, b = self.blocked_on_a_compiled_plan("random")
        assert [index for _source, index in buckets] == [[0, 2], [1]]
        assert buckets[0][0] is a and buckets[1][0] is b


class CountingTake(TakeGuard):
    """A ``TakeGuard`` that counts the host's calls to ``poll``."""

    def __init__(self, inbox, pri=None):
        super().__init__(inbox, pri=pri)
        self.polls = 0

    def poll(self, kernel):
        self.polls += 1
        return super().poll(kernel)


def compiled_plan(select, arbitration="ordered"):
    """Yield ``select`` twice; return the plan its second run compiled."""
    kernel = Kernel(costs=FREE, arbitration=arbitration)

    def main():
        for _ in range(2):
            yield select

    kernel.run_process(main)
    return select._plan


class TestRankedPlan:
    """Under ``"ordered"`` a reused select whose guards all name a source
    and carry a static ``pri`` sweeps in rank order (DESIGN.md §5.1)."""

    def test_sweep_stops_at_the_first_ready_guard(self, free_kernel):
        kernel = free_kernel
        a, b, c = Inbox("a"), Inbox("b"), Inbox("c")
        guards = [CountingTake(a, pri=1), CountingTake(b, pri=0), CountingTake(c)]
        select = Select(guards)
        a.items.append("a1")
        b.items.extend(["b1", "b2"])
        c.items.append("c1")
        seen = []

        def main():
            for _ in range(2):
                before = kernel.stats.guard_polls
                result = yield select
                seen.append((result.index, kernel.stats.guard_polls - before))

        kernel.run_process(main)
        assert select._plan.compiled is _FIRST_WINS
        # Run one polls all three; run two polls guard 1 (pri 0) and stops,
        # yet both sweeps are modelled as three polls.
        assert seen == [(1, 3), (1, 3)]
        assert [guard.polls for guard in guards] == [1, 2, 1]

    def test_adjacent_guards_on_one_source_share_a_bucket(self):
        a, b = Inbox("a"), Inbox("b")
        select = Select(TakeGuard(a, pri=0), TakeGuard(b), TakeGuard(a, pri=0))
        a.items.extend(["x", "y"])
        plan = compiled_plan(select)
        assert plan.compiled is _FIRST_WINS
        assert [[index for index, _g in pairs] for _s, pairs in plan.buckets] == [
            [0, 2], [1]]

    def test_negative_pri_ranks_first_and_none_last(self):
        a, b, c = Inbox("a"), Inbox("b"), Inbox("c")
        select = Select(TakeGuard(a), TakeGuard(b, pri=5), TakeGuard(c, pri=-7))
        for inbox in (a, b, c):
            inbox.items.extend(["x", "y"])
        plan = compiled_plan(select)
        assert [pairs[0][0] for _s, pairs in plan.buckets] == [2, 1, 0]

    @pytest.mark.parametrize("case", ["callable pri", "sourceless", "random"])
    def test_what_leaves_a_plan_unranked(self, case):
        a, b = Inbox("a"), Inbox("b")
        guards = [TakeGuard(a), TakeGuard(b, pri=1)]
        if case == "callable pri":
            guards.append(TakeGuard(b, pri=lambda value: 0))
        elif case == "sourceless":
            events = EventCount("e")
            events.count = 1
            guards.append(events.beyond(0))
        a.items.extend(["x", "y"])
        plan = compiled_plan(Select(guards), "random" if case == "random" else "ordered")
        assert plan.compiled is True

    @pytest.mark.parametrize(
        "arbitration, buckets", [("ordered", 15), ("random", 6)])
    def test_gated_kv_store_arms(self, arbitration, buckets):
        kernel = Kernel(arbitration=arbitration)
        kv = GatedKVStore(kernel, name="kv", queue_cap=2)

        def caller():
            for key in ("k", "k"):
                yield kv.get(key)

        kernel.run_process(caller)
        plan = kernel._pending_selects[kv.manager_process.pid].plan
        assert len(plan.buckets) == buckets
        if arbitration == "random":
            assert plan.compiled is True
            return
        # await -> sweep -> predicted-wait / shed -> accept, get/put/delete
        # within each rung: rank order is the arms' textual order here.
        assert plan.compiled is _FIRST_WINS
        ranked = [pairs for _source, pairs in plan.buckets]
        assert all(len(pairs) == 1 for pairs in ranked)
        assert [pairs[0][0] for pairs in ranked] == list(range(15))
        kinds = [type(pairs[0][1]) for pairs in ranked]
        assert kinds == [AwaitGuard] * 3 + [DeadlineSweepGuard] * 3 + [
            PredictedWaitGuard] * 3 + [ShedGuard] * 3 + [AcceptGuard] * 3


class DescribedTake(TakeGuard):
    """A ``TakeGuard`` that counts its ``describe()`` calls."""

    described = 0

    def describe(self):
        DescribedTake.described += 1
        return super().describe()


class TestBlockText:
    """The ``block`` event's ``select(...)`` text is rendered once per plan."""

    def _run(self, kernel):
        DescribedTake.described = 0
        a, b = Inbox("a"), Inbox("b")
        select = Select(DescribedTake(a), DescribedTake(b, pri=1))

        def taker():
            return (yield select).value

        first = kernel.spawn(taker, name="first")
        second = kernel.spawn(taker, name="second")
        kernel.post(5, lambda: a.put(kernel, "x"))
        kernel.post(6, lambda: b.put(kernel, "y"))
        kernel.run()
        assert {first.result, second.result} == {"x", "y"}
        return select

    def test_two_blocks_on_one_hoisted_select_share_one_rendering(self):
        kernel = Kernel(costs=FREE, trace=True)
        select = self._run(kernel)
        # Each guard described once, for both blocks and both wakes.
        assert len(kernel.trace.events("wake")) == 2
        assert DescribedTake.described == 2
        blocks = kernel.trace.events("block")
        assert [e.process for e in blocks] == ["first", "second"]
        fresh = "select(" + ", ".join(g.describe() for g in select.guards) + ")"
        assert blocks[0].detail["on"] == blocks[1].detail["on"] == fresh
        assert select._plan.text == fresh

    def test_repeated_wakes_render_each_guard_once(self):
        """Six wakes under one plan render its two guards once, not once per wake."""
        DescribedTake.described = 0
        kernel = Kernel(costs=FREE, trace=True)
        a, b = Inbox("a"), Inbox("b")
        select = Select(DescribedTake(a), DescribedTake(b, pri=1))
        rounds = 6

        def taker():
            for _ in range(rounds):
                yield select

        kernel.spawn(taker, name="taker")
        for t in range(rounds):
            inbox = a if t % 2 else b
            kernel.post(10 * (t + 1), lambda inbox=inbox: inbox.put(kernel, "x"))
        kernel.run()
        wakes = kernel.trace.events("wake")
        assert [e.detail["guard"] for e in wakes] == ["take(b)", "take(a)"] * 3
        assert len(kernel.trace.events("block")) == rounds
        assert DescribedTake.described == 2

    def test_untraced_run_renders_nothing(self):
        kernel = Kernel(costs=FREE)
        select = self._run(kernel)
        assert DescribedTake.described == 0
        assert not hasattr(select._plan, "text")
