"""Unit tests for Waitable/Guard plumbing."""

import pytest

from repro.channels import Channel, ReceiveGuard, Send
from repro.kernel import Delay, Kernel, Select
from repro.kernel.costs import FREE
from repro.kernel.waiting import EventCount, Guard, Ready, Waitable


class TestWaitable:
    def test_add_remove_waiters(self):
        w = Waitable()

        class FakeProc:
            pass

        p = FakeProc()
        w.add_waiter(p)
        w.add_waiter(p)  # idempotent
        assert w.waiter_count == 1
        w.remove_waiter(p)
        assert w.waiter_count == 0
        w.remove_waiter(p)  # tolerant

    def test_blocked_selector_registered_and_cleared(self):
        kernel = Kernel(costs=FREE)
        ch = Channel()

        def selector():
            yield Select(ReceiveGuard(ch))

        proc = kernel.spawn(selector)
        kernel.run(until=0)
        assert ch.waiter_count == 1  # registered while blocked

        def sender():
            yield Send(ch, 1)

        kernel.spawn(sender)
        kernel.run()
        assert ch.waiter_count == 0  # unregistered after commit

    def test_selector_with_two_channels_registered_on_both(self):
        kernel = Kernel(costs=FREE)
        a, b = Channel(), Channel()

        def selector():
            yield Select(ReceiveGuard(a), ReceiveGuard(b))

        kernel.spawn(selector)
        kernel.run(until=0)
        assert a.waiter_count == 1
        assert b.waiter_count == 1

        def sender():
            yield Send(a, 1)

        kernel.spawn(sender)
        kernel.run()
        # Commit on a must deregister from b too.
        assert b.waiter_count == 0


class TestEventCount:
    def test_waiter_sleeps_until_the_count_passes_what_it_saw(self):
        kernel = Kernel(costs=FREE, trace=True)
        events = EventCount("fault-events")
        seen = []

        def daemon():
            count = 0
            while True:
                select = Select(events.beyond(count))
                select.unwrap = True
                count = yield select
                seen.append((kernel.clock.now, count))

        def source():
            yield Delay(5)
            events.bump(kernel)
            events.bump(kernel)  # the daemon is already awake: no block
            yield Delay(5)
            events.bump(kernel)

        kernel.spawn(daemon, daemon=True)
        kernel.spawn(source)
        kernel.run()
        assert seen == [(5, 1), (5, 2), (10, 3)]
        blocks = [e.detail["on"] for e in kernel.trace.events("block")]
        assert blocks == [f"select(fault-events(>{n}))" for n in (0, 2, 3)]


class TestGuardDefaults:
    def test_base_guard_defaults(self):
        guard = Guard()
        assert guard.feasible()
        assert list(guard.waitables()) == []
        assert guard.describe() == "Guard"

    def test_effective_pri_ordering(self):
        unprioritized = Guard()
        prioritized = Guard()
        prioritized.pri = 5
        ready = Ready("x")
        assert prioritized.effective_pri(ready) < unprioritized.effective_pri(ready)

    def test_callable_pri_uses_value(self):
        guard = Guard()
        guard.pri = lambda value: value * 2
        assert guard.effective_pri(Ready(10)) == (0, 20)
