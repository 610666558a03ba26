"""The event queue's tie-breaks, as the one-event resume must keep them.

A CPU completion (``Charge``, any charged syscall) and a ``Delay`` expiry
are each one heap record that steps its process directly when nothing
else is due at that instant at the process's priority or better, and
otherwise goes behind what is — the order the kernel produced when a
completion was a callback that queued a step (DESIGN.md §5.2).  These
tests pin that order from the outside, plus the type-keyed syscall
dispatch and the two queue queries other modules use.
"""

from __future__ import annotations

from types import SimpleNamespace

import pytest

from repro.channels import Channel, ReceiveGuard, Send
from repro.errors import DeadlockError, ProcessError
from repro.kernel import Charge, Delay, Kernel, Kill, Select, Timeout
from repro.kernel.costs import FREE
from repro.kernel.process import PRIORITY_MANAGER
from repro.stdlib import BoundedBuffer

from tests.helpers import step_to_quiescence


def logger(kernel, log):
    def note(name):
        log.append((name, kernel.clock.now))

    return note


class TestSameTickOrder:
    def test_completions_dispatch_in_post_order(self):
        kernel = Kernel(costs=FREE)
        log = []
        note = logger(kernel, log)

        def worker(name, idle, work):
            yield Delay(idle)
            yield Charge(work)
            note(name)

        def sleeper(name, ticks):
            yield Delay(ticks)
            note(name)

        # All four end at t=5; their completions are posted at t=2, 0, 4
        # and (the Delay) 1.
        kernel.spawn(worker, "a", 2, 3)
        kernel.spawn(worker, "b", 0, 5)
        kernel.spawn(worker, "c", 4, 1)

        def late_sleeper():
            yield Delay(1)
            yield from sleeper("d", 4)

        kernel.spawn(late_sleeper)
        kernel.run()
        assert log == [("b", 5), ("d", 5), ("a", 5), ("c", 5)]

    def test_zero_cost_wake_at_that_tick_runs_first(self):
        """Stepping a completer the moment its record surfaces would run
        the three workers before the receiver the manager woke."""
        kernel = Kernel(costs=FREE)
        log = []
        note = logger(kernel, log)
        ch = Channel()

        def worker(name):
            yield Charge(5)
            note(name)

        def receiver():
            yield Select(ReceiveGuard(ch))
            note("woken")

        def waker():
            yield Charge(5)
            yield Send(ch, "go")
            note("waker")

        kernel.spawn(receiver)
        for name in ("p1", "p2", "p3"):
            kernel.spawn(worker, name)
        kernel.spawn(waker, priority=PRIORITY_MANAGER)
        kernel.run()
        assert log == [
            ("waker", 5), ("woken", 5), ("p1", 5), ("p2", 5), ("p3", 5),
        ]

    @pytest.mark.parametrize("syscall", [Charge, Delay])
    def test_lone_completer_and_delay_wake_agree(self, syscall):
        kernel = Kernel(costs=FREE)
        log = []
        note = logger(kernel, log)

        def lone():
            yield syscall(5)
            note("lone")
            yield syscall(0)
            note("again")

        proc = kernel.spawn(lone)
        kernel.run()
        assert log == [("lone", 5), ("again", 5)]
        assert (proc.resumptions, kernel.stats.context_switches) == (3, 1)
        assert kernel.stats.stale_events == 0

    def test_completion_of_killed_process_still_moves_the_clock(self):
        kernel = Kernel(costs=FREE)
        log = []
        note = logger(kernel, log)

        def victim():
            yield Charge(10)
            note("victim")

        def killer(target):
            yield Delay(3)
            yield Kill(target)
            note("killer")

        target = kernel.spawn(victim)
        kernel.spawn(killer, target)
        kernel.run()
        assert log == [("killer", 3)]
        assert kernel.clock.now == 10  # the CPU was busy until then
        assert target.resumptions == 1

    def test_single_stepping_reaches_the_same_quiescence(self):
        def scenario():
            kernel = Kernel(seed=3)
            buf = BoundedBuffer(kernel, size=2)

            def producer():
                for i in range(6):
                    yield buf.deposit(i)

            def consumer():
                got = []
                for _ in range(6):
                    got.append((yield buf.remove()))
                    yield Charge(3)
                return got

            kernel.spawn(producer)
            return kernel, kernel.spawn(consumer)

        kernel, consumer = scenario()
        kernel.run()
        stepped, stepped_consumer = scenario()
        # The slot-index invariant is asserted after every single event.
        assert step_to_quiescence(stepped) > 0
        assert stepped_consumer.result == consumer.result == list(range(6))
        assert stepped.clock.now == kernel.clock.now
        assert stepped.stats.snapshot() == kernel.stats.snapshot()


class TestStaleCompletion:
    """A CPU completion belongs to the park it was queued under."""

    @pytest.mark.parametrize("num_cpus", [None, 1, 2])
    def test_throw_retires_the_pending_completion(self, num_cpus):
        kernel = Kernel(costs=FREE, num_cpus=num_cpus)
        ch = Channel()
        log = []

        def worker():
            try:
                yield Charge(10)
            except RuntimeError:
                log.append(("thrown", kernel.clock.now))
            got = yield Select(ReceiveGuard(ch))
            log.append(("select returned", got, kernel.clock.now))

        def thrower(target):
            yield Delay(3)
            kernel.schedule_throw(target, RuntimeError("stop working"))

        target = kernel.spawn(worker)
        kernel.spawn(thrower, target)
        # Nobody ever sends: the select must stay blocked, not come back
        # with None when the abandoned Charge would have ended.
        with pytest.raises(DeadlockError):
            kernel.run()
        assert log == [("thrown", 3)]
        assert target.blocked_on is not None


class TestStaleEventCount:
    def test_counts_cancelled_timers_and_dead_steps_exactly(self):
        """``chan_timer``'s shape: most timeouts are cancelled by a message."""
        kernel = Kernel(costs=FREE, num_cpus=1)
        ch = Channel()
        messages = 7

        def producer():
            for i in range(messages):
                yield Delay(10)
                yield Send(ch, i)

        def consumer():
            got = []
            while True:
                result = yield Select(ReceiveGuard(ch), Timeout(25, value="idle"))
                if result.value == "idle":
                    return got
                got.append(result.value)

        def bystander():
            yield Charge(1)

        def busy():
            yield Charge(10)

        def reaper(*targets):
            yield Delay(0)
            for target in targets:
                yield Kill(target)

        kernel.spawn(producer)
        receiver = kernel.spawn(consumer)
        # Killed with its first step still queued, and killed mid-Charge.
        unborn = kernel.spawn(bystander)
        working = kernel.spawn(busy, priority=PRIORITY_MANAGER)
        kernel.spawn(reaper, unborn, working, priority=PRIORITY_MANAGER)
        kernel.run()
        assert receiver.result == list(range(messages))
        assert unborn.resumptions == 0 and working.resumptions == 1
        # One cancelled Timeout per message, plus the two dead steps.
        assert kernel.stats.stale_events == messages + 2

    def test_zero_when_nothing_is_cancelled_or_killed(self):
        kernel = Kernel(num_cpus=1)
        ch = Channel(capacity=2)

        def producer():
            for i in range(20):
                yield Charge(2)
                yield Send(ch, i)

        def consumer():
            for _ in range(20):
                yield Select(ReceiveGuard(ch))
                yield Charge(1)

        kernel.spawn(producer)
        kernel.spawn(consumer)
        kernel.run()
        assert kernel.stats.stale_events == 0


class Work(Charge):
    """A subclass of a kernel syscall, with a ``handle`` that must lose."""

    def handle(self, kernel, proc, cost):  # pragma: no cover - must not run
        raise AssertionError("a Charge subclass is handled as Charge")


class Ping:
    """Not a ``Syscall`` subclass: recognised by its ``handle`` alone."""

    def handle(self, kernel, proc, cost):
        kernel.schedule_resume(proc, "pong", cost=cost)


class TestSyscallDispatch:
    @staticmethod
    def body():
        seen = []
        yield Work(4)
        seen.append((yield Ping()))
        # An instance-level ``handle`` on a type that has none.
        seen.append((yield SimpleNamespace(
            handle=lambda kernel, proc, cost: kernel.schedule_resume(proc, "ns")
        )))
        for junk in (42, SimpleNamespace()):
            try:
                yield junk
            except ProcessError as exc:
                seen.append(type(exc).__name__)
        seen.append((yield Ping()))
        yield Work(1)
        return seen

    def check(self, kernel):
        assert kernel.run_process(self.body) == [
            "pong", "ns", "ProcessError", "ProcessError", "pong",
        ]
        assert kernel.clock.now == 5 and kernel.stats.work_ticks == 5

    def test_subclass_duck_type_and_non_syscall(self):
        self.check(Kernel(costs=FREE))

    def test_second_kernel_learns_the_same_types(self):
        first, second = Kernel(costs=FREE), Kernel(costs=FREE)
        self.check(first)
        self.check(second)
        # And again on a kernel that has already memoised them.
        first_again = first.spawn(self.body)
        first.run()
        assert first_again.result[0] == "pong" and first.clock.now == 10


class TestQueueQueries:
    def test_empty_queue(self):
        kernel = Kernel(costs=FREE)
        assert kernel.next_event_time() is None
        assert not kernel.has_live_events()

    def test_live_stale_and_ignored_events(self):
        kernel = Kernel(costs=FREE)

        def sleeper():
            yield Delay(7)

        proc = kernel.spawn(sleeper)
        assert kernel.next_event_time() == 0
        assert kernel.has_live_events()
        assert not kernel.has_live_events(ignoring=proc)
        kernel.run(max_events=1)  # now parked in its Delay
        assert kernel.next_event_time() == 7
        assert kernel.has_live_events() and not kernel.has_live_events(ignoring=proc)
        kernel.kill_process(proc)
        assert kernel.next_event_time() == 7 and not kernel.has_live_events()

    def test_cancelled_callback_is_queued_but_not_live(self):
        kernel = Kernel(costs=FREE)
        cancel = {"cancelled": True}
        kernel.post(9, lambda: None, cancel=cancel)
        assert kernel.next_event_time() == 9 and not kernel.has_live_events()
        cancel["cancelled"] = False
        assert kernel.has_live_events()
