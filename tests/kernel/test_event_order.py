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
from repro.kernel import Charge, Delay, Kernel, Kill, Select, Spawn, Timeout
from repro.kernel.costs import FREE
from repro.kernel.process import PRIORITY_MANAGER
from repro.stdlib import BoundedBuffer

from tests.helpers import next_event_time, step_to_quiescence


def logger(kernel, log):
    def note(name):
        log.append((name, kernel.clock.now))

    return note


#: The unbounded machine, the one-CPU path and the SMP path (DESIGN.md §13).
MACHINES = [None, 1, 4]


class TestSameTickOrder:
    """On the unbounded machine; the two subclasses below rerun every case
    on the one-CPU path and on the SMP path (DESIGN.md §13).  Expected
    orders were recorded before a finite-machine completion became one
    record: they are what a callback queueing a step gives."""

    num_cpus = None

    def test_completions_dispatch_in_post_order(self):
        kernel = Kernel(costs=FREE, num_cpus=self.num_cpus)
        log = []
        note = logger(kernel, log)

        def worker(name, idle, work):
            yield Delay(idle)
            yield Charge(work)
            note(name)

        def sleeper(name, ticks):
            yield Delay(ticks)
            note(name)

        # Given the CPUs, all four end at t=5; their completions are
        # posted at t=2, 0, 4 and (the Delay) 1.
        kernel.spawn(worker, "a", 2, 3)
        kernel.spawn(worker, "b", 0, 5)
        kernel.spawn(worker, "c", 4, 1)

        def late_sleeper():
            yield Delay(1)
            yield from sleeper("d", 4)

        kernel.spawn(late_sleeper)
        kernel.run()
        assert log == {
            # The Delay's wake record is older than a's and c's.
            None: [("b", 5), ("d", 5), ("a", 5), ("c", 5)],
            # One CPU serializes the work; only b and d share an instant.
            1: [("b", 5), ("d", 5), ("a", 8), ("c", 9)],
            # CPU bookkeeping runs at kernel priority, ahead of the wake,
            # and each completer queues behind what is due by then.
            4: [("b", 5), ("a", 5), ("c", 5), ("d", 5)],
        }[self.num_cpus]

    def test_zero_cost_wake_at_that_tick_runs_first(self):
        """Stepping a completer the moment its record surfaces would run
        the three workers before the receiver the manager woke."""
        kernel = Kernel(costs=FREE, num_cpus=self.num_cpus)
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
        assert log == {
            None: [("waker", 5), ("woken", 5), ("p1", 5), ("p2", 5), ("p3", 5)],
            1: [("waker", 5), ("woken", 5), ("p1", 10), ("p2", 15), ("p3", 20)],
            # All four CPUs free at t=5 before anyone steps: the workers'
            # steps are queued by the time the waker sends.
            4: [("waker", 5), ("p1", 5), ("p2", 5), ("p3", 5), ("woken", 5)],
        }[self.num_cpus]

    @pytest.mark.parametrize("syscall", [Charge, Delay])
    def test_lone_completer_and_delay_wake_agree(self, syscall):
        kernel = Kernel(costs=FREE, num_cpus=self.num_cpus)
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

    def test_a_lone_charge_is_one_heap_record(self):
        """Nothing else is due when the grant ends: one record per Charge
        on every machine, plus the process's first step."""
        kernel = Kernel(costs=FREE, num_cpus=self.num_cpus)
        charges = 5

        def lone():
            for _ in range(charges):
                yield Charge(3)
            return "done"

        proc = kernel.spawn(lone)
        kernel.run(max_events=charges)
        assert proc.alive and kernel.clock.now == 3 * (charges - 1)
        kernel.run(max_events=1)
        assert proc.result == "done" and next_event_time(kernel) is None

    def test_completion_of_killed_process_still_moves_the_clock(self):
        kernel = Kernel(costs=FREE, num_cpus=self.num_cpus)
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

    def test_two_cpus_of_one_domain_finish_at_one_instant(self):
        """Both releases run before either completer steps, and each
        starts the next queued grant on its own CPU."""
        kernel = Kernel(costs=FREE, num_cpus=self.num_cpus)
        log = []
        note = logger(kernel, log)

        def worker(name, work):
            yield Charge(work)
            note(name)
            yield Charge(work)
            note(name + "'")

        for name in ("a", "b", "c", "d", "e", "f"):
            kernel.spawn(worker, name, 4)
        kernel.run()
        first, second = "abcdef", ("a'", "b'", "c'", "d'", "e'", "f'")
        assert log == {
            None: [(n, 4) for n in first] + [(n, 8) for n in second],
            1: [(n, 4 * (i + 1)) for i, n in enumerate((*first, *second))],
            # t=4 and t=8 free four CPUs at once; the two queued grants
            # start on the first two, in queue order.
            4: [("a", 4), ("b", 4), ("c", 4), ("d", 4), ("e", 8), ("f", 8),
                ("a'", 8), ("b'", 8), ("c'", 12), ("d'", 12), ("e'", 12), ("f'", 12)],
        }[self.num_cpus]

    def test_completion_beside_a_timeout_and_a_zero_cost_wake(self):
        """t=5 holds a Timeout callback, two completions and the step of a
        receiver woken at zero cost by the higher-priority completer."""
        kernel = Kernel(costs=FREE, num_cpus=self.num_cpus)
        log = []
        note = logger(kernel, log)
        ch, silent = Channel(), Channel()

        def worker():
            yield Charge(5)
            note("worker")

        def timer():
            result = yield Select(ReceiveGuard(silent), Timeout(5, value="idle"))
            note(result.value)

        def receiver():
            yield Select(ReceiveGuard(ch))
            note("woken")

        def waker():
            yield Charge(5)
            yield Send(ch, "go")
            note("waker")

        kernel.spawn(receiver)
        kernel.spawn(worker)
        kernel.spawn(timer)
        kernel.spawn(waker, priority=PRIORITY_MANAGER)
        kernel.run()
        assert log == {
            None: [("waker", 5), ("woken", 5), ("worker", 5), ("idle", 5)],
            1: [("waker", 5), ("woken", 5), ("idle", 5), ("worker", 10)],
            4: [("waker", 5), ("worker", 5), ("woken", 5), ("idle", 5)],
        }[self.num_cpus]

    def test_charged_spawn_outlives_its_killed_creator(self):
        """The creation grant is the creator's work but the child's
        completion: killing the payer retires nothing."""
        kernel = Kernel(costs=FREE.with_(lwp_create=6), num_cpus=self.num_cpus)
        log = []
        note = logger(kernel, log)

        def child():
            note("child")
            yield Charge(2)
            note("child done")

        def creator():
            yield Spawn(child)
            note("creator")
            yield Charge(20)
            note("survived")  # pragma: no cover - killed mid-Charge

        def bystander():
            yield Charge(3)
            note("bystander")

        def killer(target):
            yield Delay(2)
            yield Kill(target)
            note("killer")

        target = kernel.spawn(creator)
        kernel.spawn(bystander)
        kernel.spawn(killer, target)
        kernel.run()
        on_its_own_cpu = [("creator", 0), ("killer", 2), ("bystander", 3),
                          ("child", 6), ("child done", 8)]
        assert log == {
            None: on_its_own_cpu,
            # The dead creator's Charge(20) still holds the CPU from 9 to 29.
            1: [("creator", 0), ("killer", 2), ("child", 6), ("bystander", 9),
                ("child done", 31)],
            4: on_its_own_cpu,
        }[self.num_cpus]
        assert kernel.clock.now == {None: 20, 1: 31, 4: 20}[self.num_cpus]
        assert kernel.stats.stale_events == 1  # the creator's own Charge

    def test_single_stepping_reaches_the_same_quiescence(self):
        def scenario():
            kernel = Kernel(seed=3, num_cpus=self.num_cpus)
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


class TestSameTickOrderOneCpu(TestSameTickOrder):
    num_cpus = 1


class TestSameTickOrderFourCpus(TestSameTickOrder):
    num_cpus = 4


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

    @pytest.mark.parametrize("num_cpus", MACHINES)
    @pytest.mark.parametrize("how", ["kill", "throw"])
    def test_a_retired_completion_counts_once(self, num_cpus, how):
        """On every machine, whether its process was killed or thrown into
        (a posted closure on a finite machine counted the kill, as the
        dead step it queued, and not the throw)."""
        kernel = Kernel(costs=FREE, num_cpus=num_cpus)

        def worker():
            try:
                yield Charge(10)
            except RuntimeError:
                yield Delay(20)

        def retire(target):
            yield Delay(3)
            if how == "kill":
                kernel.kill_process(target)
            else:
                kernel.schedule_throw(target, RuntimeError("stop working"))

        target = kernel.spawn(worker)
        kernel.spawn(retire, target)
        kernel.run()
        assert kernel.stats.stale_events == 1
        assert kernel.clock.now == {"kill": 10, "throw": 23}[how]

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
        assert next_event_time(kernel) is None
        assert not kernel.has_live_events()

    def test_live_stale_and_ignored_events(self):
        kernel = Kernel(costs=FREE)

        def sleeper():
            yield Delay(7)

        proc = kernel.spawn(sleeper)
        assert next_event_time(kernel) == 0
        assert kernel.has_live_events()
        assert not kernel.has_live_events(ignoring=proc)
        kernel.run(max_events=1)  # now parked in its Delay
        assert next_event_time(kernel) == 7
        assert kernel.has_live_events() and not kernel.has_live_events(ignoring=proc)
        kernel.kill_process(proc)
        assert next_event_time(kernel) == 7 and not kernel.has_live_events()

    def test_cancelled_callback_is_queued_but_not_live(self):
        kernel = Kernel(costs=FREE)
        cancel = {"cancelled": True}
        kernel.post(9, lambda: None, cancel=cancel)
        assert next_event_time(kernel) == 9 and not kernel.has_live_events()
        cancel["cancelled"] = False
        assert kernel.has_live_events()

    @pytest.mark.parametrize("num_cpus", [1, 2])
    def test_a_grant_is_live_whatever_became_of_its_process(self, num_cpus):
        """The end of a killed process's grant frees a CPU that queued work
        of a live process is waiting for."""
        kernel = Kernel(costs=FREE, num_cpus=num_cpus)
        domain = kernel.cpu_scheduler.default
        log = []

        def worker(name, work):
            yield Charge(work)
            log.append((name, kernel.clock.now))

        holders = [kernel.spawn(worker, f"holder{i}", 10) for i in range(num_cpus)]
        kernel.spawn(worker, "queued", 4)
        kernel.run(until=3)
        assert domain.queued == 1 and domain._free == 0
        for holder in holders:
            kernel.kill_process(holder)
        # The one live process has no event of its own: its grant has not
        # started.  The dead holders' grants are what keeps the run going.
        assert kernel.has_live_events()
        assert next_event_time(kernel) == 10
        kernel.run(until=10)
        # Released at the original end time; the queued grant starts then.
        assert domain.queued == 0 and domain._free == num_cpus - 1
        kernel.run()
        assert log == [("queued", 14)]
        assert kernel.clock.now == 14
        # One per dead holder, and a multi-CPU domain's cancelled balancer tick.
        assert kernel.stats.stale_events == num_cpus + (num_cpus > 1)
        assert not kernel.has_live_events()

