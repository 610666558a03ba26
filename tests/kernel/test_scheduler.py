"""Integration-level tests of the kernel scheduler: priorities, virtual
time, CPU contention, joins, par, failure propagation, deadlock."""

import pytest

from repro.errors import DeadlockError, KernelError, ProcessError
from repro.kernel import (
    PRIORITY_MANAGER,
    PRIORITY_NORMAL,
    Charge,
    CostModel,
    Delay,
    Join,
    Kernel,
    Kill,
    Now,
    Par,
    Self,
    SetPriority,
    Spawn,
    Yield,
)
from repro.kernel.costs import FREE
from repro.kernel.process import ProcessState


class TestBasics:
    def test_run_process_returns_result(self):
        def main():
            yield Delay(1)
            return "done"

        assert Kernel().run_process(main) == "done"

    def test_plain_function_body(self):
        assert Kernel().run_process(lambda: 42) == 42

    def test_now_syscall(self):
        def main():
            yield Delay(7)
            return (yield Now())

        kernel = Kernel(costs=FREE)
        assert kernel.run_process(main) == 7

    def test_self_syscall(self):
        def main():
            me = yield Self()
            return me.name

        assert Kernel().run_process(main, name="myself") == "myself"

    def test_yield_reschedules(self):
        def main():
            yield Yield()
            return "ok"

        assert Kernel().run_process(main) == "ok"

    def test_non_syscall_yield_raises_in_process(self):
        def main():
            yield "not a syscall"

        with pytest.raises(ProcessError):
            Kernel().run_process(main)

    def test_run_not_reentrant(self):
        kernel = Kernel()

        def main():
            kernel.run()
            yield Delay(0)

        with pytest.raises(KernelError):
            kernel.run_process(main)


class TestVirtualTime:
    def test_delay_advances_clock(self):
        kernel = Kernel(costs=FREE)

        def main():
            yield Delay(100)

        kernel.run_process(main)
        assert kernel.clock.now == 100

    def test_parallel_delays_overlap(self):
        kernel = Kernel(costs=FREE)

        def sleeper():
            yield Delay(50)

        for _ in range(5):
            kernel.spawn(sleeper)
        kernel.run()
        assert kernel.clock.now == 50

    def test_charge_with_infinite_cpus_overlaps(self):
        kernel = Kernel(costs=FREE, num_cpus=None)

        def worker():
            yield Charge(50)

        for _ in range(4):
            kernel.spawn(worker)
        kernel.run()
        assert kernel.clock.now == 50

    def test_charge_with_one_cpu_serializes(self):
        kernel = Kernel(costs=FREE, num_cpus=1)

        def worker():
            yield Charge(50)

        for _ in range(4):
            kernel.spawn(worker)
        kernel.run()
        assert kernel.clock.now == 200

    def test_charge_with_two_cpus_halves(self):
        kernel = Kernel(costs=FREE, num_cpus=2)

        def worker():
            yield Charge(50)

        for _ in range(4):
            kernel.spawn(worker)
        kernel.run()
        assert kernel.clock.now == 100

    def test_negative_delay_rejected(self):
        def main():
            yield Delay(-1)

        with pytest.raises(KernelError):
            Kernel().run_process(main)

    def test_negative_charge_is_thrown_into_the_process(self):
        kernel = Kernel(costs=FREE)

        def main():
            try:
                yield Charge(-1)
            except KernelError as exc:
                caught = str(exc)
            yield Charge(3)
            return caught

        assert kernel.run_process(main) == "Charge ticks must be >= 0"
        assert kernel.clock.now == 3

    def test_until_stops_early(self):
        kernel = Kernel(costs=FREE)

        def ticker():
            while True:
                yield Delay(10)

        kernel.spawn(ticker, daemon=True)
        kernel.run(until=55)
        assert kernel.clock.now == 55

    def test_run_resumable_after_until(self):
        kernel = Kernel(costs=FREE)
        ticks = []

        def ticker():
            for _ in range(10):
                yield Delay(10)
                ticks.append(kernel.clock.now)

        kernel.spawn(ticker)
        kernel.run(until=35)
        assert ticks == [10, 20, 30]
        kernel.run()
        assert ticks[-1] == 100


class TestPriorities:
    def test_higher_priority_runs_first_at_same_instant(self):
        kernel = Kernel(costs=FREE)
        order = []

        def proc(tag):
            order.append(tag)
            yield Delay(0)

        kernel.spawn(proc, "normal", priority=PRIORITY_NORMAL)
        kernel.spawn(proc, "manager", priority=PRIORITY_MANAGER)
        kernel.run()
        assert order[0] == "manager"

    def test_fifo_within_priority(self):
        kernel = Kernel(costs=FREE)
        order = []

        def proc(tag):
            order.append(tag)
            yield Delay(0)

        for tag in ("a", "b", "c"):
            kernel.spawn(proc, tag)
        kernel.run()
        assert order == ["a", "b", "c"]

    def test_set_priority(self):
        kernel = Kernel(costs=FREE)

        def main():
            yield SetPriority(5)
            me = yield Self()
            return me.priority

        assert kernel.run_process(main) == 5

    def test_high_priority_charge_acquires_cpu_first(self):
        # Both become runnable at t=0 with one CPU: the high-priority
        # process's work runs first (the §3 receptive-manager argument).
        kernel = Kernel(costs=FREE, num_cpus=1)
        finish_times = {}

        def worker(tag, prio):
            yield Charge(10)
            finish_times[tag] = kernel.clock.now

        kernel.spawn(worker, "low", PRIORITY_NORMAL, priority=PRIORITY_NORMAL)
        kernel.spawn(worker, "high", PRIORITY_MANAGER, priority=PRIORITY_MANAGER)
        kernel.run()
        assert finish_times["high"] < finish_times["low"]


class TestSpawnJoin:
    def test_spawn_returns_process(self):
        def child():
            yield Delay(5)
            return "child-done"

        def main():
            proc = yield Spawn(child)
            result = yield Join(proc)
            return result

        assert Kernel().run_process(main) == "child-done"

    def test_join_already_finished(self):
        def child():
            return 7
            yield

        def main():
            proc = yield Spawn(child)
            yield Delay(10)
            return (yield Join(proc))

        assert Kernel().run_process(main) == 7

    def test_join_propagates_child_exception(self):
        def child():
            yield Delay(1)
            raise ValueError("child failed")

        def main():
            proc = yield Spawn(child)
            yield Join(proc)

        with pytest.raises(ValueError, match="child failed"):
            Kernel().run_process(main)

    def test_join_killed_process_raises(self):
        def child():
            yield Delay(100)

        def main():
            proc = yield Spawn(child)
            yield Kill(proc)
            yield Join(proc)

        with pytest.raises(ProcessError):
            Kernel().run_process(main)

    def test_kill_returns_whether_alive(self):
        def child():
            yield Delay(100)

        def main():
            proc = yield Spawn(child)
            first = yield Kill(proc)
            second = yield Kill(proc)
            return (first, second)

        assert Kernel().run_process(main) == (True, False)

    def test_unwatched_failure_propagates_out_of_run(self):
        kernel = Kernel()

        def crasher():
            yield Delay(1)
            raise RuntimeError("unwatched")

        kernel.spawn(crasher)
        with pytest.raises(RuntimeError, match="unwatched"):
            kernel.run()

    def test_spawn_cost_delays_heavy_child_start(self):
        costs = CostModel(
            process_create=100, lwp_create=1, context_switch=0, dispatch=0
        )
        kernel = Kernel(costs=costs)

        def child():
            yield Delay(0)
            return kernel.clock.now

        def main():
            proc = yield Spawn(child, lightweight=False)
            return (yield Join(proc))

        # Creation cost delays the child's first dispatch (§3: dynamic
        # process creation is expensive), not the creator's resume — the
        # asynchronous start must not stall the manager.
        assert kernel.run_process(main) >= 100

    def test_lightweight_child_starts_promptly(self):
        costs = CostModel(
            process_create=100, lwp_create=1, context_switch=0, dispatch=0
        )
        kernel = Kernel(costs=costs)

        def child():
            yield Delay(0)
            return kernel.clock.now

        def main():
            proc = yield Spawn(child, lightweight=True)
            return (yield Join(proc))

        assert kernel.run_process(main) <= 5


class TestPar:
    def test_par_runs_all_and_collects_results(self):
        def task(n):
            yield Delay(n)
            return n * 10

        def main():
            return (yield Par(lambda: task(3), lambda: task(1), lambda: task(2)))

        assert Kernel().run_process(main) == [30, 10, 20]

    def test_par_terminates_only_when_all_do(self):
        kernel = Kernel(costs=FREE)

        def task(n):
            yield Delay(n)

        def main():
            yield Par(lambda: task(5), lambda: task(50))
            return (yield Now())

        assert kernel.run_process(main) == 50

    def test_empty_par(self):
        def main():
            return (yield Par())

        assert Kernel().run_process(main) == []

    def test_par_accepts_list(self):
        def main():
            return (yield Par([lambda: 1, lambda: 2]))

        assert Kernel().run_process(main) == [1, 2]

    def test_par_propagates_failure(self):
        def bad():
            yield Delay(1)
            raise KeyError("nope")

        def main():
            yield Par(lambda: bad(), lambda: 1)

        with pytest.raises(KeyError):
            Kernel().run_process(main)

    def test_nested_par(self):
        def leaf(n):
            yield Delay(1)
            return n

        def branch(base):
            return (yield Par(lambda: leaf(base), lambda: leaf(base + 1)))

        def main():
            return (yield Par(lambda: branch(0), lambda: branch(10)))

        assert Kernel().run_process(main) == [[0, 1], [10, 11]]


class TestDeadlockDetection:
    def test_blocked_nondaemon_is_deadlock(self):
        from repro.channels import Channel, Receive

        kernel = Kernel()
        ch = Channel()

        def stuck():
            yield Receive(ch)

        kernel.spawn(stuck)
        with pytest.raises(DeadlockError) as exc:
            kernel.run()
        assert "stuck" in str(exc.value)

    def test_blocked_daemon_is_fine(self):
        from repro.channels import Channel, Receive

        kernel = Kernel()
        ch = Channel()

        def daemon():
            yield Receive(ch)

        kernel.spawn(daemon, daemon=True)
        kernel.run()  # no exception

    def test_deadlock_lists_blocked_processes(self):
        from repro.channels import Channel, Receive

        kernel = Kernel()
        a, b = Channel(name="a"), Channel(name="b")

        def p1():
            yield Receive(a)

        def p2():
            yield Receive(b)

        kernel.spawn(p1, name="first")
        kernel.spawn(p2, name="second")
        with pytest.raises(DeadlockError) as exc:
            kernel.run()
        assert len(exc.value.blocked) == 2


class TestStats:
    def test_counts_spawns_and_exits(self):
        kernel = Kernel()

        def child():
            yield Delay(1)

        def main():
            procs = []
            for _ in range(3):
                procs.append((yield Spawn(child)))
            for proc in procs:
                yield Join(proc)

        kernel.run_process(main)
        assert kernel.stats.spawns == 4  # main + 3 children
        assert kernel.stats.exits == 4

    def test_snapshot_and_diff(self):
        kernel = Kernel()
        before = kernel.stats.snapshot()

        def main():
            yield Delay(1)

        kernel.run_process(main)
        delta = kernel.stats.diff(before)
        assert delta["spawns"] == 1

    def test_work_ticks(self):
        kernel = Kernel()

        def main():
            yield Charge(25)

        kernel.run_process(main)
        assert kernel.stats.work_ticks == 25


class TestDeterminism:
    def test_same_seed_same_interleaving(self):
        def build():
            kernel = Kernel(seed=7, arbitration="random")
            order = []

            def proc(tag):
                yield Delay(1)
                order.append(tag)

            for tag in range(20):
                kernel.spawn(proc, tag)
            kernel.run()
            return order, kernel.clock.now

        assert build() == build()
