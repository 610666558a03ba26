"""Process lifecycle: the table is the live set, handles outlive it, and
a wait's registration wakes only the wait that made it (DESIGN.md §5.3)."""

import gc
import tracemalloc

import pytest

from repro.channels import Channel, Receive, Send
from repro.errors import DeadlockError, ProcessError
from repro.kernel import Delay, Join, Kernel, Kill, Par, Spawn
from repro.kernel.process import ProcessState
from repro.net import ring
from repro.stdlib import BoundedBuffer, Dictionary, GatedKVStore
from repro.workloads import TrafficEngine, Uniform

from tests.helpers import step_to_quiescence


class Poke(Exception):
    """What the tests throw into a waiting process."""


def sleeper(ticks, value=None):
    yield Delay(ticks)
    return value


class TestReap:
    """A process leaves ``processes()`` as it exits; its handle keeps
    everything a user reads off it."""

    def test_return(self, free_kernel):
        kernel = free_kernel
        stay = kernel.spawn(sleeper, 100, name="stay")
        proc = kernel.spawn(sleeper, 5, "done", name="leaver")
        assert kernel.process_count() == 2
        kernel.run(until=10)
        assert kernel.processes() == [stay]
        assert kernel.process_count() == kernel.process_count(alive_only=False) == 1
        assert (proc.state, proc.result, proc.name) == (ProcessState.DONE, "done", "leaver")

    def test_raise_with_a_joiner(self, free_kernel):
        kernel = free_kernel

        def failing():
            yield Delay(5)
            raise ValueError("boom")

        def joiner(target):
            try:
                yield Join(target)
            except ValueError as exc:
                return exc

        proc = kernel.spawn(failing, name="failing")
        waiter = kernel.spawn(joiner, proc)
        kernel.run(until=1)  # the joiner is parked on a live target
        assert kernel.process_count() == 2
        kernel.run()
        assert kernel.processes() == []
        assert proc.state == ProcessState.FAILED and proc.name == "failing"
        assert waiter.result is proc.exception

    def test_kill_syscall(self, free_kernel):
        kernel = free_kernel
        victim = kernel.spawn(sleeper, 1000, name="victim")

        def killer():
            yield Delay(5)
            before = kernel.process_count()
            was_alive = yield Kill(victim)
            return was_alive, before, kernel.process_count()

        proc = kernel.spawn(killer)
        kernel.run()
        assert proc.result == (True, 2, 1)
        assert kernel.processes() == []
        assert (victim.state, victim.name) == (ProcessState.KILLED, "victim")
        assert victim.result is None and victim.exception is None

    def test_kill_process_before_first_dispatch(self, free_kernel):
        kernel = free_kernel
        ran = []
        proc = kernel.spawn(lambda: ran.append(1), name="unborn")
        assert kernel.processes() == [proc]
        assert kernel.kill_process(proc)
        assert kernel.processes() == [] and kernel.process_count() == 0
        assert (proc.state, proc.name) == (ProcessState.KILLED, "unborn")
        kernel.run()
        assert ran == [1]  # a plain function's body is its call, made by spawn
        assert proc.resumptions == 0

    def test_processes_is_pid_ordered(self, free_kernel):
        kernel = free_kernel
        procs = [kernel.spawn(sleeper, 50 - 10 * i) for i in range(5)]
        kernel.run(until=25)  # the last two are gone, in reverse pid order
        late = kernel.spawn(sleeper, 1)
        assert kernel.processes() == [*procs[:3], late]
        assert [p.pid for p in kernel.processes()] == sorted(
            p.pid for p in kernel.processes()
        )

    def test_join_on_a_reaped_process(self, free_kernel):
        kernel = free_kernel
        target = kernel.spawn(sleeper, 5, "kept")
        kernel.run()
        assert kernel.processes() == []

        def joiner():
            return (yield Join(target))

        assert kernel.run_process(joiner) == "kept"

    def test_deadlock_report_lists_the_blocked_not_the_dead(self, free_kernel):
        kernel = free_kernel
        ch = Channel(name="ch")
        kernel.spawn(sleeper, 5, name="finished")

        def stuck():
            yield Receive(ch)

        blocked = kernel.spawn(stuck, name="stuck")
        with pytest.raises(DeadlockError) as excinfo:
            kernel.run()
        assert excinfo.value.blocked == [blocked]
        assert str(excinfo.value) == (
            "deadlock: no events pending but these processes are blocked:\n"
            f"  stuck (pid={blocked.pid}) waiting on select(receive(ch))"
        )


# -- flat in N ---------------------------------------------------------------


def table_high_water(kernel):
    sizes = [len(kernel.processes())]
    step_to_quiescence(kernel, also=lambda: sizes.append(len(kernel.processes())))
    return max(sizes)


def closed_buffer(n):
    """Two producer/consumer pairs push ``n`` items through one buffer."""
    kernel = Kernel()
    buf = BoundedBuffer(kernel, name="buf", size=2)

    def producer():
        for i in range(n // 2):
            yield buf.deposit(i)

    def consumer():
        for _ in range(n // 2):
            yield buf.remove()

    for _ in range(2):
        kernel.spawn(producer)
        kernel.spawn(consumer)
    return kernel, buf


def open_kv(n):
    kernel = Kernel()
    kv = GatedKVStore(kernel, read_work=2, write_work=6, request_max=4, queue_cap=8)

    def request(req):
        key = f"k{req.index % 16}"
        return kv.put(key, req.index) if req.index % 3 == 0 else kv.get(key)

    engine = TrafficEngine(kernel, Uniform(8), n, request, engines=2, clients=16, seed=7)
    engine.start()
    return kernel, engine


def held_after_run(n):
    """Bytes allocated during ``run()`` and still held once it returns."""
    kernel, buf = closed_buffer(n)
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        kernel.run()
        gc.collect()
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert kernel.stats.spawns > n  # a body process per call, all gone
    return held


class TestFlatInN:
    """What a run retains does not depend on how many processes it ran."""

    N = 200

    def test_closed_buffer_table_high_water(self):
        small, _ = closed_buffer(self.N)
        large, _ = closed_buffer(4 * self.N)
        assert table_high_water(small) == table_high_water(large)
        assert large.stats.spawns > 4 * self.N and large.process_count() == 1

    def test_open_kv_table_high_water(self):
        small, engine = open_kv(self.N)
        large, engine4 = open_kv(4 * self.N)
        assert table_high_water(small) == table_high_water(large)
        assert (engine.result.counts["ok"], engine4.result.counts["ok"]) == (
            self.N, 4 * self.N)  # a client and a body process each
        assert large.stats.spawns > 8 * self.N and large.process_count() == 1

    def test_closed_buffer_bytes_held(self):
        held_after_run(self.N)  # warm caches: interned names, select plans
        small, large = held_after_run(self.N), held_after_run(4 * self.N)
        assert abs(large - small) < 0.10 * small, (small, large)


# -- a registration wakes only the wait that made it -------------------------


def poke_at(kernel, when, proc):
    kernel.post(when, lambda: kernel.schedule_throw(proc, Poke()))


class TestStaleWakes:
    """A process thrown out of a wait is not woken by what the wait left
    behind; its next wait lasts its full length."""

    def waiter(self, kernel, wait, log):
        """Wait, survive the poke, then sleep 500: ``log`` gets what each
        resumption delivered and when."""
        try:
            log.append(((yield wait()), kernel.clock.now))
        except Poke:
            log.append(("poked", kernel.clock.now))
        log.append(((yield Delay(500)), kernel.clock.now))

    def test_join(self, free_kernel):
        kernel, log = free_kernel, []
        target = kernel.spawn(sleeper, 100, "late")
        proc = kernel.spawn(self.waiter, kernel, lambda: Join(target), log)
        poke_at(kernel, 10, proc)
        kernel.run()
        assert log == [("poked", 10), (None, 510)]

    def test_par(self, free_kernel):
        kernel, log = free_kernel, []
        thunks = [lambda i=i: sleeper(100, i) for i in range(2)]
        proc = kernel.spawn(self.waiter, kernel, lambda: Par(thunks), log)
        poke_at(kernel, 10, proc)
        kernel.run()
        assert log == [("poked", 10), (None, 510)]

    def test_blocked_send(self, free_kernel):
        kernel, log = free_kernel, []
        ch = Channel(capacity=1)
        received = []

        def receiver():
            yield Delay(100)
            received.append((yield Receive(ch)))
            yield Delay(10)
            received.append((yield Receive(ch)))

        def filler():
            yield Send(ch, "first")

        kernel.spawn(filler)
        kernel.spawn(receiver, daemon=True)
        proc = kernel.spawn(self.waiter, kernel, lambda: Send(ch, "never sent"), log)
        poke_at(kernel, 10, proc)
        kernel.run()
        assert log == [("poked", 10), (None, 510)]
        assert received == ["first"]  # a Send that raised did not send
        assert ch.total_sent == 1

    def test_killed_blocked_sender_sends_nothing(self, free_kernel):
        kernel = free_kernel
        ch = Channel(capacity=1)

        def main():
            yield Send(ch, "first")
            sender = yield Spawn(lambda: (yield Send(ch, "from the dead")))
            later = yield Spawn(lambda: (yield Send(ch, "second")))
            yield Delay(1)
            yield Kill(sender)
            got = [(yield Receive(ch)), (yield Receive(ch))]
            yield Join(later)
            return got

        assert kernel.run_process(main) == ["first", "second"]
        assert ch.empty

    def test_entry_call(self, free_kernel):
        kernel, log = free_kernel, []
        d = Dictionary(kernel, name="d", entries={"a": 1}, search_work=100)
        proc = kernel.spawn(self.waiter, kernel, lambda: d.search("a"), log)
        poke_at(kernel, 10, proc)
        kernel.run()
        assert log == [("poked", 10), (None, 510)]

    def test_remote_entry_call(self, free_kernel):
        # The response leg (``send_response``) arrives at t=110.
        kernel, log = free_kernel, []
        net = ring(kernel, 2, link_latency=5)
        d = net.node("n1").place(
            Dictionary(kernel, name="d", entries={"a": 1}, search_work=100))
        proc = net.node("n0").spawn(self.waiter, kernel, lambda: d.search("a"), log)
        poke_at(kernel, 10, proc)
        kernel.run()
        assert log == [("poked", 10), (None, 510)]
        assert kernel.stats.calls_completed == 1  # served, for nobody

    def test_entry_call_timeout_after_the_throw(self, free_kernel):
        # The armed expiry fires at t=50 (``fail``): it settles the call
        # and raises in nobody.
        kernel, log = free_kernel, []
        d = Dictionary(kernel, name="d", entries={"a": 1}, search_work=100)
        proc = kernel.spawn(
            self.waiter, kernel, lambda: d.search("a", timeout=50), log)
        poke_at(kernel, 10, proc)
        kernel.run()
        assert log == [("poked", 10), (None, 510)]
        assert proc.state is ProcessState.DONE


class TestKilledParChild:
    def parent(self, log):
        try:
            log.append((yield Par([lambda i=i: sleeper(100, i) for i in range(2)])))
        except ProcessError as exc:
            log.append(str(exc))
        yield Delay(500)

    def test_parent_is_told_once(self, free_kernel):
        kernel, log = free_kernel, []
        parent = kernel.spawn(self.parent, log, name="parent")

        def killer():
            yield Delay(10)
            for child in list(parent.waiting_for[1]):
                yield Kill(child)

        kernel.spawn(killer)
        kernel.run()
        assert log == ["par: 'parent.par[0]' was killed"]
        assert kernel.clock.now == 510

    def test_same_verdict_as_join(self, free_kernel):
        kernel, log = free_kernel, []

        def main():
            child = yield Spawn(sleeper, (100,), name="child")
            yield Kill(child)
            try:
                yield Join(child)
            except ProcessError as exc:
                log.append(str(exc))

        kernel.run_process(main)
        parent = kernel.spawn(self.parent, log, name="p")
        kernel.run(max_events=1)
        kernel.kill_process(parent.waiting_for[1][1])
        kernel.run()
        assert log == ["join: 'child' was killed", "par: 'p.par[1]' was killed"]
