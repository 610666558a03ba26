"""The SMP virtual machine: determinism, classes, stealing, domains.

The two compatibility anchors are byte-level: a 1-CPU domain must emit
the *identical* Chrome trace the pre-SMP single-queue scheduler emitted
(pinned in ``tests/fixtures/smp/``), and any multi-CPU run must be
byte-replayable under the same seed.  Everything else — scheduling
classes, idle-steal, the periodic balancer, node-local domains — is
tested against hand-computed virtual timelines.
"""

from __future__ import annotations

import json

import pytest

from repro.errors import KernelError
from repro.kernel import FREE, Charge, Delay, Kernel
from repro.kernel.process import PRIORITY_MANAGER, PRIORITY_NORMAL
from repro.kernel.sched import SmpScheduler
from repro.obs import ChromeTraceSink
from repro.stdlib import BoundedBuffer

from tests.helpers import run_checking_sched

FIXTURES = "tests/fixtures/smp"
MESSAGES = 200


def grants(kernel, done, *specs, spawn=None):
    """One process per ``(tag, ticks)`` or ``(tag, ticks, priority, at)``.

    Each asks for one grant of ``ticks`` at time ``at`` and records in
    ``done`` when it ended.  Under ``costs=FREE`` a ``Charge`` is exactly
    one grant, and processes spawned at one priority ask in spawn order.
    """
    def work(tag, ticks, at):
        if at:
            yield Delay(at)
        yield Charge(ticks)
        done[tag] = kernel.clock.now

    for tag, ticks, *rest in specs:
        priority, at = rest or (PRIORITY_NORMAL, 0)
        (spawn or kernel.spawn)(
            work, tag, ticks, at, name=str(tag), priority=priority
        )


def _e1_trace_bytes(tmp_path, num_cpus):
    """Run the E1 BoundedBuffer cell and return its Chrome trace, canonical."""
    kernel = Kernel(num_cpus=num_cpus)
    path = str(tmp_path / f"trace_{num_cpus}.json")
    kernel.obs.add_sink(ChromeTraceSink(path))
    buf = BoundedBuffer(kernel, size=4)

    def producer():
        for i in range(MESSAGES):
            yield buf.deposit(i)

    def consumer():
        for _ in range(MESSAGES):
            yield buf.remove()

    kernel.spawn(producer)
    kernel.spawn(consumer)
    kernel.run()
    kernel.obs.close()
    with open(path) as fh:
        data = json.load(fh)
    return json.dumps(data, sort_keys=True, separators=(",", ":"))


def _fixture_bytes(name):
    with open(f"{FIXTURES}/{name}") as fh:
        return json.dumps(json.load(fh), sort_keys=True, separators=(",", ":"))


class TestUpStrictCompatibility:
    """cpus=1 must be bit-for-bit the old PriorityCpuScheduler."""

    def test_cpus1_trace_matches_pre_smp_fixture(self, tmp_path):
        produced = _e1_trace_bytes(tmp_path, num_cpus=1)
        assert produced == _fixture_bytes("trace_e1_cpus1.json")

    def test_unbounded_trace_matches_pre_smp_fixture(self, tmp_path):
        produced = _e1_trace_bytes(tmp_path, num_cpus=None)
        assert produced == _fixture_bytes("trace_e1_unbounded.json")

    def test_cpus1_trace_diffs_clean_against_fixture(self, tmp_path):
        from repro.obs.diff import main as diff_main

        path = str(tmp_path / "produced.json")
        with open(path, "w") as fh:
            fh.write(_e1_trace_bytes(tmp_path, num_cpus=1))
        assert diff_main([f"{FIXTURES}/trace_e1_cpus1.json", path]) == 0


class TestSmpDeterminism:
    def test_cpus2_trace_matches_fixture(self, tmp_path):
        """The multi-CPU path's bytes (CPU picks, the ``migrate`` instant),
        recorded while a grant's end was still a posted closure."""
        produced = _e1_trace_bytes(tmp_path, num_cpus=2)
        assert produced == _fixture_bytes("trace_e1_cpus2.json")

    def test_cpus2_run_twice_is_byte_identical(self, tmp_path):
        (tmp_path / "a").mkdir()
        (tmp_path / "b").mkdir()
        first = _e1_trace_bytes(tmp_path / "a", num_cpus=2)
        second = _e1_trace_bytes(tmp_path / "b", num_cpus=2)
        assert first == second

    def test_stats_replay_identical(self):
        def run():
            kernel = Kernel(num_cpus=2)
            buf = BoundedBuffer(kernel, size=4)

            def producer():
                for i in range(50):
                    yield buf.deposit(i)

            def consumer():
                for _ in range(50):
                    yield buf.remove()

            kernel.spawn(producer)
            kernel.spawn(consumer)
            kernel.run()
            return kernel.clock.now, kernel.stats.snapshot()

        assert run() == run()


class TestSchedulingClasses:
    def test_manager_priority_work_granted_before_fair(self):
        # One CPU busy until t=100; a fair item then an RT item queue
        # behind it.  The RT item must be granted first despite arriving
        # second.
        kernel = Kernel(costs=FREE, num_cpus=1)
        done = {}
        grants(kernel, done, ("first", 100), ("fair", 10),
               ("rt", 10, PRIORITY_MANAGER, 1))
        kernel.run()
        assert list(done) == ["first", "rt", "fair"]

    def test_rt_class_beats_fair_on_same_runqueue(self):
        kernel = Kernel(costs=FREE, num_cpus=2)
        done = {}
        # Fill both CPUs, steer one fair then one RT grant onto cpu0's
        # runqueue (the 1000-tick decoy keeps cpu1's backlog deeper):
        # when cpu0 frees, the RT class must be granted before the fair
        # item that was enqueued earlier.
        grants(kernel, done, ("a", 100), ("b", 100), ("fair", 10),
               ("decoy", 1000), ("rt", 10, PRIORITY_MANAGER, 1))
        kernel.run()
        assert (done["rt"], done["fair"]) == (110, 120)

    def test_vruntime_interleaves_fair_processes(self):
        # Two processes repeatedly charging on one fair CPU pair: the
        # vruntime key must not let either starve.
        kernel = Kernel(num_cpus=2)
        finished = []

        def worker(tag):
            for _ in range(5):
                yield Charge(10)
            finished.append((kernel.clock.now, tag))

        kernel.spawn(lambda: worker("x"), name="x")
        kernel.spawn(lambda: worker("y"), name="y")
        kernel.run()
        times = [t for t, _ in finished]
        # Fair sharing on 2 CPUs: both finish together, not serialized.
        assert times[0] == times[1]


class TestIdleSteal:
    def test_freed_cpu_steals_from_loaded_sibling(self):
        kernel = Kernel(costs=FREE, num_cpus=2)
        done = {}
        # W1=10 starts on cpu0, W2=100 on cpu1; W3=50 queues on cpu0
        # (shorter backlog), W4=50 queues on cpu1.  At t=60 cpu0 is free
        # with an empty queue and steals W4 from cpu1.
        grants(kernel, done, ("w1", 10), ("w2", 100), ("w3", 50), ("w4", 50))
        run_checking_sched(kernel)
        assert done == {"w1": 10, "w2": 100, "w3": 60, "w4": 110}
        assert kernel.stats.steals == 1
        # Without the steal, w4 would wait for cpu1: finish at t=150.
        assert kernel.clock.now == 110

    def test_per_cpu_busy_ticks_accounted(self):
        kernel = Kernel(costs=FREE, num_cpus=2)
        domain = kernel.cpu_scheduler.default
        grants(kernel, {}, *((i, 50) for i in range(4)))
        run_checking_sched(kernel)
        assert kernel.stats.cpu == {"cpu0": 100, "cpu1": 100}
        assert kernel.stats.snapshot()["cpu.cpu0"] == 100
        assert domain.utilization(kernel.clock.now) == pytest.approx(1.0)


class TestNodeDomains:
    def test_load_never_balances_across_nodes(self):
        from repro.net import Network

        kernel = Kernel(costs=FREE)
        net = Network(kernel)
        left = net.add_node("left", cpus=1)
        right = net.add_node("right", cpus=1)
        done = {}
        # Pile three grants on `left` while `right` idles: were domains
        # shared, the idle right CPU would absorb the backlog.
        grants(kernel, done, ("l0", 100), ("l1", 100), ("l2", 100),
               spawn=left.spawn)
        grants(kernel, done, ("r0", 10), spawn=right.spawn)
        run_checking_sched(kernel)
        assert done == {"l0": 100, "l1": 200, "l2": 300, "r0": 10}
        assert kernel.stats.steals == 0
        assert kernel.stats.migrations == 0
        assert kernel.stats.cpu == {"left.cpu0": 300, "right.cpu0": 10}

    def test_node_processes_contend_on_node_domain(self):
        from repro.kernel import FREE
        from repro.net import Network

        kernel = Kernel(costs=FREE)
        net = Network(kernel)
        node = net.add_node("server", cpus=1)

        def worker():
            yield Charge(100)

        node.spawn(worker)
        node.spawn(worker)
        run_checking_sched(kernel)
        # One CPU on the node: the two charges serialize.
        assert kernel.clock.now == 200
        assert kernel.cpu_scheduler.domain("server").busy_ticks == 200

    def test_queue_depth_reads_node_domain(self):
        from repro.net import Network

        kernel = Kernel(costs=FREE)
        net = Network(kernel)
        node = net.add_node("server", cpus=1)
        grants(kernel, {}, ("running", 100), ("queued", 70), spawn=node.spawn)
        kernel.run(until=0)
        assert kernel.cpu_scheduler.queue_depth(node) == 1
        assert kernel.cpu_scheduler.queue_depth("server") == 1
        assert kernel.cpu_scheduler.queue_depth() == 0  # default domain
        run_checking_sched(kernel)
        assert kernel.cpu_scheduler.queue_depth(node) == 0

    def test_duplicate_domain_rejected(self):
        kernel = Kernel()
        kernel.cpu_scheduler.add_domain("n", 2)
        with pytest.raises(KernelError):
            kernel.cpu_scheduler.add_domain("n", 2)


class TestBalancer:
    def test_balancer_equalizes_uneven_queues(self):
        # Queue 4 long grants while both CPUs are pinned busy, then let
        # the balancer run (every 50 ticks while anything is queued).
        kernel = Kernel(costs=FREE, num_cpus=2)
        ran = {}
        grants(kernel, ran, ("pin0", 1000), ("pin1", 1000),
               *((i, 100) for i in range(4)))
        run_checking_sched(kernel)
        assert kernel.stats.balance_runs > 0
        assert len(ran) == 6
        # Balanced 2+2 behind the pins: everything ends at 1000+200.
        assert kernel.clock.now == 1200

    def test_balancer_never_inflates_quiet_runs(self):
        # A run whose queues drain must not leave a pending balance
        # event that drags the clock forward after the last real event.
        kernel = Kernel(costs=FREE, num_cpus=2)
        grants(kernel, {}, *((i, 10) for i in range(3)))
        run_checking_sched(kernel)
        assert kernel.clock.now == 20


class TestPoolOnSmpNode:
    def test_shared_pool_of_4_on_a_4_cpu_node(self):
        """``pool_smp``'s shape (perflab): pool bodies and the manager
        contend on the node's domain; the clients run unbounded."""
        from repro.core import PoolConfig
        from repro.kernel.costs import CostModel
        from repro.net import Network
        from repro.stdlib import Dictionary

        kernel = Kernel(
            costs=CostModel(process_create=300, lwp_create=5, context_switch=1)
        )
        node = Network(kernel).add_node("server", cpus=4)
        entries = {f"w{i}": f"meaning-of-w{i}" for i in range(32)}
        dictionary = node.place(Dictionary(
            kernel, name="dict", entries=entries, search_max=16, search_work=30,
            combining=False, pool=PoolConfig("shared", size=4),
        ))
        wrong = []

        def client(c):
            for i in range(6):
                word = f"w{(7 * c + 5 * i) % 32}"
                if (yield dictionary.search(word)) != entries[word]:
                    wrong.append(word)  # pragma: no cover

        for c in range(8):
            kernel.spawn(client, c, name=f"client{c}")
        run_checking_sched(kernel)
        assert not wrong
        stats = kernel.stats
        # Recorded while a grant's end was a posted closure.
        assert (kernel.clock.now, stats.resumptions) == (463, 345)
        assert (stats.migrations, stats.steals, stats.stale_events) == (14, 36, 50)
        assert stats.cpu == {
            "server.cpu0": 457, "server.cpu1": 453,
            "server.cpu2": 428, "server.cpu3": 432,
        }
        assert kernel.cpu_scheduler.domain("server").peak_queue == 1


class TestKernelApi:
    def test_num_cpus_sizes_the_default_domain(self):
        assert Kernel(num_cpus=3).cpu_scheduler.default.count == 3
        assert Kernel().cpu_scheduler.default is None

    def test_bad_cpu_count_rejected(self):
        with pytest.raises(KernelError):
            SmpScheduler(Kernel(), 0)

    def test_migrations_counted(self):
        kernel = Kernel(num_cpus=2)

        def worker():
            for _ in range(4):
                yield Charge(10)

        kernel.spawn(worker)
        kernel.spawn(worker)
        kernel.spawn(worker)
        kernel.run()
        # 3 runnable processes on 2 CPUs must migrate at least once.
        assert kernel.stats.migrations > 0

    def test_utilization_gauge_registered(self):
        kernel = Kernel(costs=FREE, num_cpus=2)
        grants(kernel, {}, ("only", 10))
        kernel.run()
        assert kernel.metrics.value("cpu.util") == pytest.approx(0.5)
