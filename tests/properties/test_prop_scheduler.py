"""Property-based tests on kernel scheduling invariants."""

from hypothesis import given, settings, strategies as st

from repro.kernel import Charge, Delay, Kernel, Par
from repro.kernel.costs import FREE

from tests.helpers import run_checking_sched


@given(
    delays=st.lists(st.integers(min_value=0, max_value=100), min_size=1, max_size=10)
)
@settings(max_examples=40, deadline=None)
def test_parallel_delays_take_max(delays):
    kernel = Kernel(costs=FREE)

    def sleeper(n):
        yield Delay(n)

    def main():
        yield Par(*[lambda n=n: sleeper(n) for n in delays])

    kernel.run_process(main)
    assert kernel.clock.now == max(delays)


@given(
    work=st.lists(st.integers(min_value=0, max_value=50), min_size=1, max_size=8),
    cpus=st.integers(min_value=1, max_value=4),
)
@settings(max_examples=40, deadline=None)
def test_finite_cpu_time_bounds(work, cpus):
    """Makespan is bounded below by total/P and max, above by sum."""
    kernel = Kernel(costs=FREE, num_cpus=cpus)

    def worker(n):
        yield Charge(n)

    def main():
        yield Par(*[lambda n=n: worker(n) for n in work])

    kernel.run_process(main)
    total = sum(work)
    lower = max(max(work), -(-total // cpus))  # ceil div
    assert lower <= kernel.clock.now <= total


@given(
    priorities=st.lists(
        st.integers(min_value=0, max_value=5), min_size=2, max_size=8
    ),
    seed=st.integers(min_value=0, max_value=20),
)
@settings(max_examples=40, deadline=None)
def test_same_instant_dispatch_respects_priority(priorities, seed):
    kernel = Kernel(costs=FREE, seed=seed)
    order = []

    def proc(index, prio):
        order.append((prio, index))
        yield Delay(0)

    for index, prio in enumerate(priorities):
        kernel.spawn(proc, index, prio, priority=prio)
    kernel.run()
    # First dispatches follow priority; within a priority, FIFO.
    assert order == sorted(order, key=lambda pair: (pair[0], pair[1]))


@given(seed=st.integers(min_value=0, max_value=1000))
@settings(max_examples=20, deadline=None)
def test_deterministic_replay(seed):
    def run():
        kernel = Kernel(costs=FREE, seed=seed, arbitration="random")
        from repro.channels import Channel, Receive, Send

        ch = Channel()
        log = []

        def producer(tag):
            for i in range(3):
                yield Send(ch, (tag, i))
                yield Delay(1)

        def consumer():
            for _ in range(6):
                log.append((yield Receive(ch)))

        kernel.spawn(producer, "a")
        kernel.spawn(producer, "b")
        kernel.spawn(consumer)
        kernel.run()
        return log, kernel.clock.now, kernel.stats.snapshot()

    assert run() == run()


@given(
    grants=st.lists(
        st.tuples(
            st.sampled_from([10, 50, 100, 100, 1000]),  # priority
            st.integers(min_value=1, max_value=40),  # duration
            st.integers(min_value=0, max_value=15),  # gap since the last arrival
        ),
        min_size=1,
        max_size=24,
    ),
    cpus=st.integers(min_value=1, max_value=4),
)
@settings(max_examples=60, deadline=None)
def test_every_grant_completes_once_and_no_cpu_idles_beside_a_queue(grants, cpus):
    """Grants on both sides of the ``count`` fork, with the domain's
    counters checked against a scan (and work conservation with them)
    after every kernel event."""
    kernel = Kernel(costs=FREE, num_cpus=cpus)
    domain = kernel.cpu_scheduler.default
    completed = []

    def charger(index, arrival, duration):
        yield Delay(arrival)
        yield Charge(duration)
        completed.append(index)

    arrival = 0
    for index, (priority, duration, gap) in enumerate(grants):
        arrival += gap
        kernel.spawn(charger, index, arrival, duration, priority=priority)
    run_checking_sched(kernel)
    assert sorted(completed) == list(range(len(grants)))
    total = sum(duration for _priority, duration, _gap in grants)
    assert domain.busy_ticks == total == sum(kernel.stats.cpu.values())
    assert domain.queued == 0 and domain._free == cpus
    assert -(-total // cpus) <= kernel.clock.now <= arrival + total

