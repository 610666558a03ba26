"""Recovery layer: retry combinators and the Supervisor object."""

import pytest

from repro.errors import RemoteCallError
from repro.faults import ExponentialBackoff, FaultPlan, FixedBackoff, install, retry
from repro.kernel import Delay, Kernel
from repro.kernel.costs import FREE
from repro.net import ring
from repro.stdlib import Dictionary, Supervisor


def scenario(plan, **dict_kwargs):
    kernel = Kernel(costs=FREE, seed=0, trace=True)
    net = ring(kernel, 4)
    dict_kwargs.setdefault("entries", {"a": 42})
    dict_kwargs.setdefault("search_work", 0)
    d = net.node("n1").place(Dictionary(kernel, name="d", **dict_kwargs))
    runtime = install(kernel, net, plan)
    return kernel, net, d, runtime


#: What :meth:`TestRetry.test_jittered_backoffs_are_pinned` read when the
#: RNG was built before the first attempt: (tick, backoff) per retry.
PINNED_RETRIES = [(40, 39), (89, 61), (160, 108), (278, 204)]
PINNED_END = (42, 484)


class TestRetry:
    def test_fixed_backoff_outlasts_crash_window(self):
        # Node down for [20, 200); unsupervised, so the object needs an
        # explicit restart, after which a persistent retrier succeeds.
        kernel, net, d, _ = scenario(
            FaultPlan(detection_delay=10).crash_node("n1", at=20, restart_at=200)
        )
        kernel.post(210, d.restart)
        results = []

        def client():
            yield Delay(30)  # issue while the node is down
            value = yield from retry(
                lambda: d.search("a", timeout=50),
                FixedBackoff(delay=60, max_attempts=6),
            )
            results.append((value, kernel.clock.now))

        net.node("n0").spawn(client, name="client")
        kernel.run()
        assert len(results) == 1
        value, when = results[0]
        assert value == 42
        assert when > 200  # could only succeed after the restart
        assert kernel.metrics.value("retry.attempts") >= 1
        assert kernel.metrics.value("retry.successes") == 1
        assert kernel.trace.count("retry") == kernel.metrics.value("retry.attempts")

    def test_exponential_backoff_beats_lossy_link(self):
        kernel, net, d, _ = scenario(
            FaultPlan(seed=3).drop_messages(0.5, dst="n1"),
            search_work=20,
        )

        def client():
            return (
                yield from retry(
                    lambda: d.search("a", timeout=80),
                    ExponentialBackoff(base=20, max_attempts=8, jitter=10),
                    seed=7,
                )
            )

        proc = net.node("n0").spawn(client, name="client")
        kernel.run()
        assert proc.result == 42

    def test_exhaustion_raises_last_error(self):
        kernel, net, d, _ = scenario(
            FaultPlan(detection_delay=10).crash_node("n1", at=0)  # never restarts
        )
        outcome = []

        def client():
            yield Delay(5)
            try:
                yield from retry(
                    lambda: d.search("a", timeout=50),
                    FixedBackoff(delay=20, max_attempts=3),
                )
            except RemoteCallError as exc:
                outcome.append(exc)

        net.node("n0").spawn(client, name="client")
        kernel.run()
        assert len(outcome) == 1
        assert kernel.metrics.value("retry.exhausted") == 1
        assert kernel.metrics.value("retry.attempts") == 2  # 3 attempts = 2 retries

    def test_non_remote_errors_propagate_immediately(self):
        from repro.core import AlpsObject, entry

        class Flaky(AlpsObject):
            @entry(returns=1)
            def boom(self):
                raise KeyError("nope")

        kernel, net, d, _ = scenario(FaultPlan())
        flaky = net.node("n2").place(Flaky(kernel, name="flaky"))
        outcome = []

        def client():
            try:
                yield from retry(
                    lambda: flaky.boom(timeout=50),
                    FixedBackoff(delay=20, max_attempts=5),
                )
            except KeyError as exc:
                outcome.append(exc)

        net.node("n0").spawn(client, name="client")
        kernel.run()
        assert len(outcome) == 1
        assert kernel.metrics.value("retry.attempts") == 0

    def test_max_attempts_one_means_no_retry(self):
        # Degenerate policy: exactly the bare call — first failure is
        # final, no backoff sleep, no retry accounting.
        kernel, net, d, _ = scenario(
            FaultPlan(detection_delay=10).crash_node("n1", at=0)
        )
        outcome = []

        def client():
            yield Delay(5)
            try:
                yield from retry(
                    lambda: d.search("a", timeout=50),
                    FixedBackoff(delay=20, max_attempts=1),
                )
            except RemoteCallError:
                outcome.append(kernel.clock.now)

        net.node("n0").spawn(client, name="client")
        kernel.run()
        assert outcome == [15]  # issue at 5 + detection_delay 10, no backoff
        assert kernel.metrics.value("retry.attempts") == 0
        assert kernel.metrics.value("retry.exhausted") == 1

    def test_jittered_schedule_is_identical_across_runs(self):
        # Same retry seed, two full runs: every retry lands on the same
        # tick, so the whole recovery timeline replays exactly.
        def run():
            kernel, net, d, _ = scenario(
                FaultPlan(detection_delay=10).crash_node("n1", at=20, restart_at=300)
            )
            kernel.post(310, d.restart)
            done = []

            def client():
                yield Delay(30)
                value = yield from retry(
                    lambda: d.search("a", timeout=40),
                    ExponentialBackoff(base=25, max_attempts=8, jitter=15),
                    seed=9,
                )
                done.append((value, kernel.clock.now))

            net.node("n0").spawn(client, name="client")
            kernel.run()
            retries = [e.time for e in kernel.trace if e.kind == "retry"]
            return done, retries

        first, second = run(), run()
        assert first == second
        assert first[0][0][0] == 42
        assert len(first[1]) >= 2  # the jittered schedule was exercised

    def test_jittered_backoffs_are_pinned(self):
        """The RNG is built at the first failure, not at the first call:
        the backoffs it draws (and when each retry lands) are those of a
        generator seeded before the first attempt."""
        kernel, net, d, _ = scenario(
            FaultPlan(detection_delay=10).crash_node("n1", at=20, restart_at=300)
        )
        kernel.post(310, d.restart)

        def client():
            yield Delay(30)
            return (
                yield from retry(
                    lambda: d.search("a", timeout=40),
                    ExponentialBackoff(base=25, max_attempts=8, jitter=15),
                    seed=9,
                )
            )

        proc = net.node("n0").spawn(client, name="client")
        kernel.run()
        retries = [(e.time, e.detail["backoff"]) for e in kernel.trace if e.kind == "retry"]
        assert retries == PINNED_RETRIES
        assert (proc.result, kernel.clock.now) == PINNED_END

    def test_first_attempt_success_builds_no_rng(self, monkeypatch):
        import importlib
        import random
        from types import SimpleNamespace

        built = []

        class CountingRandom(random.Random):
            def __init__(self, seed):
                built.append(seed)
                super().__init__(seed)

        # The module, not the ``retry`` function the package re-exports.
        retry_module = importlib.import_module("repro.faults.retry")
        monkeypatch.setattr(retry_module, "random", SimpleNamespace(Random=CountingRandom))
        kernel, net, d, _ = scenario(FaultPlan())

        def client():
            return (
                yield from retry(
                    lambda: d.search("a", timeout=50),
                    ExponentialBackoff(base=10, max_attempts=3, jitter=5),
                    seed=7,
                )
            )

        proc = net.node("n0").spawn(client, name="client")
        kernel.run()
        assert proc.result == 42 and built == []
        # A failed attempt does build it, once, from the loop's seed.
        kernel, net, d, _ = scenario(
            FaultPlan(detection_delay=10).crash_node("n1", at=0)
        )

        def failing_client():
            with pytest.raises(RemoteCallError):
                yield from client()

        net.node("n0").spawn(failing_client, name="client")
        kernel.run()
        assert built == [7]

    def test_backoff_schedule_is_seeded(self):
        policy = ExponentialBackoff(base=10, max_attempts=6, jitter=20)
        import random

        a = list(policy.delays(random.Random(4)))
        b = list(policy.delays(random.Random(4)))
        c = list(policy.delays(random.Random(5)))
        assert a == b
        assert a != c
        bases = [10, 20, 40, 80, 160]
        assert all(base <= d <= base + 20 for base, d in zip(bases, a))


class TestSupervisor:
    def failover(self, reaction_delay=0, **plan_kwargs):
        kernel, net, d, runtime = scenario(
            FaultPlan(detection_delay=10).crash_node("n1", at=20, restart_at=200),
            search_work=30,
        )
        sup = net.node("n3").place(
            Supervisor(kernel, name="sup", faults=runtime, reaction_delay=reaction_delay)
        )
        sup.watch(d)
        return kernel, net, d, sup

    def test_interrupted_caller_gets_result_not_error(self):
        kernel, net, d, sup = self.failover()
        results = []

        def client():
            yield Delay(10)  # call is mid-flight when n1 dies at t=20
            results.append(((yield d.search("a")), kernel.clock.now))

        net.node("n0").spawn(client, name="client")
        kernel.run()
        assert len(results) == 1
        value, when = results[0]
        assert value == 42
        assert when > 200  # completed only after the restart
        assert sup.restarts == [(200, "d", 1)]
        assert kernel.metrics.value("supervisor.restarts") == 1
        assert kernel.metrics.value("faults.requeued_calls") == 1

    def test_unsupervised_object_fails_its_callers(self):
        kernel, net, d, runtime = scenario(
            FaultPlan(detection_delay=10).crash_node("n1", at=20, restart_at=200),
            search_work=30,
        )
        outcome = []

        def client():
            yield Delay(10)
            try:
                yield d.search("a")
            except RemoteCallError:
                outcome.append(kernel.clock.now)

        net.node("n0").spawn(client, name="client")
        kernel.run()
        assert outcome == [30]  # crash at 20 + detection_delay 10

    def test_reaction_delay_postpones_recovery(self):
        kernel, net, d, sup = self.failover(reaction_delay=40)
        results = []

        def client():
            yield Delay(10)
            results.append(((yield d.search("a")), kernel.clock.now))

        net.node("n0").spawn(client, name="client")
        kernel.run()
        assert results and results[0][0] == 42
        assert sup.restarts[0][0] == 240  # restart_at 200 + reaction 40

    def test_shared_data_survives_restart(self):
        # Shared data (the entries mapping) models stable storage: a word
        # added before the crash is still searchable after the restart.
        kernel, net, d, sup = self.failover()
        d.entries["b"] = 7
        results = []

        def reader():
            yield Delay(250)  # well past the recovery
            results.append((yield d.search("b")))

        net.node("n2").spawn(reader, name="reader")
        kernel.run()
        assert results == [7]

    def test_report_entry_exposes_restarts(self):
        kernel, net, d, sup = self.failover()
        reports = []

        def client():
            yield Delay(10)
            yield d.search("a")
            reports.append((yield sup.report()))

        net.node("n0").spawn(client, name="client")
        kernel.run()
        assert reports == [[(200, "d", 1)]]

    def test_multiple_interrupted_callers_all_recover(self):
        kernel, net, d, sup = self.failover()
        results = []

        def client(key, delay):
            yield Delay(delay)
            results.append((yield d.search(key)))

        d.entries["b"] = 7
        net.node("n0").spawn(client, "a", 5, name="c0")
        net.node("n2").spawn(client, "b", 10, name="c1")
        kernel.run()
        assert sorted(results, key=str) == [42, 7]
        assert sup.restarts[0][2] == 2  # both calls re-queued

    def test_supervisor_requires_fault_runtime(self):
        kernel = Kernel(costs=FREE)
        with pytest.raises(TypeError):
            Supervisor(kernel, name="sup")

    def test_watch_rejects_unplaced_object(self):
        from repro.errors import ObjectModelError
        from repro.stdlib import Dictionary

        kernel, net, d, runtime = scenario(FaultPlan())
        sup = net.node("n3").place(Supervisor(kernel, name="sup", faults=runtime))
        stray = Dictionary(kernel, name="stray", entries={})
        with pytest.raises(ObjectModelError, match="place it on a node"):
            sup.watch(stray)

    def test_watch_rejects_double_watch_and_name_clash(self):
        from repro.errors import ObjectModelError
        from repro.stdlib import Dictionary

        kernel, net, d, runtime = scenario(FaultPlan())
        sup = net.node("n3").place(Supervisor(kernel, name="sup", faults=runtime))
        sup.watch(d)
        with pytest.raises(ObjectModelError, match="already watch"):
            sup.watch(d)
        impostor = net.node("n2").place(Dictionary(kernel, name="d", entries={}))
        with pytest.raises(ObjectModelError, match="name"):
            sup.watch(impostor)
