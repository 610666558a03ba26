"""Retry budgets and circuit breakers: the aggregate-retry guards."""

import pytest

from repro.errors import AdmissionError, DeadlineExceeded, RemoteCallError
from repro.faults import (
    CircuitBreaker,
    ExponentialBackoff,
    FaultPlan,
    FixedBackoff,
    RetryBudget,
    install,
    retry,
    shared_budget,
)
from repro.kernel import Delay, Kernel
from repro.kernel.costs import FREE
from repro.net import ring
from repro.stdlib import Dictionary


def scenario(plan, **dict_kwargs):
    kernel = Kernel(costs=FREE, seed=0, trace=True)
    net = ring(kernel, 4)
    dict_kwargs.setdefault("entries", {"a": 42})
    dict_kwargs.setdefault("search_work", 0)
    d = net.node("n1").place(Dictionary(kernel, name="d", **dict_kwargs))
    runtime = install(kernel, net, plan)
    return kernel, net, d, runtime


class TestRetryBudget:
    def test_token_arithmetic(self):
        budget = RetryBudget(capacity=2.0, fill_ratio=0.5)
        assert budget.tokens == 2.0  # starts full
        assert budget.try_withdraw() and budget.try_withdraw()
        assert not budget.try_withdraw()  # dry
        assert budget.denials == 1
        budget.deposit()  # +0.5 — still below one whole token
        assert not budget.try_withdraw()
        budget.deposit()
        assert budget.try_withdraw()
        assert (budget.deposits, budget.withdrawals) == (2, 3)

    def test_deposits_clamp_at_capacity(self):
        budget = RetryBudget(capacity=1.0, fill_ratio=1.0)
        for _ in range(5):
            budget.deposit()
        assert budget.tokens == 1.0

    def test_validation(self):
        with pytest.raises(ValueError, match="capacity"):
            RetryBudget(capacity=0.5)
        with pytest.raises(ValueError, match="fill_ratio"):
            RetryBudget(fill_ratio=0.0)

    def test_shared_budget_pools_per_caller_object_pair(self):
        kernel, net, d, _ = scenario(FaultPlan())
        a = shared_budget(kernel, "clients", d)
        b = shared_budget(kernel, "clients", d)
        c = shared_budget(kernel, "batch", d)
        assert a is b  # same (caller, object) → same bucket
        assert a is not c
        a.try_withdraw()
        assert b.withdrawals == 1

    def test_dry_budget_turns_retry_into_admission_error(self):
        # Node never restarts; budget allows exactly one retry, then the
        # second re-attempt is refused up front with reason=retry-budget
        # (NOT retry-exhausted: the policy had attempts left).
        kernel, net, d, _ = scenario(
            FaultPlan(detection_delay=10).crash_node("n1", at=0)
        )
        budget = RetryBudget(capacity=1.0, fill_ratio=0.1)
        outcome = []

        def client():
            yield Delay(5)
            try:
                yield from retry(
                    lambda: d.search("a", timeout=50),
                    FixedBackoff(delay=20, max_attempts=10),
                    budget=budget,
                )
            except AdmissionError as exc:
                outcome.append(exc)

        net.node("n0").spawn(client, name="client")
        kernel.run()
        assert len(outcome) == 1
        assert outcome[0].reason == "retry-budget"
        assert budget.withdrawals == 1 and budget.denials == 1
        assert kernel.metrics.value("retry.attempts") == 1
        assert kernel.metrics.value("retry.budget_denied") == 1
        assert kernel.metrics.value("retry.exhausted") == 0

    def test_healthy_traffic_never_touches_the_budget(self):
        kernel, net, d, _ = scenario(FaultPlan())
        budget = RetryBudget(capacity=5.0, fill_ratio=0.1)

        def client():
            for _ in range(3):
                value = yield from retry(
                    lambda: d.search("a", timeout=50),
                    FixedBackoff(delay=20, max_attempts=3),
                    budget=budget,
                )
                assert value == 42

        net.node("n0").spawn(client, name="client")
        kernel.run()
        assert budget.deposits == 3  # one per logical request
        assert budget.withdrawals == 0 and budget.denials == 0
        assert budget.tokens == 5.0  # clamped at capacity

    def test_unbounded_policy_drains_budget_not_forever(self):
        # max_attempts=None would loop forever against a dead node; the
        # budget is the only bound, and it terminates the run.
        kernel, net, d, _ = scenario(
            FaultPlan(detection_delay=10).crash_node("n1", at=0)
        )
        budget = RetryBudget(capacity=3.0, fill_ratio=0.1)
        outcome = []

        def client():
            yield Delay(5)
            try:
                yield from retry(
                    lambda: d.search("a", timeout=50),
                    FixedBackoff(delay=20, max_attempts=None),
                    budget=budget,
                )
            except AdmissionError as exc:
                outcome.append(exc.reason)

        net.node("n0").spawn(client, name="client")
        kernel.run()
        assert outcome == ["retry-budget"]
        assert budget.withdrawals == 3  # capacity spent, then refusal

    def test_unbounded_policies_describe_and_yield_forever(self):
        import itertools
        import random

        fixed = FixedBackoff(delay=7, max_attempts=None)
        expo = ExponentialBackoff(base=2, max_delay=50, max_attempts=None)
        assert "inf" in fixed.describe() and "inf" in expo.describe()
        head = list(itertools.islice(fixed.delays(random.Random(0)), 100))
        assert head == [7] * 100
        capped = list(itertools.islice(expo.delays(random.Random(0)), 20))
        assert capped[-1] == 50  # max_delay caps the unbounded tail


class TestCircuitBreaker:
    def breaker(self, **kwargs):
        kernel = Kernel(costs=FREE, seed=0, trace=True)
        kwargs.setdefault("window", 100)
        kwargs.setdefault("min_calls", 4)
        kwargs.setdefault("failure_threshold", 0.5)
        kwargs.setdefault("cooldown", 50)
        return kernel, CircuitBreaker(kernel, **kwargs)

    def test_opens_at_failure_threshold(self):
        kernel, breaker = self.breaker()
        for ok in (True, False, True, False):  # 2/4 failures = threshold
            assert breaker.allow()
            breaker.record(ok)
        assert breaker.state == CircuitBreaker.OPEN
        assert not breaker.allow()
        assert breaker.transitions == [(0, "closed", "open")]
        assert kernel.metrics.value("breaker.transitions") == 1

    def test_needs_min_calls_before_opening(self):
        kernel, breaker = self.breaker(min_calls=10)
        for _ in range(9):
            breaker.record(False)  # 100% failures but too few samples
        assert breaker.state == CircuitBreaker.CLOSED

    def test_window_forgets_old_failures(self):
        kernel, breaker = self.breaker(window=30, min_calls=2)
        breaker.record(False)
        kernel.clock.advance_to(40)  # the failure ages out of the window
        breaker.record(False)
        assert breaker.state == CircuitBreaker.CLOSED  # only 1 in window

    def test_half_open_probe_is_singular(self):
        kernel, breaker = self.breaker(min_calls=2, cooldown=50)
        breaker.record(False)
        breaker.record(False)
        assert breaker.state == CircuitBreaker.OPEN
        kernel.clock.advance_to(60)  # past the cooldown
        assert breaker.allow()  # the probe
        assert breaker.state == CircuitBreaker.HALF_OPEN
        assert not breaker.allow()  # concurrent attempts refused
        breaker.record(True)  # probe succeeds
        assert breaker.state == CircuitBreaker.CLOSED
        assert breaker.allow()
        assert [(f, t) for _, f, t in breaker.transitions] == [
            ("closed", "open"),
            ("open", "half-open"),
            ("half-open", "closed"),
        ]

    def test_failed_probe_reopens_for_full_cooldown(self):
        kernel, breaker = self.breaker(min_calls=2, cooldown=50)
        breaker.record(False)
        breaker.record(False)
        kernel.clock.advance_to(60)
        assert breaker.allow()
        breaker.record(False)  # probe fails
        assert breaker.state == CircuitBreaker.OPEN
        kernel.clock.advance_to(100)  # 40 < cooldown since reopen at 60
        assert not breaker.allow()
        kernel.clock.advance_to(110)
        assert breaker.allow()  # next probe

    def test_probe_success_clears_the_window(self):
        # After recovery, stale pre-outage failures must not count against
        # fresh post-recovery traffic: with the window cleared, a healthy
        # sample leaves the breaker closed (without the clear, 2 old
        # failures / 3 calls = 0.66 would instantly re-open it).
        kernel, breaker = self.breaker(min_calls=2, cooldown=50, window=10**6)
        breaker.record(False)
        breaker.record(False)
        kernel.clock.advance_to(60)
        assert breaker.allow()
        breaker.record(True)  # probe succeeds → closed, window cleared
        breaker.record(True)
        assert breaker.state == CircuitBreaker.CLOSED
        assert len(breaker._events) == 1  # only the post-recovery sample

    def test_open_breaker_refuses_before_issuing_the_call(self):
        # Trip the breaker via real failures, then observe that further
        # retry() invocations raise AdmissionError(reason=breaker-open)
        # without sending anything (no new call events in the trace).
        kernel, net, d, _ = scenario(
            FaultPlan(detection_delay=10).crash_node("n1", at=0)
        )
        breaker = CircuitBreaker(
            kernel, window=10**6, min_calls=2, failure_threshold=0.5, cooldown=10**6
        )
        reasons = []

        def client():
            yield Delay(5)
            for _ in range(3):
                try:
                    yield from retry(
                        lambda: d.search("a", timeout=50),
                        FixedBackoff(delay=20, max_attempts=2),
                        breaker=breaker,
                    )
                except RemoteCallError:
                    reasons.append("remote")
                except AdmissionError as exc:
                    reasons.append(exc.reason)

        net.node("n0").spawn(client, name="client")
        kernel.run()
        assert reasons == ["remote", "breaker-open", "breaker-open"]
        assert breaker.state == CircuitBreaker.OPEN
        assert kernel.metrics.value("breaker.refused") == 2

    def test_transition_log_is_replay_identical(self):
        # Two same-seed runs through a crash/heal cycle: the breaker's
        # (tick, from, to) log is byte-identical.
        def run():
            kernel, net, d, _ = scenario(
                FaultPlan(detection_delay=10).crash_node("n1", at=20, restart_at=200)
            )
            kernel.post(210, d.restart)
            breaker = CircuitBreaker(
                kernel, window=500, min_calls=2, failure_threshold=0.5, cooldown=100
            )

            def client():
                yield Delay(30)
                for _ in range(8):
                    try:
                        yield from retry(
                            lambda: d.search("a", timeout=40),
                            FixedBackoff(delay=30, max_attempts=2),
                            breaker=breaker,
                        )
                    except (RemoteCallError, AdmissionError):
                        yield Delay(60)

            net.node("n0").spawn(client, name="client")
            kernel.run()
            return breaker.transitions

        first, second = run(), run()
        assert first == second
        states = [(f, t) for _, f, t in first]
        assert ("closed", "open") in states  # tripped during the outage
        assert ("half-open", "closed") in states  # recovered after heal

    def test_validation(self):
        kernel = Kernel(costs=FREE)
        with pytest.raises(ValueError, match="window"):
            CircuitBreaker(kernel, window=0)
        with pytest.raises(ValueError, match="min_calls"):
            CircuitBreaker(kernel, min_calls=0)
        with pytest.raises(ValueError, match="failure_threshold"):
            CircuitBreaker(kernel, failure_threshold=1.5)
        with pytest.raises(ValueError, match="cooldown"):
            CircuitBreaker(kernel, cooldown=0)


class TestDeadlineTerminatesRetry:
    def test_deadline_exceeded_is_not_retried(self):
        # Per-hop timeouts are retryable; the end-to-end deadline is not.
        # A deadline shorter than the crash window expires the call, and
        # retry() re-raises immediately — no backoff, no second attempt.
        kernel, net, d, _ = scenario(
            FaultPlan(detection_delay=10).crash_node("n1", at=0)
        )
        outcome = []

        def client():
            yield Delay(5)
            try:
                yield from retry(
                    lambda: d.search("a", timeout=200, deadline=8),
                    FixedBackoff(delay=20, max_attempts=5),
                )
            except DeadlineExceeded as exc:
                outcome.append((exc.deadline_at, kernel.clock.now))

        net.node("n0").spawn(client, name="client")
        kernel.run()
        assert outcome == [(13, 13)]  # issued at 5 + deadline 8
        assert kernel.metrics.value("retry.attempts") == 0

    def test_deadline_failure_still_feeds_the_breaker(self):
        kernel, net, d, _ = scenario(
            FaultPlan(detection_delay=10).crash_node("n1", at=0)
        )
        breaker = CircuitBreaker(
            kernel, window=10**6, min_calls=2, failure_threshold=0.5, cooldown=10**6
        )
        reasons = []

        def client():
            yield Delay(5)
            for _ in range(3):
                try:
                    yield from retry(
                        lambda: d.search("a", timeout=200, deadline=8),
                        FixedBackoff(delay=20, max_attempts=5),
                        breaker=breaker,
                    )
                except DeadlineExceeded:
                    reasons.append("deadline")
                except AdmissionError as exc:
                    reasons.append(exc.reason)

        net.node("n0").spawn(client, name="client")
        kernel.run()
        assert reasons == ["deadline", "deadline", "breaker-open"]
