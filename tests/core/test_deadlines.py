"""Edge cases of end-to-end deadlines and the half-open probe race.

Three corners the E15 storm bench never pins exactly:

* a deadline that lands on the very tick the manager could accept the
  call — expiry is inclusive, so the sweep arm wins;
* nested deadline inheritance — a body serving a deadlined call cannot
  grant its callees more time than its own caller has left, whichever
  of the explicit and inherited budgets is smaller;
* a circuit breaker whose half-open probe is interrupted by a crash —
  the reopen/re-probe/close sequence must be replay-identical.
"""

import pytest

from repro.core import AlpsObject, entry
from repro.errors import AdmissionError, DeadlineExceeded, RemoteCallError
from repro.faults import CircuitBreaker, FaultPlan, FixedBackoff, install, retry
from repro.kernel import Delay, Kernel
from repro.kernel.costs import FREE
from repro.kernel.syscalls import Charge
from repro.net import ring
from repro.stdlib import Dictionary, GatedKVStore


@pytest.fixture
def kernel():
    return Kernel(costs=FREE, seed=0)


def serial_store(kernel, **kwargs):
    """A GatedKVStore whose single slot serializes bodies exactly."""
    kwargs.setdefault("write_work", 10)
    kwargs.setdefault("request_max", 1)
    kwargs.setdefault("queue_cap", 4)
    return GatedKVStore(kernel, name="kv", **kwargs)


def idle_polls():
    """Guard polls of a ``serial_store`` manager that is never woken."""
    quiet = Kernel(costs=FREE, seed=0)
    serial_store(quiet)
    quiet.run()
    return quiet.stats.guard_polls


class Relay(AlpsObject):
    """Spends its caller's whole budget, then issues a nested call."""

    def setup(self, store):
        self.store = store
        self.seen = None

    @entry(returns=1)
    def run(self):
        yield Charge(10)
        try:
            yield self.store.put("k", 1)
        except DeadlineExceeded as exc:
            self.seen = (exc.deadline_at, self.kernel.clock.now)
        return self.seen


class TestDeadlineAtExactAcceptTick:
    """``deadline_expired`` is inclusive: t == deadline_at is dead."""

    def run_pair(self, kernel, store, deadline):
        """Client A occupies the server 0..10; B's fate depends on
        ``deadline`` relative to the t=10 tick at which the manager
        could first accept it."""
        outcome = {}

        def client_a():
            outcome["a"] = yield store.put("a", 1)

        def client_b():
            try:
                outcome["b"] = yield store.put("b", 2, deadline=deadline)
            except DeadlineExceeded as exc:
                outcome["b"] = ("deadline", exc.deadline_at, kernel.clock.now)
            except AdmissionError as exc:
                outcome["b"] = ("shed", exc.reason, kernel.clock.now)

        kernel.spawn(client_a, name="a")
        kernel.spawn(client_b, name="b")
        kernel.run()
        return outcome

    def test_deadline_on_the_accept_tick_is_swept(self, kernel):
        # B's deadline is exactly t=10, the tick A's body completes and
        # the manager selects again.  Inclusive expiry: B is dead on
        # that tick, the sweep arm takes it before the accept arm, and
        # B's write never happens.
        store = serial_store(kernel)
        outcome = self.run_pair(kernel, store, deadline=10)
        assert outcome["a"] == 1
        assert outcome["b"] == ("deadline", 10, 10)
        assert "b" not in store.data
        assert kernel.metrics.value("admission.swept") == 1
        assert kernel.metrics.value("deadline.expired_queued") == 1

    def test_budget_spent_before_issue_is_not_queued(self, kernel):
        # The relay's body inherits its caller's deadline (t=5), burns 10
        # ticks, then issues a nested put: that call is failed at issue
        # and never enters #P, so it is not "expired while queued" and
        # must not wake the store's manager for a sweep of nothing.
        store = serial_store(kernel)
        relay = Relay(kernel, name="relay", store=store)
        caught = []

        def client():
            try:
                yield relay.run(deadline=5)
            except DeadlineExceeded:
                caught.append(kernel.clock.now)

        kernel.spawn(client, name="client")
        kernel.run()
        assert caught == [5] and relay.seen == (5, 10)
        assert kernel.stats.calls_issued == 1  # relay.run; the put never arrived
        assert kernel.metrics.value("deadline.expired") == 2
        assert kernel.metrics.value("deadline.expired_queued") == 0
        assert kernel.stats.guard_polls == idle_polls()

    def test_deadline_that_expires_on_the_wire_is_not_queued(self, kernel):
        # Two hops away, deadline=1: the budget runs out while the request
        # is still in the network.  Nothing is queued at t=1, so nobody is
        # woken; the corpse that arrives at t=2 is then swept as usual.
        net = ring(kernel, 4)
        store = serial_store(kernel)
        net.node("n2").place(store)
        caught = []

        def client():
            try:
                yield store.put("b", 2, deadline=1)
            except DeadlineExceeded:
                caught.append(kernel.clock.now)

        net.node("n0").spawn(client, name="client")
        kernel.run(until=1)
        assert caught == [1]
        assert kernel.metrics.value("deadline.expired") == 1
        assert kernel.metrics.value("deadline.expired_queued") == 0
        assert kernel.stats.guard_polls == idle_polls()
        kernel.run()
        assert kernel.metrics.value("admission.swept") == 1
        assert kernel.metrics.value("deadline.expired_queued") == 0
        assert "b" not in store.data

    def test_unmakeable_deadline_is_shed_not_served(self, kernel):
        # deadline=11: B is still alive at the t=10 accept tick, but the
        # predicted-wait arm knows better — A's body taught the EWMA
        # that a put takes 10 ticks and B has only 1 left, so serving it
        # would burn a body and still end in DeadlineExceeded.  Shed.
        store = serial_store(kernel)
        outcome = self.run_pair(kernel, store, deadline=11)
        assert outcome["b"] == ("shed", "predicted-wait", 10)
        assert "b" not in store.data
        assert kernel.metrics.value("admission.shed.predicted-wait") == 1

    def test_mid_service_expiry_still_applies_the_write(self, kernel):
        # A lone first call: no service EWMA exists yet, so admission
        # has no evidence to shed on and starts the body.  The deadline
        # expires mid-service: the caller is resumed with
        # DeadlineExceeded at t=5, but the admitted body runs to
        # completion and the write applies — the at-least-once corner
        # the docs call serve-and-discard.
        store = serial_store(kernel)
        outcome = {}

        def client():
            try:
                outcome["b"] = yield store.put("b", 2, deadline=5)
            except DeadlineExceeded as exc:
                outcome["b"] = ("deadline", exc.deadline_at, kernel.clock.now)

        kernel.spawn(client, name="b")
        kernel.run()
        assert outcome["b"] == ("deadline", 5, 5)
        assert store.data.get("b") == 2  # applied, but nobody was told
        assert kernel.metrics.value("admission.swept") == 0

    def test_deadline_with_slack_is_served(self, kernel):
        # deadline=21: accepted at t=10, served 10..20, finished with a
        # tick to spare.
        store = serial_store(kernel)
        outcome = self.run_pair(kernel, store, deadline=21)
        assert outcome["b"] == 2
        assert store.data.get("b") == 2
        assert kernel.metrics.value("deadline.expired") == 0


class Inner(AlpsObject):
    @entry(returns=1)
    def slow(self):
        yield Charge(100)
        return "done"


class Outer(AlpsObject):
    def setup(self, inner):
        self.inner = inner
        self.seen = None

    @entry(returns=1)
    def run(self, nested_deadline):
        # The nested call asks for its own budget; the effective
        # deadline is the smaller of that and what this body inherited.
        try:
            yield self.inner.slow(deadline=nested_deadline)
        except DeadlineExceeded as exc:
            self.seen = exc.deadline_at
        return self.seen


class TestNestedDeadlineInheritance:
    def test_inherited_budget_caps_a_larger_nested_deadline(self, kernel):
        # Outer is called with deadline=40; its body asks for 1000 more
        # ticks for the nested call.  Propagation wins: the nested call
        # expires at t=40, not t=1000.
        inner = Inner(kernel, name="inner")
        outer = Outer(kernel, name="outer", inner=inner)
        caught = []

        def client():
            try:
                yield outer.run(1000, deadline=40)
            except DeadlineExceeded:
                caught.append(kernel.clock.now)

        kernel.spawn(client, name="client")
        kernel.run()
        assert outer.seen == 40  # nested deadline_at == the inherited one
        assert caught == [40]  # the outer call itself also expired

    def test_smaller_explicit_nested_deadline_wins(self, kernel):
        # Outer has 1000 ticks; the body grants the nested call only 25.
        # The nested call expires at t=25 and the outer entry still
        # returns normally, well inside its own budget.
        inner = Inner(kernel, name="inner")
        outer = Outer(kernel, name="outer", inner=inner)
        results = []

        def client():
            results.append((yield outer.run(25, deadline=1000)))

        kernel.spawn(client, name="client")
        kernel.run()
        assert results == [25]
        assert outer.seen == 25


class TestHalfOpenProbeRacesCrash:
    def run_once(self):
        kernel = Kernel(costs=FREE, seed=0, trace=True)
        net = ring(kernel, 4)
        d = net.node("n1").place(
            Dictionary(kernel, name="d", entries={"a": 42}, search_work=30)
        )
        install(
            kernel,
            net,
            FaultPlan(detection_delay=5)
            .crash_node("n1", at=0, restart_at=30)
            # The second crash lands while the half-open probe (issued
            # ~t=50, 30 ticks of search work) is in flight.
            .crash_node("n1", at=60, restart_at=90),
        )
        kernel.post(31, d.restart)
        kernel.post(91, d.restart)
        breaker = CircuitBreaker(
            kernel, window=500, min_calls=2, failure_threshold=0.5, cooldown=25
        )
        results = []

        def client():
            for at in (0, 50, 100):
                if kernel.clock.now < at:
                    yield Delay(at - kernel.clock.now)
                try:
                    yield from retry(
                        lambda: d.search("a", timeout=200),
                        FixedBackoff(delay=10, max_attempts=2),
                        breaker=breaker,
                    )
                    results.append("ok")
                except RemoteCallError:
                    results.append("remote")
                except AdmissionError as exc:
                    results.append(exc.reason)

        net.node("n0").spawn(client, name="client")
        kernel.run()
        return results, list(breaker.transitions), breaker.state

    def test_probe_interrupted_by_crash_reopens_then_recovers(self):
        results, transitions, state = self.run_once()
        # Request 1: both attempts die against the dead node -> opens.
        # Request 2: half-open probe is killed by the second crash ->
        # reopen for a full cooldown, the retry is refused locally.
        # Request 3: fresh probe against the healed node -> closed.
        assert results == ["remote", "breaker-open", "ok"]
        assert [(f, t) for _, f, t in transitions] == [
            ("closed", "open"),
            ("open", "half-open"),
            ("half-open", "open"),
            ("open", "half-open"),
            ("half-open", "closed"),
        ]
        assert state == CircuitBreaker.CLOSED

    def test_race_is_replay_identical(self):
        # The interleaving of probe, crash, detection and cooldown is
        # entirely virtual-time: two runs agree tick for tick.
        first, second = self.run_once(), self.run_once()
        assert first == second
