"""Recovery combinators: retry with backoff, retry budgets, circuit breaking.

Use from inside any process generator::

    result = yield from retry(
        lambda: store.get("k", timeout=60),
        ExponentialBackoff(base=20, max_attempts=5, jitter=10),
    )

Each attempt issues a *fresh* call (the factory is re-invoked), so timed
calls re-arm their deadline.  Only :class:`~repro.errors.RemoteCallError`
— timeouts, crash detection, partitions — triggers a retry; programming
errors propagate immediately, and :class:`~repro.errors.DeadlineExceeded`
is terminal (the end-to-end budget is spent, re-attempting cannot help).
Backoff delays are deterministic: jitter draws from a
``random.Random(seed)`` owned by the combinator, so the same seed replays
the same schedule.

Unbounded-in-aggregate retries are the raw material of retry storms: a
crash past the knee turns every timeout into fresh load.  Two guards cap
the aggregate (both pure functions of virtual time, replayable under
fixed seeds):

* a :class:`RetryBudget` — a token bucket shared per (caller, object)
  (:func:`shared_budget`) that earns a fraction of a token per first
  attempt and spends a whole token per retry, converting excess retries
  into an immediate :class:`~repro.errors.AdmissionError`;
* a :class:`CircuitBreaker` — a closed/open/half-open machine driven by
  the failure rate over a sliding virtual-time window; while open, every
  attempt is refused up front (again :class:`~repro.errors.AdmissionError`),
  and a single half-open probe decides recovery.

Semantics are at-least-once: a retry after a *response* loss re-executes
a body that already ran.  Entries retried this way should be idempotent
(or deduplicate by request id), exactly as with real RPC systems.
"""

from __future__ import annotations

import random
from collections import deque
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, Iterator

from ..errors import AdmissionError, DeadlineExceeded, RemoteCallError
from ..kernel.syscalls import Delay, Self

if TYPE_CHECKING:  # pragma: no cover
    from ..kernel.kernel import Kernel


class RetryPolicy:
    """Base class: a policy yields the delay before each re-attempt."""

    #: Total attempts (the first call plus the retries); ``None`` means
    #: unbounded — pair it with a :class:`RetryBudget` or the linter's
    #: ALP114 check will (rightly) complain.
    max_attempts: int | None = 1

    def delays(self, rng: random.Random) -> Iterator[int]:
        raise NotImplementedError

    def describe(self) -> str:
        return type(self).__name__


def _attempt_range(max_attempts: int | None) -> Iterator[int]:
    """Yield once per allowed *re*-attempt (forever when unbounded)."""
    if max_attempts is None:
        while True:
            yield 0
    else:
        yield from range(max_attempts - 1)


@dataclass(frozen=True)
class FixedBackoff(RetryPolicy):
    """Wait a constant ``delay`` between attempts."""

    delay: int = 10
    max_attempts: int | None = 3

    def delays(self, rng: random.Random) -> Iterator[int]:
        for _ in _attempt_range(self.max_attempts):
            yield self.delay

    def describe(self) -> str:
        n = "inf" if self.max_attempts is None else self.max_attempts
        return f"fixed({self.delay}x{n})"


@dataclass(frozen=True)
class ExponentialBackoff(RetryPolicy):
    """Delays grow by ``factor`` each attempt, plus uniform jitter.

    The k-th backoff is ``min(base * factor**k, max_delay) + U[0, jitter]``
    (jitter drawn from the combinator's seeded RNG — deterministic, but
    decorrelating concurrent retriers that use different seeds).
    """

    base: int = 10
    factor: float = 2.0
    max_delay: int | None = None
    max_attempts: int | None = 5
    jitter: int = 0

    def delays(self, rng: random.Random) -> Iterator[int]:
        current = float(self.base)
        for _ in _attempt_range(self.max_attempts):
            delay = int(current)
            if self.max_delay is not None:
                delay = min(delay, self.max_delay)
            if self.jitter:
                delay += rng.randint(0, self.jitter)
            yield delay
            current *= self.factor

    def describe(self) -> str:
        n = "inf" if self.max_attempts is None else self.max_attempts
        return f"expo({self.base}*{self.factor}^k x{n})"


class RetryBudget:
    """A token bucket capping *aggregate* retries across many callers.

    First attempts earn ``fill_ratio`` tokens (clamped at ``capacity``);
    each retry spends one whole token.  In steady state retries are thus
    at most ``fill_ratio`` of offered requests — enough to smooth over
    sporadic failures, nowhere near enough to double the load during an
    outage.  When the bucket is empty, :func:`retry` raises
    :class:`~repro.errors.AdmissionError` (reason ``"retry-budget"``)
    instead of re-attempting.

    Purely arithmetic on deterministic event order: no clock reads, no
    RNG, so two same-seed runs drain and refill identically.  Share one
    instance per (caller, object) pair — :func:`shared_budget` keeps a
    registry on the kernel.
    """

    def __init__(
        self, capacity: float = 10.0, fill_ratio: float = 0.1, name: str = "budget"
    ) -> None:
        if capacity < 1:
            raise ValueError(f"budget capacity must be >= 1, got {capacity}")
        if not 0 < fill_ratio <= 1:
            raise ValueError(f"fill_ratio must be in (0, 1], got {fill_ratio}")
        self.capacity = float(capacity)
        self.fill_ratio = float(fill_ratio)
        self.name = name
        #: Current token balance; starts full so cold-start failures can
        #: still be retried.
        self.tokens = float(capacity)
        #: Lifetime counters (deterministic; asserted in tests/benches).
        self.deposits = 0
        self.withdrawals = 0
        self.denials = 0

    def deposit(self) -> None:
        """A first attempt was issued: earn ``fill_ratio`` tokens."""
        self.tokens = min(self.capacity, self.tokens + self.fill_ratio)
        self.deposits += 1

    def try_withdraw(self) -> bool:
        """Spend one token for a retry; False when the budget is dry."""
        if self.tokens >= 1.0:
            self.tokens -= 1.0
            self.withdrawals += 1
            return True
        self.denials += 1
        return False

    def describe(self) -> str:
        return (
            f"budget({self.name}: {self.tokens:.1f}/{self.capacity:.0f} "
            f"@{self.fill_ratio})"
        )


def shared_budget(
    kernel: "Kernel",
    caller: str,
    obj: Any,
    capacity: float = 10.0,
    fill_ratio: float = 0.1,
) -> RetryBudget:
    """The :class:`RetryBudget` shared per (caller, object) pair.

    ``caller`` names the logical client population (a process name, an
    engine name — whatever granularity the budget should pool over);
    ``obj`` is the target :class:`~repro.core.AlpsObject` (or its name).
    Budgets live on the kernel, so every retry loop in the same run that
    names the same pair drains the same bucket.
    """
    key = (caller, getattr(obj, "alps_name", str(obj)))
    registry = getattr(kernel, "_retry_budgets", None)
    if registry is None:
        registry = kernel._retry_budgets = {}
    budget = registry.get(key)
    if budget is None:
        budget = registry[key] = RetryBudget(
            capacity, fill_ratio, name=f"{key[0]}->{key[1]}"
        )
    return budget


class CircuitBreaker:
    """Deterministic closed → open → half-open circuit breaker.

    Driven entirely by virtual time and the observed outcome sequence —
    no wall clock, no RNG — so same-seed runs produce identical
    transition logs (``transitions`` is a list of
    ``(tick, from_state, to_state)``, asserted replay-identical in the
    E15 bench).

    * **closed** — outcomes are folded into a sliding ``window``-tick
      record; once at least ``min_calls`` are in the window and the
      failure fraction reaches ``failure_threshold``, the breaker opens.
    * **open** — :meth:`allow` refuses everything until ``cooldown``
      ticks have passed, then moves to half-open.
    * **half-open** — exactly one probe attempt is allowed through; its
      success closes the breaker (window cleared), its failure re-opens
      it for another full cooldown.  If the probe's *caller* dies before
      reporting (e.g. a crash races the probe), the next ``allow`` after
      the probe's implicit expiry would deadlock the breaker half-open;
      :meth:`record` is therefore the only transition driver and probes
      must always report — :func:`retry` guarantees it with try/finally.
    """

    CLOSED = "closed"
    OPEN = "open"
    HALF_OPEN = "half-open"

    def __init__(
        self,
        kernel: "Kernel",
        window: int = 200,
        min_calls: int = 10,
        failure_threshold: float = 0.5,
        cooldown: int = 400,
        name: str = "breaker",
    ) -> None:
        if window < 1:
            raise ValueError(f"window must be >= 1, got {window}")
        if min_calls < 1:
            raise ValueError(f"min_calls must be >= 1, got {min_calls}")
        if not 0 < failure_threshold <= 1:
            raise ValueError(
                f"failure_threshold must be in (0, 1], got {failure_threshold}"
            )
        if cooldown < 1:
            raise ValueError(f"cooldown must be >= 1, got {cooldown}")
        self.kernel = kernel
        self.window = window
        self.min_calls = min_calls
        self.failure_threshold = failure_threshold
        self.cooldown = cooldown
        self.name = name
        self.state = self.CLOSED
        #: (tick, ok) outcomes inside the sliding window.
        self._events: deque[tuple[int, bool]] = deque()
        self._opened_at: int | None = None
        self._probe_inflight = False
        #: Transition log: (tick, from_state, to_state), append-only.
        self.transitions: list[tuple[int, str, str]] = []

    def _transition(self, to: str) -> None:
        now = self.kernel.clock.now
        self.transitions.append((now, self.state, to))
        self.kernel.trace.record(
            now, "breaker", self.name, from_state=self.state, to_state=to
        )
        self.kernel.metrics.counter(
            "breaker.transitions", "Circuit-breaker state transitions"
        ).inc()
        self.state = to

    def _trim(self, now: int) -> None:
        while self._events and self._events[0][0] <= now - self.window:
            self._events.popleft()

    def allow(self) -> bool:
        """May an attempt be issued now?  (May move open → half-open.)"""
        now = self.kernel.clock.now
        if self.state == self.OPEN:
            if self._opened_at is not None and now - self._opened_at >= self.cooldown:
                self._transition(self.HALF_OPEN)
                self._probe_inflight = False
            else:
                return False
        if self.state == self.HALF_OPEN:
            if self._probe_inflight:
                return False
            self._probe_inflight = True
            return True
        return True

    def record(self, ok: bool) -> None:
        """Fold one attempt outcome in (the only transition driver)."""
        now = self.kernel.clock.now
        if self.state == self.HALF_OPEN:
            self._probe_inflight = False
            if ok:
                self._events.clear()
                self._transition(self.CLOSED)
            else:
                self._opened_at = now
                self._transition(self.OPEN)
            return
        self._events.append((now, ok))
        self._trim(now)
        if self.state == self.CLOSED:
            total = len(self._events)
            failures = sum(1 for _, was_ok in self._events if not was_ok)
            if (
                total >= self.min_calls
                and failures / total >= self.failure_threshold
            ):
                self._opened_at = now
                self._transition(self.OPEN)

    def describe(self) -> str:
        return f"breaker({self.name}: {self.state})"


def retry(
    call_factory: Callable[[], Any],
    policy: RetryPolicy,
    seed: Any = 0,
    budget: RetryBudget | None = None,
    breaker: CircuitBreaker | None = None,
):
    """``yield from`` helper: run the call, retrying per ``policy``.

    ``call_factory`` builds a fresh :class:`~repro.core.primitives.EntryCall`
    per attempt (give the call a ``timeout`` so lost requests are
    detected).  Returns the first successful result; raises the last
    :class:`~repro.errors.RemoteCallError` when attempts are exhausted.

    ``budget`` caps aggregate retries: when the shared token bucket is
    dry, the loop raises :class:`~repro.errors.AdmissionError` (reason
    ``"retry-budget"``) instead of re-attempting.  ``breaker`` refuses
    attempts up front while its circuit is open (reason
    ``"breaker-open"``).  :class:`~repro.errors.DeadlineExceeded` is
    never retried: the end-to-end budget is spent.
    """
    schedule = None  # built at the first failure: only a retry draws
    proc = yield Self()
    attempt = 1
    while True:
        call = call_factory()
        kernel = call.obj.kernel
        if breaker is not None and not breaker.allow():
            kernel.metrics.counter(
                "breaker.refused", "Attempts refused by an open circuit breaker"
            ).inc()
            raise AdmissionError(
                f"circuit open for {call.obj.alps_name}.{call.proc_name} "
                f"({breaker.describe()})",
                entry=call.proc_name,
                obj=call.obj.alps_name,
                reason="breaker-open",
            )
        if budget is not None and attempt == 1:
            budget.deposit()
        try:
            result = yield call
        except DeadlineExceeded:
            if breaker is not None:
                breaker.record(ok=False)
            raise
        except RemoteCallError as exc:
            if breaker is not None:
                breaker.record(ok=False)
            if schedule is None:
                # The RNG is the loop's own, so building it late draws
                # the same delays.
                schedule = policy.delays(random.Random(seed))
            try:
                backoff = next(schedule)
            except StopIteration:
                kernel.metrics.counter(
                    "retry.exhausted", "Retry loops that ran out of attempts",
                ).inc()
                raise exc from None
            if budget is not None and not budget.try_withdraw():
                kernel.metrics.counter(
                    "retry.budget_denied",
                    "Retries refused because the shared budget was dry",
                ).inc()
                raise AdmissionError(
                    f"retry budget dry for {call.obj.alps_name}."
                    f"{call.proc_name} ({budget.describe()})",
                    entry=call.proc_name,
                    obj=call.obj.alps_name,
                    reason="retry-budget",
                ) from exc
            kernel.metrics.counter(
                "retry.attempts", "Re-attempts after RemoteCallError",
            ).inc()
            kernel.trace.record(
                kernel.clock.now, "retry", proc.name,
                entry=call.proc_name, obj=call.obj.alps_name,
                attempt=attempt, backoff=backoff,
            )
            if kernel.obs.enabled and budget is not None:
                # Sink-only marker: remaining retry budget at this retry.
                kernel.obs.instant(
                    "retry.budget",
                    process=proc.name,
                    entry=call.proc_name,
                    obj=call.obj.alps_name,
                    tokens=round(budget.tokens, 3),
                )
            attempt += 1
            if backoff:
                yield Delay(backoff)
            continue
        if breaker is not None:
            breaker.record(ok=True)
        if attempt > 1:
            kernel.metrics.counter(
                "retry.successes", "Calls that succeeded after retrying",
            ).inc()
        return result
