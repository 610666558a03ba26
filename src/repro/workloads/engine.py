"""The open-loop traffic engine: many virtual callers, few processes.

An *open* system offers load at times the server does not control: a
million independent callers do not stop arriving because the object is
slow.  Simulating a million kernel processes would drown the scheduler
in bookkeeping that is not the experiment, so the engine multiplexes a
huge **logical caller ID space** over a small bounded pool of **engine
processes**:

* the complete request schedule — arrival times, caller IDs, per-caller
  sequence numbers — is computed *before the kernel runs*, from RNGs
  seeded independently of the kernel's arbitration seed.  Swapping a
  scheduling mechanism, an arbitration policy, or a manager's guard
  order therefore cannot perturb the offered load: two runs with the
  same engine seed see literally identical request sequences, and
  :meth:`TrafficEngine.write_offered_trace` can prove it byte-for-byte;
* each engine process owns a deterministic slice of the caller space
  (``caller % engines``) and replays its slice's arrivals with
  ``Delay``, spawning one short-lived client process per request;
* in-flight clients per engine are bounded (``clients``); an arrival
  that finds its engine saturated is recorded as ``dropped`` — counted,
  never silently discarded.

Every scheduled request ends in exactly one of five outcomes, so the
accounting is conservative by construction (checked by
:meth:`TrafficResult.check_conservation`):

========== ===========================================================
status     meaning
========== ===========================================================
``ok``     served; ``latency`` = finish time − scheduled arrival time
``shed``   the object's admission control rejected it
           (:class:`~repro.errors.AdmissionError`)
``timeout``the call expired or failed distributed-ly
           (:class:`~repro.errors.RemoteCallError`)
``dropped``the engine's client bound was exhausted at arrival time
``error``  any other exception (a bug in the driven object — the SLO
           harness treats a nonzero count as a failed run)
========== ===========================================================

Requests may take several *attempts* when the engine is configured with a
``retry_policy``: the conservation identity then extends to a second
dimension, ``attempts == Σ (1 + retries)`` over every non-dropped
outcome, so a retry storm cannot hide inside the accounting — every wire
attempt is attributed to exactly one terminal outcome.  A ``deadline``
gives every request an end-to-end budget anchored at its *scheduled*
arrival (``req.at + deadline``), inherited by every attempt, so retries
share one budget instead of each re-arming a fresh one.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable

from ..errors import AdmissionError, RemoteCallError
from ..faults.retry import CircuitBreaker, RetryBudget, RetryPolicy, retry
from ..kernel.syscalls import Delay, Now, Self, Spawn
from ..obs.spans import Span
from .generators import ArrivalProcess

if TYPE_CHECKING:  # pragma: no cover
    from ..kernel.kernel import Kernel

#: Outcome statuses, in reporting order.
STATUSES = ("ok", "shed", "timeout", "dropped", "error")


@dataclass(frozen=True)
class Request:
    """One scheduled request: fixed before the kernel ever runs."""

    index: int  #: global issue order
    at: int  #: scheduled arrival time (virtual ticks)
    caller: int  #: virtual caller ID in ``range(callers)``
    seq: int  #: per-caller sequence number (0, 1, ...)


@dataclass
class Outcome:
    """What actually happened to one scheduled request."""

    request: Request
    status: str
    issued_at: int
    finished_at: int
    value: Any = None
    retries: int = 0  #: wire re-attempts beyond the first (0 without retry)

    @property
    def latency(self) -> int:
        """Virtual latency a *caller* sees: finish − scheduled arrival.

        Measured from the scheduled arrival, not the issue instant, so a
        saturated engine cannot flatter the numbers by issuing late.
        """
        return self.finished_at - self.request.at


@dataclass
class TrafficResult:
    """Aggregated outcomes of one engine run."""

    issued: int
    outcomes: list[Outcome] = field(default_factory=list)
    #: Total wire attempts issued, or ``None`` when attempts were not
    #: tracked (hand-built results).  The engine always tracks them.
    attempts: int | None = None

    @property
    def counts(self) -> dict[str, int]:
        out = {status: 0 for status in STATUSES}
        for outcome in self.outcomes:
            out[outcome.status] += 1
        return out

    def latencies(self, status: str = "ok") -> list[int]:
        return [o.latency for o in self.outcomes if o.status == status]

    def check_conservation(self) -> None:
        """``issued == ok + shed + timeout + dropped + error``, exactly.

        Raises :class:`AssertionError` naming the imbalance otherwise —
        a request the engine lost track of is a harness bug, not noise.

        When attempts were tracked (``attempts`` is not ``None``), the
        identity extends to the retry dimension: every wire attempt must
        be attributed to exactly one terminal outcome, i.e.
        ``attempts == Σ (1 + retries)`` over non-dropped outcomes
        (dropped requests never reached the wire).
        """
        counts = self.counts
        total = sum(counts.values())
        if total != self.issued:
            raise AssertionError(
                f"conservation violated: issued {self.issued} != "
                f"accounted {total} ({counts})"
            )
        seen = {o.request.index for o in self.outcomes}
        if len(seen) != len(self.outcomes):
            raise AssertionError("conservation violated: duplicate outcomes")
        if self.attempts is not None:
            expected = sum(
                1 + o.retries for o in self.outcomes if o.status != "dropped"
            )
            if self.attempts != expected:
                raise AssertionError(
                    f"conservation violated: {self.attempts} wire attempts != "
                    f"{expected} attributed to terminal outcomes"
                )


class TrafficEngine:
    """Open-loop load from ``callers`` virtual callers over ``engines`` processes.

    Parameters
    ----------
    kernel:
        The kernel to drive.  The engine only ever *spawns* on it; it
        never touches arbitration state.
    process:
        The :class:`~repro.workloads.ArrivalProcess` giving inter-arrival
        gaps of the aggregate request stream.
    count:
        Total requests to schedule.
    request:
        ``request(req: Request)`` → the :class:`~repro.core.EntryCall`
        (or generator) one client issues.  Runs inside a client process;
        it may use ``req.caller``/``req.seq`` to pick keys and args, but
        must derive any randomness from them (not from global state) to
        keep the offered load deterministic.
    callers:
        Size of the logical caller ID space (default one million).
    engines:
        Number of engine processes the caller space is sliced over.
    clients:
        Per-engine bound on concurrently in-flight client processes;
        arrivals beyond it are recorded as ``dropped``.
    seed:
        Engine-private RNG seed for the caller-ID draw.  Deliberately
        string-mixed with the engine name so it can never collide with
        the kernel's integer arbitration seed.
    deadline:
        Optional end-to-end budget (ticks) per request, anchored at the
        *scheduled* arrival: each client sets ``req.at + deadline`` on
        its process before issuing, so every nested call and every retry
        attempt inherits the same absolute deadline.
    retry_policy:
        Optional :class:`~repro.faults.RetryPolicy`: failed attempts are
        re-issued via :func:`~repro.faults.retry` with a per-request seed
        derived from the engine name, seed, and request index (fully
        deterministic, decorrelated across requests).  Requires
        ``request`` to build :class:`~repro.core.EntryCall`\\ s (not raw
        generators).
    retry_budget:
        Optional :class:`~repro.faults.RetryBudget` shared across all
        this engine's clients: when dry, retries surface as ``shed``.
    breaker:
        Optional :class:`~repro.faults.CircuitBreaker` consulted before
        every attempt; while open, requests surface as ``shed``.
    """

    def __init__(
        self,
        kernel: "Kernel",
        process: ArrivalProcess,
        count: int,
        request: Callable[[Request], Any],
        *,
        callers: int = 1_000_000,
        engines: int = 4,
        clients: int = 64,
        seed: int = 0,
        name: str = "traffic",
        deadline: int | None = None,
        retry_policy: RetryPolicy | None = None,
        retry_budget: RetryBudget | None = None,
        breaker: CircuitBreaker | None = None,
    ) -> None:
        if count < 0:
            raise ValueError(f"count must be >= 0, got {count}")
        if callers < 1:
            raise ValueError(f"callers must be >= 1, got {callers}")
        if engines < 1:
            raise ValueError(f"engines must be >= 1, got {engines}")
        if clients < 1:
            raise ValueError(f"clients must be >= 1, got {clients}")
        if deadline is not None and deadline <= 0:
            raise ValueError(f"deadline must be > 0, got {deadline}")
        self.kernel = kernel
        self.process = process
        self.count = count
        self.request = request
        self.callers = callers
        self.engines = engines
        self.clients = clients
        self.seed = seed
        self.name = name
        self.deadline = deadline
        self.retry_policy = retry_policy
        self.retry_budget = retry_budget
        self.breaker = breaker
        #: The full request schedule, fixed before the kernel runs.
        self.schedule: list[Request] = self._build_schedule()
        self.result = TrafficResult(issued=count, attempts=0)
        #: Outcome observers, called synchronously as each request's
        #: outcome is recorded (in completion order, at the completing
        #: process's virtual time).  The live telemetry plane attaches
        #: here (:func:`repro.workloads.livewire.watch_traffic`); pure
        #: observation — an observer must not issue syscalls.
        self.observers: list[Any] = []

    # -- schedule construction (pure, kernel-independent) -----------------

    def _build_schedule(self) -> list[Request]:
        times = self.process.arrivals(self.count)
        # String seeding keeps this stream disjoint from every integer
        # seed the kernel's arbitration RNG could be given.
        rng = random.Random(f"{self.name}:{self.seed}:callers")
        seqs: dict[int, int] = {}
        schedule = []
        for index, at in enumerate(times):
            caller = rng.randrange(self.callers)
            seq = seqs.get(caller, 0)
            seqs[caller] = seq + 1
            schedule.append(Request(index=index, at=at, caller=caller, seq=seq))
        return schedule

    def slice_for(self, engine_index: int) -> list[Request]:
        """The requests engine ``engine_index`` replays (caller-sliced)."""
        return [
            req for req in self.schedule if req.caller % self.engines == engine_index
        ]

    # -- offered-load trace (issue side, zero kernel involvement) ---------

    def offered_records(self) -> list[dict[str, Any]]:
        """The offered load as span records (see ``repro.obs.analyze``).

        One instant ``call`` span per scheduled request, written entirely
        from the pre-built schedule: the kernel, the scheduler, and the
        observability layer contribute nothing, so two runs with the same
        engine configuration produce byte-identical traces regardless of
        which synchronization mechanism served them.
        """
        return [
            Span(
                req.index + 1, "call", "offered", f"vc{req.caller}", req.at,
                attrs={"seq": req.seq, "index": req.index}, end=req.at,
            ).to_record()
            for req in self.schedule
        ]

    def write_offered_trace(self, path: str) -> None:
        """Write :meth:`offered_records` as a JSONL trace file."""
        with open(path, "w", encoding="utf-8") as fh:
            for record in self.offered_records():
                fh.write(json.dumps(record, sort_keys=True) + "\n")

    # -- running -----------------------------------------------------------

    def start(self) -> None:
        """Spawn the engine processes (call before ``kernel.run()``)."""
        for engine_index in range(self.engines):
            slice_ = self.slice_for(engine_index)
            if not slice_:
                continue
            self.kernel.spawn(
                self._engine,
                slice_,
                name=f"{self.name}.e{engine_index}",
            )

    def run(self, until: int | None = None) -> TrafficResult:
        """Convenience: :meth:`start`, ``kernel.run()``, conservation check."""
        self.start()
        self.kernel.run(until=until)
        self.result.check_conservation()
        return self.result

    def _engine(self, slice_: list[Request]):
        # Mutable cell shared with this engine's clients: in-flight count.
        inflight = [0]
        for req in slice_:
            now = yield Now()
            if req.at > now:
                yield Delay(req.at - now)
                now = req.at
            if inflight[0] >= self.clients:
                outcome = Outcome(request=req, status="dropped",
                                  issued_at=now, finished_at=now)
                self.result.outcomes.append(outcome)
                for observer in self.observers:
                    observer(outcome)
                continue
            inflight[0] += 1
            yield Spawn(
                self._client,
                args=(req, inflight),
                name=f"{self.name}.vc{req.caller}.{req.seq}",
            )

    def _client(self, req: Request, inflight: list[int]):
        issued_at = self.kernel.clock.now
        status = "ok"
        value = None
        attempts = [0]

        def build():
            attempts[0] += 1
            self.result.attempts += 1
            return self.request(req)

        try:
            if self.deadline is not None:
                # Anchor the end-to-end budget at the *scheduled* arrival:
                # a saturated engine issuing late cannot stretch it, and
                # every nested call / retry attempt inherits it.
                proc = yield Self()
                proc.deadline_at = req.at + self.deadline
            if self.retry_policy is not None:
                value = yield from retry(
                    build,
                    self.retry_policy,
                    seed=f"{self.name}:{self.seed}:retry:{req.index}",
                    budget=self.retry_budget,
                    breaker=self.breaker,
                )
            else:
                built = build()
                if hasattr(built, "send") and hasattr(built, "throw"):
                    value = yield from built
                else:
                    value = yield built
        except AdmissionError:
            status = "shed"
        except RemoteCallError:
            status = "timeout"
        except Exception:
            status = "error"
        finally:
            # On GeneratorExit (run truncated mid-flight) only the slot is
            # released; no outcome is recorded, so check_conservation()
            # reports the truncation instead of inventing a status.
            inflight[0] -= 1
        outcome = Outcome(
            request=req,
            status=status,
            issued_at=issued_at,
            finished_at=self.kernel.clock.now,
            value=value,
            retries=max(0, attempts[0] - 1),
        )
        self.result.outcomes.append(outcome)
        for observer in self.observers:
            observer(outcome)
