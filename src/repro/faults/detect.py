"""Failure detection helpers: liveness beacons and a heartbeat monitor.

The kernel-level detector (``FaultPlan.detection_delay``) fails pending
callers of a crashed node; :class:`Heartbeat` is the complementary
*application*-level detector — a daemon that periodically pings watched
objects with timed calls and keeps a verdict per target, so recovery
logic (or a test) can observe "down" before ever issuing a real call.

Place one :class:`Beacon` per node you want to monitor::

    beacon = net.node("n3").place(Beacon(kernel, name="beacon3"))
    hb = Heartbeat(kernel, interval=40, timeout=80)
    hb.watch("n3", beacon)
    hb.start()

Both detectors are deterministic: pings are ordinary timed entry calls
on the virtual clock.  Each round pings every target *concurrently*
(one spawned probe per target, joined with ``par``), so one down
target's timeout never delays another target's verdict: detection skew
within a round is bounded by each target's own ping time, and a round
lasts ``max`` — not ``sum`` — of the ping times.

Consumers that must *react* to verdicts (the replication view monitor,
a test) block on ``heartbeat.events.beyond(seen)`` instead of polling.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any

from ..core import AlpsObject, entry
from ..errors import KernelError, RemoteCallError
from ..kernel.syscalls import Delay, Par
from ..kernel.waiting import EventCount
from ..obs.spans import TransitionRecord

if TYPE_CHECKING:  # pragma: no cover
    from ..kernel.kernel import Kernel
    from ..kernel.process import Process


class Beacon(AlpsObject):
    """A minimal liveness responder: answers ``ping`` while its node is up."""

    @entry(returns=1)
    def ping(self):
        return "ok"


class Heartbeat:
    """Ping watched objects on a period; record up/down transitions.

    Parameters
    ----------
    interval:
        Ticks between monitoring rounds (measured from the end of one
        round to the start of the next).
    timeout:
        Deadline of each ping; a ping that exceeds it (or fails with
        :class:`~repro.errors.RemoteCallError`) marks the target down.
    rounds:
        Stop after this many rounds (``None`` runs forever — note that an
        unbounded monitor keeps the event queue non-empty, so give a
        bound, call :meth:`stop`, or use ``kernel.run(until=...)``).
    """

    def __init__(
        self,
        kernel: "Kernel",
        interval: int = 50,
        timeout: int = 100,
        rounds: int | None = None,
    ) -> None:
        self.kernel = kernel
        self.interval = interval
        self.timeout = timeout
        self.rounds = rounds
        self.targets: dict[str, Any] = {}
        #: Latest verdict per target: "unknown" | "up" | "down".
        self.status: dict[str, str] = {}
        #: (tick, target, verdict) for every status change.  Each record
        #: compares equal to a plain 3-tuple but also carries the id of
        #: the probe span that observed it (None with spans disabled), so
        #: exported failover timelines connect detection to promotion.
        self.transitions: list[tuple[int, str, str]] = []
        #: Status changes: recovery daemons block on it to observe them.
        self.events = EventCount("heartbeat-events")
        self.process: "Process | None" = None

    def watch(self, name: str, obj: Any) -> None:
        """Monitor ``obj`` (anything with a ``ping`` entry) as ``name``."""
        self.targets[name] = obj
        self.status[name] = "unknown"

    def is_up(self, name: str) -> bool:
        return self.status.get(name) == "up"

    def start(self) -> "Process":
        """Spawn the monitor daemon; returns its process.

        Raises :class:`~repro.errors.KernelError` if the monitor is
        already running (a second daemon would double every ping and
        leak a process).
        """
        if self.process is not None and self.process.alive:
            raise KernelError(
                "heartbeat monitor is already running; call stop() before "
                "starting it again"
            )
        self.process = self.kernel.spawn(
            self._monitor, name="heartbeat", daemon=True
        )
        return self.process

    def stop(self) -> bool:
        """Kill the monitor daemon; returns True if one was running.

        Verdicts and transitions are kept; :meth:`start` may be called
        again later.
        """
        proc, self.process = self.process, None
        if proc is None or not proc.alive:
            return False
        self.kernel.kill_process(proc)
        return True

    def _record(self, name: str, verdict: str, span_id: int | None = None) -> None:
        if self.status.get(name) == verdict:
            return
        self.transitions.append(
            TransitionRecord((self.kernel.clock.now, name, verdict), span_id=span_id)
        )
        self.status[name] = verdict
        self.kernel.metrics.counter(
            f"heartbeat.{verdict}", f"Heartbeat {verdict} transitions",
        ).inc()
        self.events.bump(self.kernel)

    def _probe(self, name: str):
        """One target's ping for one round; records its own verdict."""
        obj = self.targets[name]

        def body():
            obs = self.kernel.obs
            span = None
            if obs.enabled:
                # The ping call below parents under the probe span (via
                # the process's span link), and the resulting verdict
                # record carries the probe's id into the exported
                # timeline: detection connects to promotion/catch-up.
                # ``current_process`` (not a ``Self`` syscall) keeps the
                # event schedule identical with spans on or off.
                me = self.kernel.current_process
                span = obs.begin("heartbeat", f"probe {name}", process=me.name)
                me.span = span
            sid = None if span is None else span.span_id
            try:
                yield obj.ping(timeout=self.timeout)
            except RemoteCallError:
                self._record(name, "down", span_id=sid)
                if span is not None:
                    obs.end(span, verdict="down")
            else:
                self._record(name, "up", span_id=sid)
                if span is not None:
                    obs.end(span, verdict="up")

        return body

    def _monitor(self):
        done = 0
        while self.rounds is None or done < self.rounds:
            names = list(self.targets)
            if names:
                # Concurrent probes: verdicts land at each ping's own
                # completion tick, and the round barrier costs max (not
                # sum) of the ping times.
                yield Par([self._probe(name) for name in names])
            done += 1
            if self.rounds is None or done < self.rounds:
                yield Delay(self.interval)
