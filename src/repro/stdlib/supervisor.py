"""Supervisor: an ALPS object that recovers other ALPS objects.

The recovery half of ``repro.faults``: a Supervisor ``watch``es placed
objects; when a node crash takes one down, the fault runtime *captures*
the calls the crash interrupted instead of failing them.  The
Supervisor's manager sleeps on the runtime's fault-event stream, and
once the victim's node is back up it restarts the object's manager and
re-queues every interrupted call — callers that were blocked mid-call
simply receive their results late, never a ``RemoteCallError``.

Restart preserves the object's shared data (ordinary instance
attributes), modelling state kept in stable storage; re-execution gives
at-least-once semantics, so watched entries should be idempotent.

The Supervisor is itself an ALPS object: place it on a node that does
not crash (or accept that supervision dies with it — there is no
meta-supervisor).
"""

from __future__ import annotations

from typing import Any

from ..core import AlpsObject, entry, manager_process
from ..errors import ObjectModelError
from ..faults.runtime import FaultRuntime
from ..kernel.syscalls import Delay


class Supervisor(AlpsObject):
    """Restart crashed watched objects and re-queue their interrupted calls.

    Parameters (via ``setup``)
    --------------------------
    faults:
        The installed :class:`~repro.faults.FaultRuntime`.
    reaction_delay:
        Extra ticks between noticing a fault transition and acting on it
        (models recovery latency; 0 reacts at the restart instant).
    """

    def setup(self, faults: FaultRuntime | None = None, reaction_delay: int = 0) -> None:
        if faults is None:
            raise TypeError("Supervisor requires faults=<installed FaultRuntime>")
        self.faults = faults
        self.reaction_delay = reaction_delay
        self.watched: dict[str, Any] = {}
        #: (tick, object name, calls re-queued) per recovery action.
        self.restarts: list[tuple[int, str, int]] = []

    def watch(self, obj: Any) -> Any:
        """Supervise ``obj``: its interrupted calls survive crashes.

        ``obj`` must already be placed on a node (an unplaced object
        lives outside the failure model, so there is nothing to recover)
        and must not already be watched — both cases raise
        :class:`~repro.errors.ObjectModelError` instead of silently
        overwriting the watch table.
        """
        if obj.node is None:
            raise ObjectModelError(
                f"{self.alps_name}: cannot watch {obj.alps_name!r} — place "
                "it on a node first (unplaced objects cannot crash)"
            )
        existing = self.watched.get(obj.alps_name)
        if existing is not None:
            detail = (
                "it is already watched"
                if existing is obj
                else "another watched object already uses that name"
            )
            raise ObjectModelError(
                f"{self.alps_name}: cannot watch {obj.alps_name!r} — {detail}"
            )
        self.watched[obj.alps_name] = obj
        self.faults.supervise(obj)
        return obj

    @entry(returns=1)
    def report(self):
        return list(self.restarts)

    def _recover_ready(self) -> None:
        """Restart every watched object whose node is back up."""
        kernel = self.kernel
        for name, obj in self.watched.items():
            if not obj._crashed:
                continue
            node = obj.node
            if node is not None and not self.faults.node_up(node.name):
                continue  # still down; the restart transition will wake us
            obj.restart()
            requeued = 0
            for call in self.faults.take_interrupted(obj):
                if self.faults.requeue(call):
                    requeued += 1
            self.restarts.append((kernel.clock.now, name, requeued))
            kernel.metrics.counter(
                "supervisor.restarts", "Watched objects restarted after a crash",
            ).inc()
            kernel.trace.record(
                kernel.clock.now, "restart", name,
                by=self.alps_name, requeued=requeued,
            )

    @manager_process(intercepts=[])
    def mgr(self):
        seen = 0
        while True:
            seen = yield self.faults.wait_for_events(seen)
            if self.reaction_delay:
                yield Delay(self.reaction_delay)
            self._recover_ready()
