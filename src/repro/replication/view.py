"""The replica view: who is up, who has applied what, who leads.

A :class:`ReplicaView` is the replication wrapper's membership and
progress table — the piece of Raft/primary-backup bookkeeping this
object layer needs.  It tracks, per replica:

* a liveness verdict (folded in from the heartbeat, from failed calls,
  and from the fault runtime's restart events);
* the highest write version the replica is known to have applied.

and globally the current ``primary`` and the highest *acknowledged*
write version.  Every status change and promotion is appended to
``transitions`` with its virtual tick, so two runs with the same seed
produce tick-identical view histories — the determinism contract the
test suite checks.

Promotion policy: when the primary is believed down, the live backup
with the highest applied version wins; ties break by placement order.
This is the classic "most up-to-date survivor" rule — because writes
are acknowledged only after being applied at every live backup, the
winner is guaranteed to hold every acknowledged write.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from ..kernel.waiting import EventCount
from ..obs.spans import TransitionRecord

if TYPE_CHECKING:  # pragma: no cover
    from ..kernel.kernel import Kernel


class ReplicaView:
    """Membership, per-replica progress and leadership for one object."""

    def __init__(self, kernel: "Kernel", names: list[str]) -> None:
        self.kernel = kernel
        #: Replica names in placement order (tie-break for promotion).
        self.order = list(names)
        #: Liveness verdict per replica: "up" | "down".
        self.status = {name: "up" for name in self.order}
        #: Highest write version each replica is known to have applied.
        self.versions = {name: 0 for name in self.order}
        #: The replica write calls are directed at.
        self.primary = self.order[0]
        #: Highest acknowledged write version.
        self.version = 0
        #: (tick, event, replica, version-at-event) per change; events are
        #: "down", "rejoin", "promote".  Each record compares equal to a
        #: plain 4-tuple but also carries the id of the span that observed
        #: the change (None with spans disabled), so exported failover
        #: timelines connect detection to promotion and catch-up.
        self.transitions: list[tuple[int, str, str, int]] = []
        #: Transitions: the view monitor blocks on it to observe changes
        #: made by other processes.
        self.changes = EventCount("view-events")

    # -- queries ----------------------------------------------------------

    def is_up(self, name: str) -> bool:
        return self.status[name] == "up"

    def live(self) -> list[str]:
        return [name for name in self.order if self.status[name] == "up"]

    def live_backups(self) -> list[str]:
        return [name for name in self.live() if name != self.primary]

    def lag(self, name: str) -> int:
        """How many acknowledged writes ``name`` has not applied yet."""
        return self.version - self.versions[name]

    # -- mutations --------------------------------------------------------

    def _record(self, event: str, name: str, span_id: int | None = None) -> None:
        self.transitions.append(
            TransitionRecord(
                (self.kernel.clock.now, event, name, self.versions[name]),
                span_id=span_id,
            )
        )
        self.changes.bump(self.kernel)

    def _span_id(self, span) -> int | None:
        return None if span is None else getattr(span, "span_id", span)

    def mark_down(self, name: str, span=None) -> None:
        if self.status[name] == "down":
            return
        self.status[name] = "down"
        self._record("down", name, span_id=self._span_id(span))
        self.kernel.metrics.counter(
            "replication.suspicions", "Replicas marked down in the view",
        ).inc()

    def mark_up(self, name: str, span=None) -> None:
        if self.status[name] == "up":
            return
        self.status[name] = "up"
        self._record("rejoin", name, span_id=self._span_id(span))
        self.kernel.metrics.counter(
            "replication.rejoins", "Replicas rejoining the view after catch-up",
        ).inc()

    def mark_applied(self, name: str, version: int) -> None:
        if version > self.versions[name]:
            self.versions[name] = version

    def commit(self, version: int) -> None:
        """Acknowledge a write: versions up to ``version`` are durable."""
        if version > self.version:
            self.version = version

    def promote(self, span=None) -> str | None:
        """Re-elect if the primary is down; returns the primary, or None.

        Chooses the live backup with the highest applied version
        (placement order breaks ties).  A live primary is left in place;
        with no live replica at all, leadership is vacant and ``None``
        is returned.
        """
        if self.status[self.primary] == "up":
            return self.primary
        candidates = self.live()
        if not candidates:
            return None
        best = max(
            candidates,
            key=lambda n: (self.versions[n], -self.order.index(n)),
        )
        self.primary = best
        self._record("promote", best, span_id=self._span_id(span))
        self.kernel.metrics.counter(
            "replication.promotions", "Backups promoted to primary",
        ).inc()
        return best
