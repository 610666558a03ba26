"""Request combining (§2.7).

"A manager need not start a procedure execution for every entry call that
it accepts.  For some applications it is more economical if the manager
can combine some of the pending requests and synthesize a single request
... so that a single procedure execution would serve the needs of several
users."  This is "a software adaptation of the memory combining that is
used in the NYU Ultracomputer".

The mechanics are pure manager programming — ``accept`` a call, remember
it, and later ``finish`` it without ever ``start``-ing it — but the
bookkeeping ("record that Word is now being searched on behalf of
Search[i]") is common enough that we package it as :class:`Combiner`.
"""

from __future__ import annotations

from typing import Generic, Hashable, TypeVar

from .calls import Call

K = TypeVar("K", bound=Hashable)


class Combiner(Generic[K]):
    """Tracks which requests ride on which in-flight computation.

    For each key (e.g. the word being searched) the first accepted call
    becomes the *leader* — the manager starts a body for it — and later
    calls with the same key become *followers*, parked until the leader's
    result arrives and then finished with the same result.
    """

    def __init__(self) -> None:
        self._inflight: dict[K, list[Call]] = {}
        #: Lifetime counters for benchmarks.
        self.leaders = 0
        self.followers = 0

    def join(self, key: K, call: Call) -> bool:
        """Register ``call`` under ``key``; True iff it is the leader."""
        waiting = self._inflight.get(key)
        if waiting is None:
            self._inflight[key] = []
            self.leaders += 1
            return True
        waiting.append(call)
        self.followers += 1
        return False

    def settle(self, key: K) -> list[Call]:
        """The leader's result arrived: pop and return the followers."""
        return self._inflight.pop(key, [])

    def waiting_on(self, key: K) -> int:
        """Number of followers currently riding on ``key``."""
        waiting = self._inflight.get(key)
        return len(waiting) if waiting is not None else 0

    def __len__(self) -> int:
        return len(self._inflight)

    def __contains__(self, key: K) -> bool:
        return key in self._inflight
