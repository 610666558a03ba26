"""A cyclic barrier — combining applied to synchronization.

Demonstrates the §2.7 idea ("the manager can combine some of the pending
requests") on a pure synchronization object: ``arrive`` calls accumulate
— the manager accepts them but starts nothing — and when the party is
complete every caller is finished at once.  Each call is answered with
the arrival rank and the generation number, so no body process ever runs:
the barrier is implemented *entirely* by manager combining.
"""

from __future__ import annotations

from ..core import AcceptGuard, AlpsObject, Finish, entry, manager_process
from ..kernel.syscalls import Select


class Barrier(AlpsObject):
    """``object Barrier`` — N-party cyclic barrier via manager combining.

    Configuration: ``parties`` (how many ``arrive`` calls complete a
    generation).  ``arrive`` returns ``(rank, generation)``.
    """

    def setup(self, parties: int = 2) -> None:
        if parties < 1:
            raise ValueError(f"parties must be >= 1, got {parties}")
        self.parties = parties
        self.generation = 0

    @entry(returns=2, array="parties")
    def arrive(self):
        """Never started: the manager answers by combining (§2.7)."""
        raise AssertionError("barrier bodies are never executed")

    @manager_process(intercepts=["arrive"])
    def mgr(self):
        waiting = []
        select = Select(AcceptGuard(self, "arrive"))
        while True:
            result = yield select
            waiting.append(result.value)
            if len(waiting) == self.parties:
                generation = self.generation
                self.generation += 1
                for rank, call in enumerate(waiting):
                    # finish-without-start: fabricate all results (§2.7).
                    yield Finish(call, rank, generation)
                waiting = []
