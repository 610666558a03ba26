"""The parallel bounded buffer of §2.8.2.

"Several producers and consumers are allowed to call the Deposit and
Remove procedures of a shared buffer that can hold a finite number of
potentially long messages. ... When the manager accepts a call to
Deposit[i], it allocates a free buffer slot and supplies its index as a
hidden parameter to Deposit[i]. ... Once the manager starts a Deposit[i]
or Remove[i] in this manner, it can access the buffer without further
synchronization."

The point (versus §2.4.1's serial buffer) is that *copying long messages*
happens outside the manager's critical path: many deposits and removes
proceed in parallel on disjoint slots.  The manager keeps two index lists,
``Free`` and ``Full``, and never remembers which slot it handed to which
procedure — each body returns its slot index as a hidden result.

Faithful to the paper's code, a deposited slot index enters ``Full`` only
when the deposit *finishes* (await → finish), and a removed slot re-enters
``Free`` only when the remove finishes.
"""

from __future__ import annotations

from collections import deque
from typing import Any

from ..core import AcceptGuard, AlpsObject, AwaitGuard, Finish, Start, entry, manager_process
from ..kernel.syscalls import Charge, Select


class ParallelBuffer(AlpsObject):
    """``object Buffer`` (§2.8.2) — parallel deposits and removes.

    Configuration: ``size`` (N buffer slots), ``producer_max`` and
    ``consumer_max`` (hidden array sizes), ``copy_work`` (ticks to copy a
    message — the "potentially long messages"; may also be a callable
    message → ticks).
    """

    def setup(
        self,
        size: int = 8,
        producer_max: int = 4,
        consumer_max: int = 4,
        copy_work: Any = 20,
    ) -> None:
        if size < 1:
            raise ValueError(f"buffer size must be >= 1, got {size}")
        self.size = size
        self.producer_max = producer_max
        self.consumer_max = consumer_max
        self.copy_work = copy_work
        self.buf: list[Any] = [None] * size

    def _work_for(self, message: Any) -> int:
        if callable(self.copy_work):
            return int(self.copy_work(message))
        return int(self.copy_work)

    @entry(array="producer_max", hidden_params=1, hidden_results=1)
    def deposit(self, message, place):
        """``Buf[Place] := M`` — copy into the hidden-parameter slot."""
        work = self._work_for(message)
        if work:
            yield Charge(work, label="deposit-copy")
        self.buf[place] = message
        return place  # hidden result: the slot index, back to the manager

    @entry(returns=1, array="consumer_max", hidden_params=1, hidden_results=1)
    def remove(self, place):
        """``M := Buf[Place]`` — copy out of the hidden-parameter slot."""
        message = self.buf[place]
        work = self._work_for(message)
        if work:
            yield Charge(work, label="remove-copy")
        return (message, place)

    @manager_process(intercepts=["deposit", "remove"])
    def mgr(self):
        # Free: slot indices holding no message; Full: indices holding one.
        free: deque[int] = deque(range(self.size))
        full: deque[int] = deque()
        select = Select(
            # accept Deposit[i] when a free slot exists
            AcceptGuard(self, "deposit", when=lambda: bool(free)),
            # accept Remove[i] when a full slot exists
            AcceptGuard(self, "remove", when=lambda: bool(full)),
            # await/finish either; hidden results carry the slot back
            AwaitGuard(self, "deposit"),
            AwaitGuard(self, "remove"),
        )
        while True:
            result = yield select
            call = result.value
            if isinstance(result.guard, AcceptGuard):
                if call.entry == "deposit":
                    yield Start(call, free.popleft())
                else:
                    yield Start(call, full.popleft())
            else:
                (place,) = call.hidden_results
                yield Finish(call)
                if call.entry == "deposit":
                    full.append(place)
                else:
                    free.append(place)
