"""The readers–writers database of §2.5.1.

"A reader's request gets delayed only if a writer is updating the database
or there are too many readers already using the database. ... A writer's
request gets delayed only if a reader or writer is currently using the
database.  No reader or writer should be delayed indefinitely."

This example shows hidden procedure arrays: ``read`` is *defined* as a
single procedure but *implemented* as ``Read[1..ReadMax]``, so up to
``ReadMax`` readers run simultaneously while the manager tracks only a
count.  Starvation freedom follows the paper's program: a read is accepted
when there are no pending writes *or a writer has just used the database*;
a write is accepted when no readers are active and there are no pending
reads *or a writer is due its turn*.
"""

from __future__ import annotations

from typing import Any

from ..core import AcceptGuard, AlpsObject, AwaitGuard, Finish, Start, entry, manager_process
from ..kernel.syscalls import Charge, Select


class Database(AlpsObject):
    """``object Database`` with bounded reader concurrency.

    Configuration: ``read_max`` (max simultaneous readers), ``read_work``
    and ``write_work`` (simulated body service times in ticks).
    """

    def setup(
        self,
        read_max: int = 4,
        read_work: int = 10,
        write_work: int = 20,
        initial: dict | None = None,
    ) -> None:
        if read_max < 1:
            raise ValueError(f"read_max must be >= 1, got {read_max}")
        self.read_max = read_max
        self.read_work = read_work
        self.write_work = write_work
        # The database itself, declared in the shared data part.
        self.data: dict[Any, Any] = dict(initial or {})
        #: Exclusion-invariant instrumentation (checked by tests).
        self.active_readers = 0
        self.active_writers = 0
        self.max_concurrent_readers = 0
        self.exclusion_violations = 0

    @entry(returns=1, array="read_max")
    def read(self, key):
        self.active_readers += 1
        self.max_concurrent_readers = max(
            self.max_concurrent_readers, self.active_readers
        )
        if self.active_writers:
            self.exclusion_violations += 1
        if self.active_readers > self.read_max:
            self.exclusion_violations += 1
        if self.read_work:
            yield Charge(self.read_work, label="read")
        value = self.data.get(key)
        self.active_readers -= 1
        return value

    @entry
    def write(self, key, value):
        self.active_writers += 1
        if self.active_writers > 1 or self.active_readers:
            self.exclusion_violations += 1
        if self.write_work:
            yield Charge(self.write_work, label="write")
        self.data[key] = value
        self.active_writers -= 1

    @manager_process(intercepts=["read", "write"])
    def mgr(self):
        read_count = 0   # active readers
        writer_last = False  # a writer has just used the database
        writing = False
        # One Select for every iteration: the conditions read the state
        # above through their closures.
        select = Select(
            # (i:1..ReadMax) accept Read[i]
            #   when ReadCount < ReadMax and not writing
            #        and (#Write = 0 or WriterLast)
            AcceptGuard(
                self,
                "read",
                when=lambda: (
                    read_count < self.read_max
                    and not writing
                    and (self.pending("write") == 0 or writer_last)
                ),
            ),
            # accept Write when ReadCount = 0 and not writing
            #   and (#Read = 0 or not WriterLast)
            AcceptGuard(
                self,
                "write",
                when=lambda: (
                    read_count == 0
                    and not writing
                    and (self.pending("read") == 0 or not writer_last)
                ),
            ),
            # (i:1..ReadMax) await Read[i] => finish Read[i]
            AwaitGuard(self, "read"),
            AwaitGuard(self, "write"),
        )
        while True:
            result = yield select
            fired = result.guard
            call = result.value
            if isinstance(fired, AcceptGuard):
                if call.entry == "read":
                    read_count += 1
                    writer_last = False
                    yield Start(call)  # asynchronous: readers overlap
                else:
                    writing = True
                    yield Start(call)
            else:  # an await fired: endorse the termination
                if call.entry == "read":
                    read_count -= 1
                else:
                    writing = False
                    writer_last = True
                yield Finish(call)
