"""A writable key→value store: the canonical replication target.

The paper's :class:`~repro.stdlib.Dictionary` is read-only (plus
combining); replication needs an object whose entries *mutate* shared
data so write forwarding and convergence are observable.  ``KVStore``
keeps a plain mapping and exposes idempotent write entries (``put`` and
``delete`` are last-writer-wins), which is exactly the contract
at-least-once replication wants: re-applying a forwarded or re-queued
write leaves the same state.

No manager: every entry runs unmanaged (a server process per call), so
the store is maximally concurrent and all ordering comes from the
replication layer's version sequencing.  The ``ping`` entry lets a
:class:`~repro.faults.Heartbeat` watch the store directly, without a
co-located :class:`~repro.faults.Beacon`.
"""

from __future__ import annotations

from ..core import (
    ACCEPT_PRI,
    AWAIT_PRI,
    SHED_PRI,
    AcceptGuard,
    AlpsObject,
    AwaitGuard,
    DeadlineSweepGuard,
    Finish,
    PredictedWaitGuard,
    Reject,
    ShedGuard,
    Start,
    entry,
    manager_process,
)
from ..kernel.syscalls import Charge, Select


class KVStore(AlpsObject):
    """``object KVStore`` — a mutable mapping with chargeable work.

    Configuration: ``data`` (initial mapping), ``read_work`` /
    ``write_work`` (ticks one get / one put-or-delete takes).
    """

    def setup(
        self,
        data: dict | None = None,
        read_work: int = 0,
        write_work: int = 0,
    ) -> None:
        self.data = dict(data or {})
        self.read_work = read_work
        self.write_work = write_work
        #: Operation counters (tests/benches).
        self.reads_served = 0
        self.writes_applied = 0

    @entry(returns=1)
    def get(self, key):
        """Return the value stored under ``key`` (None when absent)."""
        if self.read_work:
            yield Charge(self.read_work, label="get")
        self.reads_served += 1
        return self.data.get(key)

    @entry(returns=1)
    def put(self, key, value):
        """Store ``value`` under ``key``; returns the value (idempotent)."""
        if self.write_work:
            yield Charge(self.write_work, label="put")
        self.data[key] = value
        self.writes_applied += 1
        return value

    @entry(returns=1)
    def delete(self, key):
        """Remove ``key``; returns the removed value (idempotent)."""
        if self.write_work:
            yield Charge(self.write_work, label="delete")
        self.writes_applied += 1
        return self.data.pop(key, None)

    @entry(returns=1)
    def size(self):
        return len(self.data)

    @entry(returns=1)
    def ping(self):
        return "ok"


class GatedKVStore(AlpsObject):
    """``object GatedKVStore`` — a KV store behind an admitting manager.

    The unmanaged :class:`KVStore` stays maximally concurrent for the
    replication layer; this variant fronts the same three operations with
    a manager that applies admission control, for open-loop traffic that
    can outrun the store.  Bodies still run concurrently (the manager
    ``Start``\\ s them and reclaims slots via ``await``), so the manager
    adds gating, not serialization.

    Configuration: ``data`` (initial mapping), ``read_work`` /
    ``write_work`` (ticks per operation), ``request_max`` (hidden array
    size per entry), ``queue_cap`` (admission control: shed an entry's
    calls once more than ``queue_cap`` are pending, §2.5.1 ``#P``).
    """

    OPS = ("get", "put", "delete")

    def setup(
        self,
        data: dict | None = None,
        read_work: int = 0,
        write_work: int = 0,
        request_max: int = 16,
        queue_cap: int | None = None,
    ) -> None:
        self.data = dict(data or {})
        self.read_work = read_work
        self.write_work = write_work
        self.request_max = request_max
        self.queue_cap = queue_cap
        self.reads_served = 0
        self.writes_applied = 0

    @entry(returns=1, array="request_max")
    def get(self, key):
        if self.read_work:
            yield Charge(self.read_work, label="get")
        self.reads_served += 1
        return self.data.get(key)

    @entry(returns=1, array="request_max")
    def put(self, key, value):
        if self.write_work:
            yield Charge(self.write_work, label="put")
        self.data[key] = value
        self.writes_applied += 1
        return value

    @entry(returns=1, array="request_max")
    def delete(self, key):
        if self.write_work:
            yield Charge(self.write_work, label="delete")
        self.writes_applied += 1
        return self.data.pop(key, None)

    @manager_process(intercepts=["get", "put", "delete"])
    def mgr(self):
        cap = self.queue_cap
        # The arms are loop-invariant: one Select, yielded every iteration.
        if cap is None:
            guards = [AwaitGuard(self, op) for op in self.OPS]
            guards += [AcceptGuard(self, op) for op in self.OPS]
        else:
            guards = [AwaitGuard(self, op, pri=AWAIT_PRI) for op in self.OPS]
            # Latency-aware arms: sweep dead queued calls, then shed
            # deadlined calls that cannot be served in time, then the
            # plain queue cap — all before admitting new work.
            guards += [DeadlineSweepGuard(self, op) for op in self.OPS]
            guards += [PredictedWaitGuard(self, op) for op in self.OPS]
            guards += [
                ShedGuard(self, op, cap=cap, pri=SHED_PRI) for op in self.OPS
            ]
            guards += [AcceptGuard(self, op, pri=ACCEPT_PRI) for op in self.OPS]
        select = Select(guards)
        while True:
            result = yield select
            call = result.value
            if isinstance(result.guard, ShedGuard):
                yield Reject(call, reason=result.guard.reason)
            elif isinstance(result.guard, AcceptGuard):
                # Async start: bodies overlap, the manager only gates.
                yield Start(call)
            else:
                yield Finish(call)
