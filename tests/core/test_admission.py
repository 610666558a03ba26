"""Tests for admission control: ShedGuard, Reject, AdmissionError."""

from types import SimpleNamespace

import pytest

from repro.core import (
    ACCEPT_PRI,
    SHED_PRI,
    AcceptGuard,
    AlpsObject,
    Reject,
    ShedGuard,
    entry,
    manager_process,
)
from repro.errors import AdmissionError, ProtocolError
from repro.kernel import Delay, Kernel, Select
from repro.kernel.costs import FREE
from repro.stdlib import (
    BoundedBuffer,
    DiskScheduler,
    GatedKVStore,
    ResourceAllocator,
    Spooler,
)
from repro.workloads import Poisson, TrafficEngine


class Gated(AlpsObject):
    """Minimal capped server: serves slowly, sheds past the cap."""

    def setup(self, work: int = 10, cap: int = 2, request_max: int = 32) -> None:
        self.work = work
        self.cap = cap
        self.request_max = request_max

    @entry(returns=1, array="request_max")
    def op(self, x):
        yield Delay(self.work)
        return x

    @manager_process(intercepts=["op"])
    def mgr(self):
        while True:
            result = yield Select(
                ShedGuard(self, "op", cap=self.cap, pri=SHED_PRI),
                AcceptGuard(self, "op", pri=ACCEPT_PRI),
            )
            call = result.value
            if isinstance(result.guard, ShedGuard):
                yield Reject(call)
                continue
            yield from self.execute(call)


def flood(kernel, obj, n, collect):
    """Spawn n concurrent callers; collect (index, status) per call."""

    def caller(i):
        def body():
            try:
                value = yield obj.op(i)
            except AdmissionError as exc:
                collect.append((i, "shed", exc))
            else:
                collect.append((i, "ok", value))

        return body

    for i in range(n):
        kernel.spawn(caller(i), name=f"c{i}")


def queued(*elements):
    """Stand-ins for attached calls, in element order: (slot, attached_at)."""
    return [SimpleNamespace(slot=slot, attached_at=at) for slot, at in elements]


class TestShedGuard:
    def test_sheds_past_cap(self):
        kernel = Kernel(costs=FREE)
        obj = Gated(kernel, work=10, cap=2)
        outcomes = []
        flood(kernel, obj, 12, outcomes)
        kernel.run()
        statuses = [s for _, s, _ in outcomes]
        assert statuses.count("ok") + statuses.count("shed") == 12
        assert statuses.count("shed") > 0
        assert kernel.stats.calls_shed == statuses.count("shed")

    def test_admission_error_carries_context(self):
        kernel = Kernel(costs=FREE)
        obj = Gated(kernel, name="gated", work=10, cap=0)
        outcomes = []
        flood(kernel, obj, 6, outcomes)
        kernel.run()
        sheds = [exc for _, s, exc in outcomes if s == "shed"]
        assert sheds
        exc = sheds[0]
        assert exc.obj == "gated"
        assert exc.entry == "op"
        assert exc.reason == "queue-cap"
        assert "shed" in str(exc)

    def test_no_cap_no_shed(self):
        kernel = Kernel(costs=FREE)
        obj = Gated(kernel, work=1, cap=10_000)
        outcomes = []
        flood(kernel, obj, 8, outcomes)
        kernel.run()
        assert all(s == "ok" for _, s, _ in outcomes)
        assert kernel.stats.calls_shed == 0

    def test_negative_cap_rejected(self, kernel):
        obj = Gated(kernel)
        with pytest.raises(ValueError):
            ShedGuard(obj, "op", cap=-3)

    def test_describe_mentions_cap(self, kernel):
        obj = Gated(kernel)
        guard = ShedGuard(obj, "op", cap=7)
        assert "7" in guard.describe()
        assert "shed" in guard.describe()

    def test_sheds_the_oldest_attached_call(self, kernel):
        # Candidates come in element order; the first of the oldest wins.
        guard = ShedGuard(Gated(kernel), "op", cap=0)
        calls = queued((0, 9), (1, 4), (2, 4))
        assert guard.choose(kernel, calls) is calls[1]


class TestRejectProtocol:
    def test_reject_requires_accepted_state(self):
        # Reject after Start is a protocol violation (the call left the
        # ACCEPTED state), reported like every other protocol misuse.
        from repro.core import Start

        kernel = Kernel(costs=FREE)

        class Bad(AlpsObject):
            @entry(returns=1)
            def op(self):
                return 1

            @manager_process(intercepts=["op"])
            def mgr(self):
                result = yield Select(AcceptGuard(self, "op"))
                call = result.value
                yield Start(call)
                yield Reject(call)

        obj = Bad(kernel)

        def main():
            yield obj.op()

        with pytest.raises(ProtocolError):
            kernel.run_process(main)

    def test_shed_slot_is_reusable(self):
        # Rejecting detaches the call and frees its array slot.  With a
        # single slot and cap=0, all five callers get an answer (shed);
        # if Reject leaked the slot, callers 2..5 would stall forever.
        kernel = Kernel(costs=FREE)
        obj = Gated(kernel, work=5, cap=0, request_max=1)
        outcomes = []
        flood(kernel, obj, 5, outcomes)
        kernel.run()
        assert len(outcomes) == 5
        assert all(s == "shed" for _, s, _ in outcomes)

    def test_custom_reason(self):
        kernel = Kernel(costs=FREE)

        class Custom(AlpsObject):
            @entry(returns=1)
            def op(self):
                return 1

            @manager_process(intercepts=["op"])
            def mgr(self):
                result = yield Select(AcceptGuard(self, "op"))
                yield Reject(result.value, reason="maintenance")

        obj = Custom(kernel)
        caught = []

        def main():
            try:
                yield obj.op()
            except AdmissionError as exc:
                caught.append(exc)

        kernel.run_process(main)
        assert caught and caught[0].reason == "maintenance"


class TestStdlibAdoption:
    def overload(self, kernel, make_call, n=20):
        counts = {"ok": 0, "shed": 0}

        def caller(i):
            def body():
                try:
                    yield make_call(i)
                except AdmissionError:
                    counts["shed"] += 1
                else:
                    counts["ok"] += 1

            return body

        for i in range(n):
            kernel.spawn(caller(i), name=f"c{i}")
        kernel.run()
        return counts

    def test_bounded_buffer_sheds(self):
        kernel = Kernel(costs=FREE)
        buf = BoundedBuffer(kernel, size=2, work=5, queue_cap=2)
        counts = self.overload(
            kernel, lambda i: buf.deposit(i) if i % 2 else buf.remove()
        )
        assert counts["ok"] + counts["shed"] == 20
        assert counts["shed"] > 0

    def test_bounded_buffer_uncapped_never_sheds(self):
        kernel = Kernel(costs=FREE)
        buf = BoundedBuffer(kernel, size=2, work=5)
        counts = self.overload(
            kernel, lambda i: buf.deposit(i) if i % 2 else buf.remove()
        )
        assert counts == {"ok": 20, "shed": 0}

    def test_spooler_sheds(self):
        kernel = Kernel(costs=FREE)
        spool = Spooler(kernel, printers=1, speed=50, job_max=32, queue_cap=1)
        counts = self.overload(kernel, lambda i: spool.print_file(f"doc{i}"))
        assert counts["shed"] > 0
        assert counts["ok"] >= 1

    def test_disk_scheduler_sheds(self):
        kernel = Kernel(costs=FREE)
        disk = DiskScheduler(
            kernel, seek_cost=2, transfer_work=10, request_max=32, queue_cap=2
        )
        counts = self.overload(kernel, lambda i: disk.access((i * 37) % 200))
        assert counts["shed"] > 0
        assert counts["ok"] >= 1
        # SCAN still served the accepted requests (service order recorded).
        assert len(disk.service_order) == counts["ok"]

    def test_allocator_sheds_acquire_only(self):
        kernel = Kernel(costs=FREE)
        alloc = ResourceAllocator(kernel, total=2, request_max=64, queue_cap=0)
        counts = {"ok": 0, "shed": 0, "released": 0}

        def acquirer(i):
            def body():
                try:
                    yield alloc.acquire(1)
                    counts["ok"] += 1
                    yield Delay(10)
                    yield alloc.release(1)
                    counts["released"] += 1
                except AdmissionError:
                    counts["shed"] += 1

            return body

        for i in range(10):
            kernel.spawn(acquirer(i), name=f"a{i}")
        kernel.run()
        # Every successful acquire released; no release was ever shed.
        assert counts["released"] == counts["ok"]
        assert counts["shed"] > 0
        assert alloc.available == alloc.total

    def test_gated_kv_store_serves_and_sheds(self):
        kernel = Kernel(costs=FREE)
        kv = GatedKVStore(kernel, write_work=10, request_max=4, queue_cap=1)
        counts = self.overload(kernel, lambda i: kv.put(f"k{i}", i), n=16)
        assert counts["ok"] + counts["shed"] == 16
        assert counts["shed"] > 0
        assert kv.writes_applied == counts["ok"]

    def test_gated_kv_store_concurrent_bodies(self):
        # The manager gates but does not serialize: two slow puts overlap.
        kernel = Kernel(costs=FREE)
        kv = GatedKVStore(kernel, write_work=50, request_max=4, queue_cap=8)
        done = []

        def put(i):
            def body():
                yield kv.put(f"k{i}", i)
                done.append((i, kernel.clock.now))

            return body

        kernel.spawn(put(0), name="p0")
        kernel.spawn(put(1), name="p1")
        kernel.run()
        assert len(done) == 2
        times = [t for _, t in done]
        # Serialized execution would finish the second at ~2x the first.
        assert max(times) < 2 * min(times)


def test_sustained_overload_ages_no_served_call():
    # kv_overload's shape (1.4x the knee, Poisson gap 5) at a quarter of
    # its length.  Shedding the lowest element instead of the oldest call
    # let element 0 turn over while get[3..7] and put[1..7] held calls
    # attached in the first burst until the arrivals stopped.
    kernel = Kernel(seed=11)
    kv = GatedKVStore(kernel, name="kv", read_work=2, write_work=6,
                      request_max=8, queue_cap=16)

    def request(req):
        if req.index % 3 == 0:
            return kv.put(f"k{req.index % 7}", req.index)
        return kv.get(f"k{req.index % 7}")

    engine = TrafficEngine(kernel, Poisson(5, seed=11), 300, request,
                           callers=1000, engines=4, clients=48, seed=11)
    engine.start()
    kernel.run()
    served = sorted(engine.result.latencies("ok"))
    assert len(served) > 150 and engine.result.counts["shed"] > 50
    median = served[len(served) // 2]
    assert served[-1] <= 10 * median, (median, served[-14:])


def test_sustained_overload_ages_no_served_spooler_job():
    # E14's spooler cell (three printers, eight job elements, cap 12)
    # under Poisson arrivals at gap 4, past its knee.  Shedding the lowest
    # element let the longest served job wait 21x the median.
    kernel = Kernel(seed=11)
    spool = Spooler(kernel, name="spool", printers=3, speed=8, job_max=8,
                    queue_cap=12)

    def request(req):
        return spool.print_file(f"job{req.index}")

    engine = TrafficEngine(kernel, Poisson(4, seed=11), 300, request,
                           callers=1000, engines=4, clients=48, seed=11)
    engine.start()
    kernel.run()
    served = sorted(engine.result.latencies("ok"))
    assert len(served) > 50 and engine.result.counts["shed"] > 100
    median = served[len(served) // 2]
    assert served[-1] <= 10 * median, (median, served[-14:])
