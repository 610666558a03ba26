"""The seven perf-lab workloads.

Each builder takes the workload seed and returns a :class:`Scenario`:
the program under test fully constructed (objects placed, request
schedule fixed, client processes spawned) but not yet run.  The seed
feeds only the input generators in this file — arrival times, key
streams, searched words — so the program receives generated inputs and
a change to ``repro.workloads``'s own samplers cannot move the offered
load.  ``Scenario.run()`` drives the kernel; ``Scenario.finish()`` runs
the workload's output checks and reduces the run to a :class:`RunResult`.

Sizing: the issue's N per workload times ``SCALE`` — one factor for all
seven, so the driver's 158 runs fit its time cap (see README.md).
"""

from __future__ import annotations

import bisect
import itertools
import random
from dataclasses import dataclass, field
from typing import Any, Callable

from repro.channels import Channel, ReceiveGuard, Send
from repro.core import PoolConfig
from repro.faults import FaultPlan, install
from repro.kernel import Charge, CostModel, Delay, Kernel, Select, Timeout
from repro.net import Network, ring
from repro.obs import MemorySink
from repro.replication import Replicated
from repro.stdlib import BoundedBuffer, Dictionary, GatedKVStore, KVStore, Supervisor
from repro.workloads import TrafficEngine, watch_traffic

#: Every N in the issue's workload table is multiplied by this.
SCALE = 0.5

class CheckFailed(AssertionError):
    """An output check of a workload did not hold."""


def check(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def scaled(n: int) -> int:
    return max(1, round(n * SCALE))


@dataclass
class RunResult:
    """One finished run, reduced to what the metrics are computed from."""

    n: int  #: ops issued (the constant denominator of every per-op metric)
    #: (status, virtual latency) per op; latency is None unless served.
    ops: list[tuple[str, int | None]]
    start: int  #: first scheduled arrival / first issue (virtual ticks)
    end: int  #: last completion (virtual ticks)
    #: Workload-specific facts for the per-layer metrics.
    extra: dict[str, Any] = field(default_factory=dict)


@dataclass
class Scenario:
    kernel: Kernel
    run: Callable[[], None]  #: drives the kernel; the only part instrumented
    finish: Callable[[], RunResult]  #: output checks, then the reduction


# -- input generators (perflab's own; seeded only by the workload seed) ----


class Arrivals:
    """A pre-generated arrival schedule in ``ArrivalProcess`` clothing."""

    def __init__(self, times: list[int]) -> None:
        self.times = times

    def arrivals(self, count: int) -> list[int]:
        check(count == len(self.times), "schedule length != request count")
        return list(self.times)


def poisson_times(seed: int, mean_gap: float, count: int) -> list[int]:
    """``count`` Poisson arrivals over exactly ``count * mean_gap`` ticks.

    A Poisson process conditioned on its count is ``count`` independent
    uniform instants, sorted — so the offered rate is the same for every
    seed and only the arrival pattern (bursts, lulls) varies.  Drawing
    exponential gaps instead lets the total span wander by 1/sqrt(count)
    (3% at 1200), which would show up as noise in every per-tick metric.
    """
    rng = random.Random(f"perflab:arrivals:{seed}")
    horizon = round(count * mean_gap)
    return sorted(rng.randrange(horizon) for _ in range(count))


def zipf_keys(seed: int, keys: int, s: float, count: int) -> list[str]:
    rng = random.Random(f"perflab:keys:{seed}")
    cumulative = list(itertools.accumulate(1.0 / rank**s for rank in range(1, keys + 1)))
    total = cumulative[-1]
    return [
        f"k{min(bisect.bisect_left(cumulative, rng.random() * total), keys - 1)}"
        for _ in range(count)
    ]


def uniform_keys(seed: int, keys: int, count: int) -> list[str]:
    rng = random.Random(f"perflab:keys:{seed}")
    return [f"k{rng.randrange(keys)}" for _ in range(count)]


# -- open loop: the KV family ------------------------------------------------


def _traffic_result(engine: TrafficEngine, bounded: bool = False) -> RunResult:
    """Conservation + ``error == 0`` checks, then the engine's outcomes as ops.

    A run cut off by ``until`` (``bounded``) may leave requests in flight
    with no outcome: they are ``unaccounted`` ops — a failure of the run,
    reported as such — not an imbalance in the engine's books.
    """
    result = engine.result
    in_flight = result.issued - len(result.outcomes) if bounded else 0
    if not in_flight:
        result.check_conservation()
    counts = result.counts
    check(counts["error"] == 0, f"{counts['error']} requests ended in error")
    outcomes = sorted(result.outcomes, key=lambda o: o.request.index)
    ops = [(o.status, o.latency if o.status == "ok" else None) for o in outcomes]
    return RunResult(
        n=result.issued,
        ops=ops + [("unaccounted", None)] * in_flight,
        start=min(o.request.at for o in outcomes),
        end=max(o.finished_at for o in outcomes),
        extra={"late_issue": [o.issued_at - o.request.at for o in outcomes]},
    )


def _kv(seed: int, n: int, mean_gap: float, observed: bool) -> Scenario:
    kernel = Kernel(seed=seed, spans=observed)
    kv = GatedKVStore(kernel, name="kv", read_work=2, write_work=6,
                      request_max=8, queue_cap=16)
    keys = zipf_keys(seed, 256, 1.2, n)
    kinds = ["put" if i % 3 == 0 else "get" for i in range(n)]

    def request(req):
        key = keys[req.index]
        if kinds[req.index] == "put":
            return kv.put(key, req.index)
        return kv.get(key)

    engine = TrafficEngine(
        kernel, Arrivals(poisson_times(seed, mean_gap, n)), n, request,
        callers=1_000_000, engines=4, clients=48, seed=seed,
    )
    sink = None
    if observed:
        sink = kernel.obs.add_sink(MemorySink())
        plane = kernel.obs.live
        plane.stream_snapshots(every=2)
        watch_traffic(plane, engine, objective=0.9, window=1200, fast=600,
                      slow=3000, key=lambda o: keys[o.request.index])

    def run() -> None:
        engine.start()
        kernel.run()

    def finish() -> RunResult:
        result = _traffic_result(engine)
        # A served put returns what it stored; a served get returns nothing
        # or a value some put stored under that key; the store ends up
        # holding exactly the keys of the served puts.
        put_keys = set()
        for outcome in engine.result.outcomes:
            if outcome.status != "ok":
                continue
            index, value = outcome.request.index, outcome.value
            if kinds[index] == "put":
                check(value == index, f"put #{index} returned {value!r}")
                put_keys.add(keys[index])
            else:
                check(value is None or (kinds[value] == "put" and keys[value] == keys[index]),
                      f"get #{index} of {keys[index]!r} returned {value!r}")
        check(set(kv.data) == put_keys, "store keys != keys of the served puts")
        if sink is not None:
            records = sink.records
            result.extra["spans"] = sum(1 for r in records if r.get("type") == "span")
            result.extra["live_snapshots"] = sum(
                1 for r in records if r.get("kind") == "live.snapshot")
        return result

    return Scenario(kernel, run, finish)


def kv_steady(seed: int, n: int | None = None) -> Scenario:
    return _kv(seed, n or scaled(2400), 12, observed=False)


def kv_overload(seed: int, n: int | None = None) -> Scenario:
    return _kv(seed, n or scaled(2400), 5, observed=False)


def kv_observed(seed: int, n: int | None = None) -> Scenario:
    return _kv(seed, n or scaled(2400), 12, observed=True)


# -- open loop: replicated KV through a crash --------------------------------


def repl_crash(seed: int, n: int | None = None) -> Scenario:
    n = n or scaled(1500)
    gap = 40
    span = n * gap
    kernel = Kernel(seed=seed)
    net = ring(kernel, 6)
    plan = FaultPlan(seed=seed, detection_delay=20).crash_node(
        "n0", at=span // 3, restart_at=span // 3 + 1400)
    runtime = install(kernel, net, plan)
    sup = net.node("n5").place(Supervisor(kernel, name="sup", faults=runtime))
    rep = Replicated(
        lambda name: KVStore(kernel, name=name), net, 3,
        writes=("put", "delete"), nodes=["n0", "n2", "n4"], supervisor=sup,
        call_timeout=60, heartbeat_interval=40, seed=seed,
    )
    keys = uniform_keys(seed, 64, n)
    kinds = ["put" if i % 2 == 0 else "get" for i in range(n)]

    def request(req):
        key = keys[req.index]
        if kinds[req.index] == "put":
            return rep.put(key, req.index)
        return rep.get(key)

    engine = TrafficEngine(
        kernel, Arrivals(poisson_times(seed, gap, n)), n, request,
        callers=1_000_000, engines=4, clients=48, seed=seed,
    )

    def run() -> None:
        engine.start()
        kernel.run(until=span + 2000)

    def finish() -> RunResult:
        result = _traffic_result(engine, bounded=True)
        # Durability audit (as E13): the last acknowledged write of every
        # key is on every replica the view believes is live.
        acked: dict[str, int] = {}
        for outcome in sorted(engine.result.outcomes, key=lambda o: o.finished_at):
            if outcome.status == "ok" and kinds[outcome.request.index] == "put":
                acked[keys[outcome.request.index]] = outcome.request.index
        lost = 0
        for rname in rep.view.live():
            data = rep.replica(rname).data
            lost += sum(1 for key, value in acked.items() if data.get(key) != value)
        check(lost == 0, f"{lost} acknowledged writes missing from a live replica")
        staleness = rep.staleness()
        result.extra["stale_max"] = max(staleness) if staleness else 0
        for kind in ("put", "get"):
            result.extra[f"{kind}_latencies"] = [
                o.latency for o in engine.result.outcomes
                if o.status == "ok" and kinds[o.request.index] == kind
            ]
        return result

    return Scenario(kernel, run, finish)


# -- closed loops ------------------------------------------------------------


def _closed_result(n: int, latencies: list[int], end: int) -> RunResult:
    check(len(latencies) == n, f"{len(latencies)} ops completed, expected {n}")
    return RunResult(n=n, ops=[("ok", lat) for lat in latencies], start=0, end=end)


def _check_fifo(received: list[tuple[int, int]], producers: int, per_producer: int,
                what: str) -> None:
    """Every (producer, seq) message once, each producer's in send order."""
    check(len(received) == producers * per_producer,
          f"{what}: {len(received)} messages received, "
          f"expected {producers * per_producer}")
    next_seq = [0] * producers
    for producer, seq in received:
        check(seq == next_seq[producer],
              f"{what}: producer {producer} message {seq} arrived "
              f"when {next_seq[producer]} was due")
        next_seq[producer] += 1
    check(all(s == per_producer for s in next_seq), f"{what}: messages missing")


def buffer_closed(seed: int, n: int | None = None) -> Scenario:
    pairs = 4
    per = (n or scaled(2400)) // (2 * pairs)
    n = 2 * pairs * per
    kernel = Kernel(seed=seed)
    buf = BoundedBuffer(kernel, name="buf", size=4)
    clock = kernel.clock
    latencies: list[int] = []
    received: list[tuple[int, int]] = []
    # The seed only picks the payloads; the schedule is the closed loop's.
    rng = random.Random(f"perflab:payload:{seed}")
    payloads = [[rng.randrange(1 << 30) for _ in range(per)] for _ in range(pairs)]
    corrupted: list[tuple[int, int]] = []

    def producer(p: int):
        for i in range(per):
            issued = clock.now
            yield buf.deposit((p, i, payloads[p][i]))
            latencies.append(clock.now - issued)

    def consumer():
        for _ in range(per):
            issued = clock.now
            p, i, value = yield buf.remove()
            latencies.append(clock.now - issued)
            received.append((p, i))
            if value != payloads[p][i]:
                corrupted.append((p, i))

    for p in range(pairs):
        kernel.spawn(producer, p, name=f"producer{p}")
        kernel.spawn(consumer, name=f"consumer{p}")

    def finish() -> RunResult:
        _check_fifo(received, pairs, per, "buffer")
        check(not corrupted, f"buffer: payloads corrupted: {corrupted[:5]}")
        return _closed_result(n, latencies, clock.now)

    return Scenario(kernel, kernel.run, finish)


def pool_smp(seed: int, n: int | None = None) -> Scenario:
    clients = 32
    per = (n or scaled(3200)) // clients
    n = clients * per
    kernel = Kernel(costs=CostModel(process_create=300, lwp_create=5, context_switch=1),
                    seed=seed)
    net = Network(kernel, name="smp")
    node = net.add_node("server", cpus=4)
    entries = {f"w{i}": f"meaning-of-w{i}" for i in range(512)}
    dictionary = node.place(Dictionary(
        kernel, name="dict", entries=entries, search_max=16, search_work=30,
        combining=False, pool=PoolConfig("shared", size=4),
    ))
    rng = random.Random(f"perflab:words:{seed}")
    words = [[f"w{rng.randrange(512)}" for _ in range(per)] for _ in range(clients)]
    clock = kernel.clock
    latencies: list[int] = []
    wrong: list[str] = []

    def client(c: int):
        for word in words[c]:
            issued = clock.now
            meaning = yield dictionary.search(word)
            latencies.append(clock.now - issued)
            if meaning != entries[word]:
                wrong.append(word)

    for c in range(clients):
        kernel.spawn(client, c, name=f"client{c}")

    def finish() -> RunResult:
        check(not wrong, f"pool_smp: {len(wrong)} searches returned a wrong meaning")
        return _closed_result(n, latencies, clock.now)

    return Scenario(kernel, kernel.run, finish)


def chan_timer(seed: int, n: int | None = None) -> Scenario:
    pairs = 4
    per = (n or scaled(8000)) // pairs
    n = pairs * per
    kernel = Kernel(num_cpus=1, seed=seed)
    clock = kernel.clock
    latencies: list[int] = []
    rng = random.Random(f"perflab:payload:{seed}")
    corrupted: list[tuple[int, int]] = []
    all_received: list[list[tuple[int, int]]] = []

    def make_pair(p: int) -> None:
        chans = [Channel(capacity=4, name=f"pair{p}.c{c}") for c in range(3)]
        payloads = [rng.randrange(1 << 30) for _ in range(per)]
        received: list[tuple[int, int]] = []
        all_received.append(received)

        def producer():
            for i in range(per):
                yield Charge(2)
                yield Send(chans[i % 3], i, payloads[i], clock.now)
                if i % 16 == 15:
                    yield Delay(40)

        def consumer():
            got = 0
            while got < per:
                result = yield Select(*[ReceiveGuard(ch) for ch in chans], Timeout(25))
                if result.index == 3:  # the Timeout guard
                    continue
                i, value, sent_at = result.value
                yield Charge(1)
                latencies.append(clock.now - sent_at)
                received.append((result.index, i))
                if value != payloads[i]:
                    corrupted.append((p, i))
                got += 1

        kernel.spawn(producer, name=f"producer{p}")
        kernel.spawn(consumer, name=f"consumer{p}")

    for p in range(pairs):
        make_pair(p)

    def finish() -> RunResult:
        for p, received in enumerate(all_received):
            _check_channels(received, per, f"pair{p}")
        check(not corrupted, f"chan_timer: payloads corrupted: {corrupted[:5]}")
        return _closed_result(n, latencies, clock.now)

    return Scenario(kernel, kernel.run, finish)


def _check_channels(received: list[tuple[int, int]], per: int, what: str) -> None:
    check(sorted(i for _c, i in received) == list(range(per)),
          f"{what}: messages lost or duplicated")
    last = [-1, -1, -1]
    for chan, i in received:
        check(i % 3 == chan, f"{what}: message {i} arrived on channel {chan}")
        check(i > last[chan], f"{what}: channel {chan} delivered {i} after {last[chan]}")
        last[chan] = i


@dataclass(frozen=True)
class Workload:
    name: str
    build: Callable[..., Scenario]
    why: str  #: one line; BENCHMARK.json carries the same text
    #: Input seeds measured per run.  Open loops pool the ops of several
    #: trials for the virtual-time metrics (12 samples beyond p99 in one
    #: trial of 1200 is a coin toss between seeds: p99 spread 20% at one
    #: trial, 9% at 8, so the served-everything KV pair takes 16); a closed
    #: loop's schedule does not depend on its seed, so one trial says it all.
    trials: int = 1
    #: Workload that must produce the identical fingerprint at the same seed.
    twin: str | None = None


WORKLOADS: dict[str, Workload] = {w.name: w for w in (
    Workload("kv_steady", kv_steady,
             "End-to-end row: open-loop Zipf KV traffic at 0.67x the knee through "
             "client spawn, manager select/accept/execute, body and reply; all served.",
             trials=16),
    Workload("kv_overload", kv_overload,
             "Same object at 1.4x the knee: core's shed/sweep/predicted-wait arms "
             "run instead of accept/execute, so a change that helps serving but "
             "costs rejecting shows.",
             trials=8),
    Workload("kv_observed", kv_observed,
             "kv_steady's traffic with spans, a memory sink and the live plane on: "
             "prices obs against its twin and checks it is schedule-neutral.",
             trials=16, twin="kv_steady"),
    Workload("repl_crash", repl_crash,
             "Whole stack: 3-replica KV on a 6-ring through a primary crash, "
             "failover, promotion and catch-up; only workload where faults and "
             "replication do work.",
             trials=8),
    Workload("buffer_closed", buffer_closed,
             "The paper's own benchmark (E1 shape): closed-loop accept/start/await/"
             "finish through one manager; where a multiactive runtime must move "
             "goodput."),
    Workload("pool_smp", pool_smp,
             "E6SMP shape: shared pool of 4 on a 4-CPU node; the only workload on "
             "the SMP scheduler path (submit, steal, balance)."),
    Workload("chan_timer", chan_timer,
             "No ALPS objects: channels, selects and mostly-cancelled timers on the "
             "cpus=1 scheduler path; any object-layer change must leave it unmoved."),
)}
