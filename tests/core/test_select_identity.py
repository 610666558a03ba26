"""Schedule identity of the select path, pinned by recorded fingerprints.

The slot index, the hoisted guard lists and the leaner ``_do_select``
change *host* work only.  Every scenario below was run on the commit
before that change and its fingerprint — resumptions, final clock,
modelled ``guard_polls``, commits, selects, the next ``kernel.rng`` draw
and the sorted latencies — stored under ``tests/fixtures/select/``; the
tests assert the current tree still reproduces each one exactly.

Re-record (only when a change is *meant* to move the modelled schedule)::

    PYTHONPATH=src python tests/core/test_select_identity.py
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.core import (
    AcceptGuard,
    AlpsObject,
    AwaitGuard,
    Finish,
    PoolConfig,
    Start,
    entry,
    manager_process,
)
from repro.kernel import CostModel, Kernel, Now, Par, Select
from repro.stdlib import BoundedBuffer, Dictionary, GatedKVStore
from repro.workloads import Poisson, TrafficEngine, Zipf

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures" / "select"


def fingerprint(kernel: Kernel, latencies) -> dict:
    stats = kernel.stats
    return {
        "resumptions": stats.resumptions,
        "clock": kernel.clock.now,
        "guard_polls": stats.guard_polls,
        "commits": stats.commits,
        "selects": stats.selects,
        "rng_next": kernel.rng.random(),
        "latencies": latencies,
    }


def kv_slice(gap: int, arbitration: str, deadline: int | None) -> dict:
    """An E14-shaped ``GatedKVStore`` cell (queue cap on, Zipf keys)."""
    count = 240
    kernel = Kernel(seed=11, arbitration=arbitration)
    kv = GatedKVStore(kernel, name="kv", read_work=2, write_work=6,
                      request_max=8, queue_cap=16)
    keys = list(Zipf([f"k{i}" for i in range(32)], s=1.2, seed=11).stream(count))

    def request(req):
        key = keys[req.index]
        if req.index % 3 == 0:
            return kv.put(key, req.index, deadline=deadline)
        return kv.get(key, deadline=deadline)

    engine = TrafficEngine(kernel, Poisson(gap, seed=11), count, request,
                           callers=1_000_000, engines=4, clients=48, seed=11)
    result = engine.run()
    result.check_conservation()
    by_status = {
        status: sorted(result.latencies(status))
        for status, n in result.counts.items() if n
    }
    out = fingerprint(kernel, by_status)
    out["admission"] = {
        name: value for name, value in kernel.metrics.snapshot().items()
        if name.startswith(("admission.", "deadline."))
    }
    return out


def buffer_e1(size: int) -> dict:
    """E1: two producers and two consumers through one ``BoundedBuffer``."""
    kernel = Kernel()
    buf = BoundedBuffer(kernel, size=size)
    latencies: list[int] = []

    def timed(call):
        start = yield Now()
        value = yield call
        latencies.append((yield Now()) - start)
        return value

    def producer(p):
        for i in range(60):
            yield from timed(buf.deposit((p, i)))

    def consumer():
        for _ in range(60):
            yield from timed(buf.remove())

    for p in range(2):
        kernel.spawn(producer, p)
        kernel.spawn(consumer)
    kernel.run()
    return fingerprint(kernel, sorted(latencies))


def dictionary_pool(combining: bool, arbitration: str) -> dict:
    """``Dictionary`` bodies on a shared pool smaller than the array."""
    kernel = Kernel(seed=3, arbitration=arbitration)
    words = {f"w{i}": f"m{i}" for i in range(6)}
    dic = Dictionary(kernel, entries=words, search_max=6, search_work=20,
                     combining=combining, pool=PoolConfig("shared", size=2))
    latencies: list[int] = []

    def client(c):
        for i in range(8):
            start = yield Now()
            word = f"w{(c * 3 + i) % 6}"
            assert (yield dic.search(word)) == words[word]
            latencies.append((yield Now()) - start)

    for c in range(8):
        kernel.spawn(client, c)
    kernel.run()
    return fingerprint(kernel, sorted(latencies))


def e9_sweep(array_size: int, naive: bool) -> dict:
    """E9's manager, both translations, with every poll charged a tick."""

    class Service(AlpsObject):
        @entry(returns=1, array=array_size)
        def op(self, n):
            return n

        @manager_process(intercepts=["op"])
        def mgr(self):
            while True:
                if naive:
                    guards = [AcceptGuard(self, "op", slot=i)
                              for i in range(array_size)]
                    guards += [AwaitGuard(self, "op", slot=i)
                               for i in range(array_size)]
                else:
                    guards = [AcceptGuard(self, "op"), AwaitGuard(self, "op")]
                result = yield Select(*guards)
                if isinstance(result.guard, AcceptGuard):
                    yield Start(result.value)
                else:
                    yield Finish(result.value)

    kernel = Kernel(costs=CostModel(guard_poll=1))
    service = Service(kernel)
    latencies: list[int] = []

    def caller(n):
        start = yield Now()
        assert (yield service.op(n)) == n
        latencies.append((yield Now()) - start)

    def main():
        yield Par(*[lambda i=i: caller(i) for i in range(32)])

    kernel.run_process(main)
    return fingerprint(kernel, sorted(latencies))


SCENARIOS = {
    "kv_steady_ordered": lambda: kv_slice(12, "ordered", None),
    "kv_overload_ordered": lambda: kv_slice(3, "ordered", None),
    "kv_overload_random": lambda: kv_slice(3, "random", None),
    "kv_overload_deadline": lambda: kv_slice(3, "ordered", 200),
    "kv_overload_deadline_random": lambda: kv_slice(3, "random", 200),
    "buffer_e1_size1": lambda: buffer_e1(1),
    "buffer_e1_size4": lambda: buffer_e1(4),
    "dictionary_pool_combining": lambda: dictionary_pool(True, "ordered"),
    "dictionary_pool_plain_random": lambda: dictionary_pool(False, "random"),
    **{
        f"e9_{'naive' if naive else 'quantified'}_{n}":
            (lambda n=n, naive=naive: e9_sweep(n, naive))
        for n in (4, 16, 64) for naive in (True, False)
    },
}


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_fingerprint_matches_recorded(name):
    recorded = json.loads((FIXTURES / f"{name}.json").read_text())
    assert SCENARIOS[name]() == recorded


def test_fixtures_cover_every_scenario_and_nothing_else():
    assert {p.stem for p in FIXTURES.glob("*.json")} == set(SCENARIOS)


def test_overload_fixtures_exercise_every_admission_arm():
    """The recorded cells really shed, sweep and expire — not vacuous."""
    plain = json.loads((FIXTURES / "kv_overload_ordered.json").read_text())
    assert plain["latencies"]["shed"] and plain["latencies"]["ok"]
    deadlined = json.loads((FIXTURES / "kv_overload_deadline.json").read_text())
    for arm in ("admission.shed.predicted-wait", "admission.shed.queue-cap",
                "admission.swept", "deadline.expired_queued"):
        assert deadlined["admission"][arm] > 0, arm


def test_e9_virtual_time_still_includes_every_modelled_poll():
    """§3's cost model: the naive translation pays per element, per poll."""
    naive = json.loads((FIXTURES / "e9_naive_64.json").read_text())
    quantified = json.loads((FIXTURES / "e9_quantified_64.json").read_text())
    assert naive["guard_polls"] > 10 * quantified["guard_polls"]
    assert naive["clock"] > quantified["clock"]


if __name__ == "__main__":
    FIXTURES.mkdir(parents=True, exist_ok=True)
    for name, run in sorted(SCENARIOS.items()):
        (FIXTURES / f"{name}.json").write_text(
            json.dumps(run(), indent=1, sort_keys=True) + "\n"
        )
        print("recorded", name)
