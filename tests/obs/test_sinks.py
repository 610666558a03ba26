"""Pluggable sinks: JSONL lines, Chrome trace_event, trace forwarding."""

import io
import json

import pytest

from repro import PoolConfig
from repro.faults import FaultPlan, install
from repro.kernel import Delay, Kernel
from repro.kernel.costs import CostModel
from repro.net import Network, ring
from repro.obs import (
    ChromeTraceSink,
    JsonlSink,
    MemorySink,
    Span,
    validate_chrome_trace,
)
from repro.obs.analyze import from_spans
from repro.obs.sinks import from_chrome, validate_live_jsonl
from repro.replication import Replicated
from repro.stdlib import Dictionary, GatedKVStore, KVStore
from repro.workloads import Poisson, TrafficEngine, watch_traffic


def run_workload(kernel):
    store = KVStore(kernel, name="kv")

    def main():
        yield store.put("a", 1)
        yield store.get("a")

    kernel.run_process(main, name="client")


class TestMemorySink:
    def test_records_spans(self):
        kernel = Kernel()
        sink = kernel.obs.add_sink(MemorySink())
        run_workload(kernel)
        spans = sink.spans()
        assert spans
        names = {s["name"] for s in spans}
        assert "kv.put" in names and "kv.get" in names
        for record in spans:
            assert record["end"] >= record["start"]

    def test_add_sink_enables_the_layer(self):
        kernel = Kernel()
        assert not kernel.obs.enabled
        kernel.obs.add_sink(MemorySink())
        assert kernel.obs.enabled


def _traffic(kernel):
    """Gated KV traffic under a live plane: spans, kernel events, live
    snapshots and SLO alerts."""
    kv = GatedKVStore(kernel, read_work=1, write_work=3, request_max=4,
                      queue_cap=4)

    def request(req):
        key = f"k{req.caller % 8}"
        return kv.put(key, req.index) if req.index % 3 == 0 else kv.get(key)

    engine = TrafficEngine(kernel, Poisson(3, seed=7), 120, request,
                           callers=1000, engines=4, clients=6, seed=7,
                           deadline=40)
    plane = kernel.obs.live
    watch_traffic(plane, engine, objective=0.99, window=500, fast=500,
                  slow=2500, key=lambda o: f"k{o.request.caller % 8}")
    plane.stream_snapshots(2)
    engine.run()


def _smp_pool(kernel):
    """A shared pool of 4 on a 4-CPU node: the scheduler tags the spans
    of the calls its workers run with their CPU."""
    node = Network(kernel, name="smp").add_node("server", cpus=4)
    dictionary = node.place(Dictionary(
        kernel, name="dict", entries={f"w{i}": i for i in range(32)},
        search_max=8, search_work=30, combining=False,
        pool=PoolConfig("shared", size=4),
    ))

    def client(c):
        for i in range(6):
            yield dictionary.search(f"w{(c * 7 + i) % 32}")

    for c in range(8):
        kernel.spawn(client, c, name=f"client{c}")
    kernel.run()


def _failover(kernel):
    """A replicated KV through a primary crash: heartbeat probes, crash
    and restart events, replication and catch-up."""
    net = ring(kernel, 6)
    install(kernel, net, FaultPlan(seed=3, detection_delay=20).crash_node(
        "n0", at=250, restart_at=900))
    rep = Replicated(
        lambda name: KVStore(kernel, name=name), net, 3,
        writes=("put", "delete"), nodes=["n0", "n2", "n4"],
        call_timeout=60, heartbeat_interval=40, seed=3,
    )

    def writer():
        for i in range(10):
            try:
                yield from rep.put(f"k{i % 3}", i)
            except Exception:
                pass
            yield Delay(60)

    kernel.spawn(writer, name="writer")
    kernel.run(until=1200)


class TestRecordIdentity:
    """A memory sink keeps what it is handed and renders it on read: its
    records are exactly the lines a JSONL sink wrote at delivery time."""

    SCENARIOS = {
        "traffic": (lambda: Kernel(seed=11), _traffic,
                    {"live.snapshot", "live.alert", "spawn"}),
        "smp_pool": (
            lambda: Kernel(seed=5, costs=CostModel(
                process_create=300, lwp_create=5, context_switch=1)),
            _smp_pool, {"spawn"}),
        "failover": (lambda: Kernel(seed=3), _failover,
                     {"crash", "restart", "replicate"}),
    }

    @pytest.fixture(scope="class", params=sorted(SCENARIOS))
    def run(self, request):
        make, drive, kinds = self.SCENARIOS[request.param]
        kernel = make()
        buffer = io.StringIO()
        kernel.obs.add_sink(JsonlSink(buffer))
        memory = kernel.obs.add_sink(MemorySink())
        drive(kernel)
        kernel.obs.close()
        return request.param, kernel, memory, buffer.getvalue(), kinds

    def test_records_equal_the_jsonl_lines(self, run):
        name, _kernel, memory, text, kinds = run
        lines = text.splitlines()
        records = memory.records
        assert [json.dumps(r, sort_keys=True) for r in records] == lines
        assert kinds <= {r["kind"] for r in records if r["type"] == "event"}
        assert {r["type"] for r in records} == {"span", "event"}
        if name == "smp_pool":
            assert any("cpu" in r.get("attrs", {}) for r in records)
        if name == "failover":
            assert any(r["kind"] == "heartbeat" for r in memory.spans())

    def test_spans_are_the_span_log_objects(self, run):
        _name, kernel, memory, _text, _kinds = run
        kept = [item for item in memory._kept if isinstance(item, Span)]
        assert len(kept) == len(kernel.obs.spans) > 0
        assert all(a is b for a, b in zip(kept, kernel.obs.spans))
        assert memory.spans() == [s.to_record() for s in kernel.obs.spans]

    def test_mutating_a_rendering_leaves_the_kept_objects(self, run):
        _name, kernel, memory, _text, _kinds = run
        before = json.dumps(memory.records, sort_keys=True)
        for record in memory.records:
            record["name"] = "changed"
            record.get("attrs", {})["extra"] = 1
            record.get("detail", {})["extra"] = 1
        for record in memory.spans():
            record["start"] = -1
        assert json.dumps(memory.records, sort_keys=True) == before
        assert all("extra" not in s.attrs for s in kernel.obs.spans)


class TestJsonlSink:
    def test_one_json_object_per_line(self):
        kernel = Kernel()
        buffer = io.StringIO()
        sink = kernel.obs.add_sink(JsonlSink(buffer))
        run_workload(kernel)
        kernel.obs.close()
        lines = buffer.getvalue().strip().splitlines()
        assert len(lines) == sink.lines > 0
        records = [json.loads(line) for line in lines]
        assert {"span", "event"} >= {r["type"] for r in records}
        assert any(r["type"] == "span" and r["name"] == "kv.put"
                   for r in records)

    def test_path_target(self, tmp_path):
        kernel = Kernel()
        path = tmp_path / "trace.jsonl"
        kernel.obs.add_sink(JsonlSink(str(path)))
        run_workload(kernel)
        kernel.obs.close()
        assert path.stat().st_size > 0


class TestChromeTraceSink:
    def test_valid_balanced_payload(self, tmp_path):
        kernel = Kernel(trace=True)
        path = tmp_path / "run.json"
        kernel.obs.add_sink(ChromeTraceSink(str(path)))
        run_workload(kernel)
        kernel.obs.close()
        payload = json.loads(path.read_text())
        assert validate_chrome_trace(payload) == []
        events = payload["traceEvents"]
        # Per-process thread-name metadata present, spans + instants too.
        assert any(e.get("ph") == "M" for e in events)
        assert any(e.get("ph") == "b" for e in events)
        assert any(e.get("ph") == "i" for e in events)
        # Parent links ride in args so viewers can reconstruct the tree.
        assert any(
            e.get("ph") == "b" and "parent" in e.get("args", {})
            for e in events
        )

    def test_close_is_idempotent(self, tmp_path):
        kernel = Kernel()
        path = tmp_path / "run.json"
        kernel.obs.add_sink(ChromeTraceSink(str(path)))
        run_workload(kernel)
        kernel.obs.close()
        kernel.obs.close()
        assert validate_chrome_trace(json.loads(path.read_text())) == []


def _fields(span):
    return {name: getattr(span, name) for name in Span.__slots__}


class TestCodecs:
    """Each file format reads back exactly what it wrote."""

    @pytest.fixture(scope="class")
    def recorded(self):
        # A replicated KV through a primary crash: nested calls, sequencer
        # spans with list attrs, failed calls, spans with no call id.
        kernel = Kernel(seed=3, spans=True)
        chrome = kernel.obs.add_sink(ChromeTraceSink("unwritten.json"))
        net = ring(kernel, 6)
        install(kernel, net, FaultPlan(seed=3, detection_delay=20).crash_node(
            "n0", at=250, restart_at=900))
        rep = Replicated(
            lambda name: KVStore(kernel, name=name), net, 3,
            writes=("put", "delete"), nodes=["n0", "n2", "n4"],
            call_timeout=60, heartbeat_interval=40, seed=3,
        )

        def writer():
            for i in range(10):
                try:
                    yield from rep.put(f"k{i % 3}", i)
                except Exception:
                    pass
                yield Delay(60)

        kernel.spawn(writer, name="writer")
        kernel.run(until=1200)
        assert {s.kind for s in kernel.obs.spans} >= {"call", "replication", "body"}
        return kernel.obs.spans, chrome

    def test_jsonl_record_round_trips_field_for_field(self, recorded):
        spans, _chrome = recorded
        for span in spans:
            # Through text, as a JsonlSink file is read.
            record = json.loads(json.dumps(span.to_record(), sort_keys=True))
            assert _fields(Span.from_record(record)) == _fields(span)

    def test_chrome_payload_loads_as_the_live_spans(self, recorded):
        spans, chrome = recorded
        live = from_spans(spans)
        loaded = from_chrome(chrome.payload())
        assert len(loaded.spans) == len(live.spans) > 100
        assert [_fields(s) for s in loaded.spans] == [_fields(s) for s in live.spans]

    def test_loader_skips_what_the_validator_reports(self):
        begin = {"ph": "b", "cat": "c", "name": "n", "id": 1, "ts": 0}
        end = {"ph": "e", "cat": "c", "name": "n", "id": 1, "ts": 5}
        stray = {"ph": "e", "cat": "c", "name": "n", "id": 2, "ts": 7}
        open_ = {"ph": "b", "cat": "c", "name": "n", "id": 3, "ts": 8}
        payload = {"traceEvents": [begin, end, stray, open_]}
        assert [(s.span_id, s.start, s.end) for s in from_chrome(payload).spans] == [
            (1, 0, 5)
        ]
        assert validate_chrome_trace(payload) == [
            "end without begin for span ('c', 2)",
            "begin without end for span ('c', 3)",
        ]


def _alert(time, state, **overrides):
    detail = {"time": time, "monitor": "m", "state": state, "fast_burn": 3.0,
              "slow_burn": 2.1, "bad": 1, "total": 2}
    detail.update(overrides)
    return (time, "live.alert", {k: v for k, v in detail.items() if v is not None})


#: defect -> (the live instants of one file, what both validators must say)
LIVE_DEFECTS = {
    "out of order": (
        [_alert(100, "firing"), (50, "live.snapshot", {"time": 50})],
        "out of order",
    ),
    "missing alert field": (
        [_alert(100, "firing", fast_burn=None)], "missing 'fast_burn'",
    ),
    "bad state": (
        [_alert(100, "firing"), _alert(200, "flapping")], "bad state 'flapping'",
    ),
    "broken alternation": (
        [_alert(100, "firing"), _alert(200, "firing")], "does not alternate",
    ),
    "snapshot without time": (
        [(100, "live.snapshot", {"step": 100})], "live.snapshot missing 'time'",
    ),
}


class TestLiveRule:
    """One rule for live instants, whichever file format carries them."""

    @staticmethod
    def _dump(instants):
        """The instants as both sinks write them: (Chrome payload, JSONL lines)."""
        buf = io.StringIO()
        sinks = (ChromeTraceSink("unwritten.json"), JsonlSink(buf))
        for time, kind, detail in instants:
            for sink in sinks:
                sink.on_instant(time, kind, "live", detail)
        return sinks[0].payload(), buf.getvalue().splitlines()

    def test_well_formed_instants_pass_both(self):
        payload, lines = self._dump([
            _alert(100, "firing"), (200, "live.snapshot", {"time": 200}),
            _alert(200, "resolved"),
        ])
        assert validate_chrome_trace(payload) == []
        assert validate_live_jsonl(lines) == []

    @pytest.mark.parametrize("defect", LIVE_DEFECTS)
    def test_defect_is_reported_by_both_validators_and_nothing_else(self, defect):
        instants, says = LIVE_DEFECTS[defect]
        payload, lines = self._dump(instants)
        for problems in (validate_chrome_trace(payload), validate_live_jsonl(lines)):
            assert len(problems) == 1 and says in problems[0], problems


class TestValidator:
    def test_rejects_malformed_payloads(self):
        assert validate_chrome_trace(None)
        assert validate_chrome_trace({})
        assert validate_chrome_trace({"traceEvents": "nope"})
        assert validate_chrome_trace({"traceEvents": []})  # empty

    def test_detects_unbalanced_spans(self):
        begin = {"ph": "b", "cat": "c", "name": "n", "id": 1, "ts": 0}
        end = {"ph": "e", "cat": "c", "name": "n", "id": 1, "ts": 5}
        assert validate_chrome_trace({"traceEvents": [begin]})
        assert validate_chrome_trace({"traceEvents": [end]})
        assert validate_chrome_trace({"traceEvents": [begin, end]}) == []
        backwards = dict(end, ts=-1)
        assert validate_chrome_trace({"traceEvents": [begin, backwards]})
        # A begin with no tick is a problem, not a KeyError.
        untimed = {k: v for k, v in begin.items() if k != "ts"}
        assert validate_chrome_trace({"traceEvents": [untimed, end]})


class TestTraceForwarding:
    def test_sink_sees_events_with_retention_off(self):
        # Kernel trace retention disabled: the in-memory log stays empty,
        # but subscribed sinks still receive every event as an instant.
        kernel = Kernel(trace=False)
        sink = kernel.obs.add_sink(MemorySink())
        run_workload(kernel)
        assert len(kernel.trace) == 0
        events = [r for r in sink.records if r["type"] == "event"]
        assert {"spawn", "exit"} <= {e["kind"] for e in events}

    def test_forwarding_can_be_declined(self):
        kernel = Kernel(trace=True)
        sink = MemorySink()
        kernel.obs.add_sink(sink, forward_trace=False)
        run_workload(kernel)
        assert [r for r in sink.records if r["type"] == "event"] == []
        assert sink.spans()


def _live_run(sink_a, sink_b):
    """One seeded run feeding two sinks the same live-plane instants."""
    kernel = Kernel(seed=4)
    kernel.obs.add_sink(sink_a, forward_trace=False)
    kernel.obs.add_sink(sink_b, forward_trace=False)
    plane = kernel.obs.live
    slo = plane.monitor("svc", objective=0.9, fast=200, slow=1000)
    plane.stream_snapshots(every=3)
    for t in range(0, 2400, 20):
        kernel.clock.advance_to(t)
        slo.record(not 300 < t < 700)
    kernel.clock.advance_to(3000)
    kernel.obs.close()
    return kernel


class TestLiveInstantOrdering:
    def test_jsonl_and_chrome_serialize_in_boundary_order(self, tmp_path):
        buf = io.StringIO()
        chrome_path = tmp_path / "live.json"
        _live_run(JsonlSink(buf), ChromeTraceSink(str(chrome_path)))

        # JSONL: live events in non-decreasing time order, alerts
        # alternating -- the validator encodes the contract.
        lines = buf.getvalue().splitlines()
        assert validate_live_jsonl(lines) == []
        times = [
            json.loads(line)["time"]
            for line in lines
            if '"kind": "live.' in line
        ]
        assert times == sorted(times)
        assert len(times) > 10

        # Chrome: the same instants pass the live checks there too.
        payload = json.loads(chrome_path.read_text())
        assert validate_chrome_trace(payload) == []
        live_ts = [
            e["ts"] for e in payload["traceEvents"]
            if str(e.get("cat", "")).startswith("live.")
        ]
        assert live_ts == sorted(live_ts)
        assert len(live_ts) == len(times)

    def test_burst_of_boundaries_stays_ordered(self):
        # A single clock jump crossing many boundaries must serialize one
        # instant per boundary, in boundary order (not one at jump time).
        kernel = Kernel(seed=1)
        sink = MemorySink()
        kernel.obs.add_sink(sink, forward_trace=False)
        plane = kernel.obs.live
        plane.stream_snapshots(every=1)
        kernel.clock.advance_to(777)
        kernel.clock.advance_to(2345)
        times = [r["time"] for r in sink.records
                 if r.get("kind") == "live.snapshot"]
        assert times == [plane.step * i for i in range(1, 24)]

    def test_validator_flags_out_of_order_and_bad_alternation(self):
        record = (
            '{"type": "event", "time": %d, "kind": "live.alert", '
            '"process": "live", "detail": {"monitor": "m", "state": "%s", '
            '"fast_burn": 3.0, "slow_burn": 2.1, "bad": 1, "total": 2}}'
        )
        # firing twice without a resolve
        problems = validate_live_jsonl(
            [record % (100, "firing"), record % (200, "firing")]
        )
        assert any("alternate" in p for p in problems)
        # time going backwards
        problems = validate_live_jsonl(
            [record % (200, "firing"), record % (100, "resolved")]
        )
        assert any("out of order" in p for p in problems)
        # well-formed pair passes
        assert validate_live_jsonl(
            [record % (100, "firing"), record % (200, "resolved")]
        ) == []

    def test_chrome_validator_flags_bad_live_alerts(self):
        def alert(ts, state):
            return {
                "ph": "i", "cat": "live.alert", "name": "live.alert",
                "ts": ts, "pid": 1, "tid": 1, "s": "t",
                "args": {"monitor": "'m'", "state": f"'{state}'",
                         "fast_burn": "3.0", "slow_burn": "2.1"},
            }

        span = [
            {"ph": "b", "cat": "c", "name": "n", "id": 1, "ts": 0},
            {"ph": "e", "cat": "c", "name": "n", "id": 1, "ts": 5},
        ]
        good = span + [alert(100, "firing"), alert(200, "resolved")]
        assert validate_chrome_trace({"traceEvents": good}) == []
        double = span + [alert(100, "firing"), alert(200, "firing")]
        assert any(
            "alternate" in p
            for p in validate_chrome_trace({"traceEvents": double})
        )
        missing = span + [{
            "ph": "i", "cat": "live.alert", "name": "live.alert", "ts": 50,
            "pid": 1, "tid": 1, "s": "t", "args": {},
        }]
        assert any(
            "missing" in p
            for p in validate_chrome_trace({"traceEvents": missing})
        )
