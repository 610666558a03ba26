"""Critical-path analysis: exact phase attribution over recorded spans."""

import json

import pytest

from repro.core import AcceptGuard, AlpsObject, entry, icpt, manager_process
from repro.kernel import Delay, Kernel, Select
from repro.obs import ChromeTraceSink, JsonlSink, MemorySink
from repro.obs.analyze import (
    critical_path,
    from_spans,
    load,
    main,
    profile_calls,
    render_report,
    report_json,
    sequencer_breakdown,
)
from repro.obs.sinks import from_chrome
from repro.obs.spans import Recording


class Echo(AlpsObject):
    @entry(returns=1)
    def echo(self, x):
        return x

    @manager_process(intercepts={"echo": icpt(params=1, results=1)})
    def mgr(self):
        while True:
            result = yield Select(AcceptGuard(self, "echo"))
            yield from self.execute(result.value)


def _echo_recording(calls=3):
    kernel = Kernel(spans=True)
    obj = Echo(kernel, name="echo")

    def main_proc():
        for i in range(calls):
            yield obj.echo(i)
            yield Delay(3)

    kernel.run_process(main_proc, name="client")
    return kernel, from_spans(kernel.obs.spans)


class TestExactAttribution:
    def test_phase_sums_equal_end_to_end_latency(self):
        _, rec = _echo_recording()
        profiles = profile_calls(rec)
        assert len(profiles) == 3
        for prof in profiles:
            assert sum(prof.phases.values()) == prof.total
            assert prof.total == prof.end - prof.start

    def test_unattributed_bucket_absorbs_uncovered_ticks(self):
        # A synthetic root with one gap: 10 ticks total, a single body
        # phase covering 4 — the remaining 6 must land in unattributed,
        # keeping the sum exact.
        rec = Recording(
            from_spans(
                [
                    {"type": "span", "id": 1, "kind": "call", "name": "o.e",
                     "process": "p", "start": 0, "end": 10, "call_id": 7,
                     "attrs": {"seq": 0}},
                    {"type": "span", "id": 2, "parent": 1, "kind": "body",
                     "name": "o.e.body", "process": "m", "start": 3, "end": 7,
                     "call_id": 7},
                ]
            ).spans
        )
        (prof,) = profile_calls(rec)
        assert prof.phases == {"body": 4, "unattributed": 6}
        assert sum(prof.phases.values()) == prof.total == 10

    def test_nested_calls_profile_separately(self):
        kernel = Kernel(spans=True)
        inner = Echo(kernel, name="inner")

        class Outer(AlpsObject):
            @entry(returns=1)
            def relay(self, x):
                return (yield inner.echo(x))

        outer = Outer(kernel, name="outer")
        kernel.run_process(lambda: (yield outer.relay("x")), name="client")
        rec = from_spans(kernel.obs.spans)
        profiles = {p.name: p for p in profile_calls(rec)}
        # Only the non-nested call is a profile root: the inner call's
        # ticks are already inside the outer body phase, and profiling
        # both would double-count them in the phase totals.
        assert set(profiles) == {"outer.relay"}
        prof = profiles["outer.relay"]
        assert sum(prof.phases.values()) == prof.total
        # The inner call is still in the recording, as a child subtree.
        inner = [s for s in rec.spans if s.name == "inner.echo"]
        assert inner and inner[0].parent_id is not None

    def test_seq_is_program_order_per_process_and_entry(self):
        _, rec = _echo_recording(calls=4)
        keys = sorted(p.key for p in profile_calls(rec))
        assert keys == [("client", "echo.echo", i) for i in range(4)]


class TestCriticalPath:
    def test_self_times_telescope_to_root_duration(self):
        _, rec = _echo_recording()
        chain = critical_path(rec)
        assert chain
        assert sum(link.self_ticks for link in chain) == chain[0].span.duration
        # Each link is a child of the previous one.
        for parent, child in zip(chain, chain[1:]):
            assert child.span.parent_id == parent.span.span_id

    def test_descends_into_longest_child(self):
        rec = from_spans(
            [
                {"type": "span", "id": 1, "kind": "call", "name": "o.e",
                 "process": "p", "start": 0, "end": 100},
                {"type": "span", "id": 2, "parent": 1, "kind": "manager",
                 "name": "o.e.accept", "process": "m", "start": 0, "end": 30},
                {"type": "span", "id": 3, "parent": 1, "kind": "body",
                 "name": "o.e.body", "process": "m", "start": 30, "end": 95},
            ]
        )
        chain = critical_path(rec)
        assert [link.span.span_id for link in chain] == [1, 3]
        assert [link.self_ticks for link in chain] == [35, 65]

    def test_empty_recording_has_empty_chain(self):
        assert critical_path(from_spans([])) == []


class TestLoaders:
    def test_chrome_round_trip_matches_live_spans(self, tmp_path):
        kernel = Kernel(spans=True)
        path = tmp_path / "trace.json"
        kernel.obs.add_sink(ChromeTraceSink(str(path)))
        obj = Echo(kernel, name="echo")
        kernel.run_process(lambda: (yield obj.echo("hi")), name="client")
        kernel.obs.close()

        live = from_spans(kernel.obs.spans)
        loaded = load(str(path))
        assert len(loaded.spans) == len(live.spans)
        assert {(s.kind, s.name, s.start, s.end) for s in loaded.spans} == {
            (s.kind, s.name, s.start, s.end) for s in live.spans
        }
        # Same profiles either way: the sink preserved attribution.
        prof_live = {p.key: p.phases for p in profile_calls(live)}
        prof_file = {p.key: p.phases for p in profile_calls(loaded)}
        assert prof_live == prof_file

    def test_jsonl_round_trip(self, tmp_path):
        kernel = Kernel(spans=True)
        path = tmp_path / "trace.jsonl"
        kernel.obs.add_sink(JsonlSink(str(path)))
        obj = Echo(kernel, name="echo")
        kernel.run_process(lambda: (yield obj.echo("hi")), name="client")
        kernel.obs.close()
        loaded = load(str(path))
        assert profile_calls(loaded)
        for prof in profile_calls(loaded):
            assert sum(prof.phases.values()) == prof.total

    def test_memory_sink_records_load_directly(self):
        kernel = Kernel(spans=True)
        sink = kernel.obs.add_sink(MemorySink())
        obj = Echo(kernel, name="echo")
        kernel.run_process(lambda: (yield obj.echo("hi")), name="client")
        rec = from_spans(sink.records)
        assert profile_calls(rec)

    def test_chrome_instants_resolve_process_names(self):
        payload = {
            "traceEvents": [
                {"ph": "i", "ts": 5, "tid": 2, "name": "slot.queue.enter",
                 "args": {"slot": 0}},
                # thread_name metadata arrives after the instant.
                {"ph": "M", "name": "thread_name", "tid": 2,
                 "args": {"name": "client"}},
            ]
        }
        rec = from_chrome(payload)
        assert rec.instants == [
            {"type": "event", "time": 5, "kind": "slot.queue.enter",
             "detail": {"slot": 0}, "process": "client"}
        ]

    def test_load_rejects_non_trace_json(self, tmp_path):
        path = tmp_path / "other.json"
        path.write_text('{"rows": []}\n')
        with pytest.raises(ValueError):
            load(str(path))


class TestReportAndCli:
    def test_report_mentions_every_phase_present(self):
        _, rec = _echo_recording()
        text = render_report(rec)
        for token in ("Phase attribution", "Per-entry breakdown",
                      "Longest blocking chain", "echo.echo"):
            assert token in text

    def test_report_json_is_serializable_and_exact(self):
        _, rec = _echo_recording()
        data = json.loads(json.dumps(report_json(rec)))
        assert data["calls"] == 3
        for prof in data["profiles"]:
            assert sum(prof["phases"].values()) == prof["total"]

    def test_replicated_writes_get_a_sequencer_section(self):
        # Two puts on a 2-replica KVStore: each sequenced write makes one
        # apply on the primary and one forward to the backup; the
        # view's reconcile span counts as a sequencer span with no calls.
        from repro.net import ring
        from repro.replication import Replicated
        from repro.stdlib import KVStore

        kernel = Kernel(spans=True)
        rep = Replicated(
            lambda name: KVStore(kernel, name=name),
            ring(kernel, 3),
            2,
            nodes=["n0", "n1"],
            writes=("put",),
        )

        def client():
            yield from rep.put("k", 1)
            yield from rep.put("k", 2)

        kernel.spawn(client, name="client")
        kernel.run(until=200)
        rec = from_spans(kernel.obs.spans)
        assert sequencer_breakdown(rec) == {
            "writes": 3, "sequencer_ticks": 8, "applies": 2, "apply_ticks": 2,
            "forwards": 2, "forward_ticks": 2,
        }
        assert (
            "## Replication sequencer\n3 sequenced writes, 8 ticks in the "
            "sequencer: 2 primary applies (2 ticks), 2 backup forwards (2 ticks)."
        ) in render_report(rec)
        assert sequencer_breakdown(_echo_recording()[1]) is None

    def test_cli_text_and_json(self, tmp_path, capsys):
        kernel = Kernel(spans=True)
        path = tmp_path / "t.jsonl"
        kernel.obs.add_sink(JsonlSink(str(path)))
        obj = Echo(kernel, name="echo")
        kernel.run_process(lambda: (yield obj.echo("hi")), name="client")
        kernel.obs.close()

        assert main([str(path)]) == 0
        assert "Critical-path profile" in capsys.readouterr().out
        assert main([str(path), "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["calls"] == 1

    def test_cli_out_file_and_missing_input(self, tmp_path, capsys):
        kernel = Kernel(spans=True)
        trace = tmp_path / "t.jsonl"
        kernel.obs.add_sink(JsonlSink(str(trace)))
        obj = Echo(kernel, name="echo")
        kernel.run_process(lambda: (yield obj.echo("hi")), name="client")
        kernel.obs.close()
        out = tmp_path / "report.txt"
        assert main([str(trace), "--out", str(out)]) == 0
        assert "Critical-path profile" in out.read_text()
        assert main([str(tmp_path / "missing.json")]) == 2
