"""The dashboard CLI: deterministic rendering from a JSONL sink."""

import pytest

from repro.kernel import Kernel
from repro.obs import JsonlSink
from repro.obs.live.__main__ import main
from repro.obs.live.dashboard import load_snapshots, render


def _make_jsonl(tmp_path, name="run.jsonl"):
    kernel = Kernel(seed=9)
    path = tmp_path / name
    sink = JsonlSink(str(path))
    kernel.obs.add_sink(sink, forward_trace=False)
    plane = kernel.obs.live
    lat = plane.histogram("svc.latency", window=1000)
    slo = plane.monitor("svc.slo", objective=0.9, fast=500, slow=2500)
    plane.stream_snapshots(every=2)
    for t in range(0, 3000, 25):
        kernel.clock.advance_to(t)
        lat.observe((t * 7) % 50)
        slo.record(not 900 < t < 1600)
        plane.offer("svc.keys", f"k{t % 5}")
    kernel.clock.advance_to(4000)
    kernel.obs.close()
    return path


class TestCli:
    def test_renders_latest_snapshot(self, tmp_path, capsys):
        path = _make_jsonl(tmp_path)
        assert main([str(path)]) == 0
        out = capsys.readouterr().out
        assert "LIVE TELEMETRY" in out
        assert "svc.latency" in out
        assert "svc.slo" in out
        # Deterministic: a second invocation prints identical bytes.
        assert main([str(path)]) == 0
        assert capsys.readouterr().out == out

    def test_at_picks_earlier_snapshot(self, tmp_path, capsys):
        path = _make_jsonl(tmp_path)
        snapshots = load_snapshots(path.read_text().splitlines())
        target = snapshots[2]
        assert main([str(path), "--at", str(target["time"])]) == 0
        assert capsys.readouterr().out == render(target)

    def test_out_writes_file(self, tmp_path, capsys):
        path = _make_jsonl(tmp_path)
        out_path = tmp_path / "dash.txt"
        assert main([str(path), "--out", str(out_path)]) == 0
        assert capsys.readouterr().out == ""
        snapshots = load_snapshots(path.read_text().splitlines())
        assert out_path.read_text() == render(snapshots[-1])

    def test_no_snapshots_exits_2(self, tmp_path, capsys):
        empty = tmp_path / "empty.jsonl"
        empty.write_text('{"type": "event", "kind": "spawn", "time": 0}\n')
        assert main([str(empty)]) == 2
        assert "no live.snapshot" in capsys.readouterr().err

    def test_at_before_first_snapshot_names_its_tick(self, tmp_path, capsys):
        path = _make_jsonl(tmp_path)
        first = load_snapshots(path.read_text().splitlines())[0]["time"]
        assert first > 0
        assert main([str(path), "--at", str(first - 1)]) == 2
        err = capsys.readouterr().err
        assert f"at or before tick {first - 1}" in err
        assert f"the first is at tick {first}" in err
        assert "no live.snapshot instants" not in err

    def test_missing_file_exits_1(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main([str(tmp_path / "absent.jsonl")])
        assert exc.value.code == 1

    def test_follow_renders_then_stops_at_max_polls(self, tmp_path, capsys):
        path = _make_jsonl(tmp_path)
        assert main(
            [str(path), "--follow", "--interval", "0", "--max-polls", "2"]
        ) == 0
        out = capsys.readouterr().out
        snapshots = load_snapshots(path.read_text().splitlines())
        assert out == render(snapshots[-1])  # rendered once, latest state

    def test_follow_empty_exits_2(self, tmp_path):
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        assert main(
            [str(empty), "--follow", "--interval", "0", "--max-polls", "2"]
        ) == 2


class TestLoader:
    def test_skips_partial_and_foreign_lines(self):
        lines = [
            '{"type": "event", "kind": "live.snapshot", "detail": {"time": 5}}',
            '{"type": "span", "kind": "call"}',
            "not json at all",
            '{"type": "event", "kind": "live.alert", "detail": {"time": 9}}',
            '{"type": "event", "kind": "live.snapshot", "detail": {"time": 7}',  # cut
            '{"type": "event", "kind": "live.snapshot", "detail": {"time": 8}}',
        ]
        assert load_snapshots(lines) == [{"time": 5}, {"time": 8}]

    def test_render_handles_minimal_snapshot(self):
        text = render({"time": 0, "step": 100})
        assert "LIVE TELEMETRY" in text
        assert "(none)" in text
