"""Folded-stack export: exactness contract and round trip."""

from repro.core import AcceptGuard, AlpsObject, entry, icpt, manager_process
from repro.kernel import Delay, Kernel, Select
from repro.obs.analyze import (
    folded_stacks,
    from_spans,
    main,
    parse_folded,
)


class Echo(AlpsObject):
    @entry(returns=1)
    def echo(self, x):
        yield Delay(2)
        return x

    @manager_process(intercepts={"echo": icpt(params=1, results=1)})
    def mgr(self):
        while True:
            result = yield Select(AcceptGuard(self, "echo"))
            yield from self.execute(result.value)


def recording(calls=3):
    kernel = Kernel(spans=True)
    obj = Echo(kernel, name="echo")

    def main_proc():
        for i in range(calls):
            yield obj.echo(i)
            yield Delay(3)

    kernel.run_process(main_proc, name="client")
    return from_spans(kernel.obs.spans)


class TestFoldedStacks:
    def test_values_sum_to_top_level_durations(self):
        rec = recording()
        folded = parse_folded(folded_stacks(rec))
        total = sum(span.duration for span in rec.top_level())
        assert sum(folded.values()) == total

    def test_frames_are_kind_name_with_process_root(self):
        rec = recording(calls=1)
        folded = parse_folded(folded_stacks(rec))
        assert folded
        for path in folded:
            # Root frame is the owning process; inner frames kind:name.
            assert ":" in path[-1]
        roots = {path[0] for path in folded}
        assert roots <= {span.process for span in rec.top_level()}

    def test_round_trip_lossless(self):
        rec = recording()
        lines = folded_stacks(rec)
        assert parse_folded(lines) == parse_folded(folded_stacks(rec))
        # Values parse back as written, including any zero-value leaves.
        for line in lines:
            stack, _, value = line.rpartition(" ")
            assert stack
            int(value)

    def test_synthetic_self_time(self):
        # Root 0..10 with one child 3..7: self time splits 6 / 4.
        rec = from_spans(
            [
                {"type": "span", "id": 1, "kind": "call", "name": "o.e",
                 "process": "p", "start": 0, "end": 10},
                {"type": "span", "id": 2, "parent": 1, "kind": "body",
                 "name": "o.e.body", "process": "m", "start": 3, "end": 7},
            ]
        )
        folded = parse_folded(folded_stacks(rec))
        assert folded == {
            ("p", "call:o.e"): 6,
            ("p", "call:o.e", "body:o.e.body"): 4,
        }

    def test_zero_duration_leaf_preserved(self):
        rec = from_spans(
            [
                {"type": "span", "id": 1, "kind": "call", "name": "o.e",
                 "process": "p", "start": 5, "end": 5},
            ]
        )
        folded = parse_folded(folded_stacks(rec))
        assert folded == {("p", "call:o.e"): 0}


class TestFoldedCli:
    def write_trace(self, tmp_path):
        kernel = Kernel(spans=True)
        obj = Echo(kernel, name="echo")
        kernel.run_process(lambda: (yield obj.echo(1)), name="client")
        path = tmp_path / "trace.jsonl"
        import json

        with open(path, "w", encoding="utf-8") as fh:
            for span in kernel.obs.spans:
                fh.write(json.dumps(span.to_record()) + "\n")
        return path

    def test_folded_to_file(self, tmp_path, capsys):
        trace = self.write_trace(tmp_path)
        out = tmp_path / "folded.txt"
        assert main([str(trace), "--folded", str(out)]) == 0
        folded = parse_folded(out.read_text().splitlines())
        assert folded
        assert all(isinstance(v, int) for v in folded.values())

    def test_folded_to_stdout(self, tmp_path, capsys):
        trace = self.write_trace(tmp_path)
        assert main([str(trace), "--folded", "-"]) == 0
        out = capsys.readouterr().out
        folded = parse_folded(out.splitlines())
        assert folded

    def test_stdout_claim_still_writes_every_named_file(self, tmp_path, capsys):
        trace = self.write_trace(tmp_path)
        svg, report = tmp_path / "flame.svg", tmp_path / "report.txt"
        argv = [str(trace), "--folded", "-", "--svg", str(svg), "--out", str(report)]
        assert main(argv) == 0
        assert parse_folded(capsys.readouterr().out.splitlines())
        assert svg.read_text().startswith("<svg ")
        assert "Critical-path profile" in report.read_text()
        assert main([str(trace), "--svg", "-", "--out", str(report)]) == 0
        assert capsys.readouterr().out.startswith("<svg ")

    def test_two_stdout_claims_are_a_usage_error(self, tmp_path, capsys):
        trace = self.write_trace(tmp_path)
        assert main([str(trace), "--folded", "-", "--svg", "-"]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "stdout" in captured.err


class TestSvgFlameGraph:
    def folded(self):
        from repro.obs.analyze import folded_stacks

        return __import__("repro.obs.analyze", fromlist=["parse_folded"]).parse_folded(
            folded_stacks(recording())
        )

    def test_renders_well_formed_svg(self):
        import xml.etree.ElementTree as ET

        from repro.obs.analyze import render_svg

        svg = render_svg(self.folded(), title="test")
        root = ET.fromstring(svg)
        assert root.tag.endswith("svg")
        rects = root.findall(".//{http://www.w3.org/2000/svg}rect")
        assert rects  # one per icicle frame (plus the synthetic root)

    def test_rendering_is_deterministic(self):
        from repro.obs.analyze import render_svg

        folded = self.folded()
        assert render_svg(folded) == render_svg(folded)

    def test_root_reports_exact_total(self):
        # The synthetic root's tooltip carries the sum of all self
        # times — the same exactness contract as the folded export.
        from repro.obs.analyze import render_svg

        folded = self.folded()
        svg = render_svg(folded)
        assert f"all: {sum(folded.values())} ticks (100.0%)" in svg

    def test_frame_names_are_escaped(self):
        import xml.etree.ElementTree as ET

        from repro.obs.analyze import render_svg

        svg = render_svg({("<p>", "call:a&b"): 7})
        ET.fromstring(svg)  # parses despite markup-hostile frame names
        assert "&lt;p&gt;" in svg and "a&amp;b" in svg

    def test_zero_total_recording_renders(self):
        import xml.etree.ElementTree as ET

        from repro.obs.analyze import render_svg

        svg = render_svg({("p", "call:o.e"): 0})
        ET.fromstring(svg)
        assert "0 ticks" in svg

    def test_width_validation(self):
        import pytest

        from repro.obs.analyze import render_svg

        with pytest.raises(ValueError, match="width"):
            render_svg({}, width=10)

    def test_cli_writes_svg_file(self, tmp_path, capsys):
        trace = TestFoldedCli().write_trace(tmp_path)
        out = tmp_path / "flame.svg"
        assert main([str(trace), "--svg", str(out)]) == 0
        text = out.read_text()
        assert text.startswith("<svg ") and text.rstrip().endswith("</svg>")

    def test_cli_svg_to_stdout(self, tmp_path, capsys):
        trace = TestFoldedCli().write_trace(tmp_path)
        assert main([str(trace), "--svg", "-"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("<svg ")
