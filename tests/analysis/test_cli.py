"""CLI behavior of ``python -m repro.analysis`` / tools/alpslint.py."""

import json
import os
import subprocess
import sys

import pytest

from repro.analysis.cli import main

ROOT = os.path.abspath(os.path.join(os.path.dirname(__file__), "..", ".."))

BAD_SOURCE = """\
from repro.core import AlpsObject, entry, manager_process


class Starved(AlpsObject):
    @entry
    def a(self):
        pass

    @entry
    def b(self):
        pass

    @manager_process(intercepts=["a", "b"])
    def mgr(self):
        while True:
            call = yield self.accept("a")
            yield from self.execute(call)
"""


@pytest.fixture
def bad_file(tmp_path):
    path = tmp_path / "starved.py"
    path.write_text(BAD_SOURCE, encoding="utf-8")
    return str(path)


class TestMain:
    def test_clean_path_exits_zero(self, tmp_path, capsys):
        (tmp_path / "ok.py").write_text("x = 1\n", encoding="utf-8")
        assert main([str(tmp_path)]) == 0
        assert capsys.readouterr().out == ""

    def test_findings_exit_one(self, bad_file, capsys):
        assert main([bad_file]) == 1
        out = capsys.readouterr().out
        assert "ALP101" in out
        assert "starved.py" in out
        assert "1 error(s)" in out

    def test_json_format(self, bad_file, capsys):
        assert main(["--format", "json", bad_file]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload[0]["code"] == "ALP101"
        assert payload[0]["obj"] == "Starved"
        assert payload[0]["title"] == "intercepted-never-accepted"

    def test_select_and_ignore(self, bad_file, capsys):
        assert main(["--select", "ALP111", bad_file]) == 0
        assert main(["--ignore", "ALP101", bad_file]) == 0
        assert main(["--ignore", "ALP111", bad_file]) == 1
        capsys.readouterr()

    def test_unknown_code_exits_two_listing_valid(self, bad_file, capsys):
        assert main(["--select", "ALP999", bad_file]) == 2
        err = capsys.readouterr().err
        assert "unknown code(s): ALP999" in err
        # The error enumerates every valid code so the user can correct
        # the invocation without opening the docs.
        assert "valid codes:" in err
        for code in ("ALP101", "ALP114", "ALP120", "ALP121"):
            assert code in err

    def test_unknown_ignore_code_exits_two(self, bad_file, capsys):
        assert main(["--ignore", "ALP000,ALP101", bad_file]) == 2
        assert "ALP000" in capsys.readouterr().err

    def test_no_paths_is_usage_error(self, capsys):
        assert main([]) == 2
        assert "no paths" in capsys.readouterr().err

    def test_missing_path_is_input_error(self, capsys):
        assert main(["/nonexistent/definitely_not_here"]) == 2
        capsys.readouterr()

    def test_syntax_error_is_input_error(self, tmp_path, capsys):
        (tmp_path / "broken.py").write_text("def f(:\n", encoding="utf-8")
        assert main([str(tmp_path)]) == 2
        assert "cannot parse" in capsys.readouterr().err

    def test_list_checks(self, capsys):
        assert main(["--list-checks"]) == 0
        out = capsys.readouterr().out
        assert "ALP101" in out and "ALP201" in out
        assert "ALP120" in out and "ALP121" in out


CYCLIC_SOURCE = """\
class A:
    @entry
    def p(self):
        yield self.peer.q()

    @manager_process(intercepts=["p"])
    def mgr(self):
        while True:
            call = yield self.accept("p")
            yield from self.execute(call)


class B:
    @entry
    def q(self):
        yield self.peer.p()

    @manager_process(intercepts=["q"])
    def mgr(self):
        while True:
            call = yield self.accept("q")
            yield from self.execute(call)


def build(kernel):
    a = A(kernel)
    b = B(kernel)
    a.peer = b
    b.peer = a
"""


@pytest.fixture
def cyclic_tree(tmp_path):
    (tmp_path / "cyc.py").write_text(CYCLIC_SOURCE, encoding="utf-8")
    return tmp_path


class TestWholeProgram:
    def test_cycle_exits_one(self, cyclic_tree, capsys):
        assert main(["--whole-program", str(cyclic_tree)]) == 1
        out = capsys.readouterr().out
        assert "ALP120" in out
        assert "predicted wait-for cycle" in out

    def test_clean_tree_exits_zero(self, tmp_path, capsys):
        (tmp_path / "ok.py").write_text("x = 1\n", encoding="utf-8")
        assert main(["--whole-program", str(tmp_path)]) == 0
        capsys.readouterr()

    def test_dot_export_on_stdout(self, cyclic_tree, capsys):
        # DOT goes to stdout, so findings text is suppressed — but the
        # exit code still reports the predicted cycle.
        assert main(["--whole-program", "--dot", str(cyclic_tree)]) == 1
        out = capsys.readouterr().out
        assert out.startswith("digraph")
        assert "ALP120" not in out
        assert "red" in out  # cycle edges highlighted

    def test_dot_export_to_file(self, cyclic_tree, tmp_path, capsys):
        target = tmp_path / "graph.dot"
        code = main(
            ["--whole-program", "--dot", str(cyclic_tree), "-o", str(target)]
        )
        assert code == 1
        assert target.read_text(encoding="utf-8").startswith("digraph")
        # Findings still print when DOT went to a file.
        assert "ALP120" in capsys.readouterr().out

    def test_bare_dot_without_whole_program_is_usage_error(self, capsys):
        assert main(["--dot"]) == 2
        assert "--whole-program" in capsys.readouterr().err

    def test_select_filters_whole_program_findings(self, cyclic_tree, capsys):
        assert main(["--whole-program", "--ignore", "ALP120", str(cyclic_tree)]) == 0
        capsys.readouterr()

    def test_syntax_error_is_input_error(self, cyclic_tree, capsys):
        # The same contract as a plain run: exit 2 (not the "findings"
        # code 1), reported on stderr, never a SystemExit out of main().
        (cyclic_tree / "broken.py").write_text("def f(:\n", encoding="utf-8")
        assert main(["--whole-program", str(cyclic_tree)]) == 2
        assert "cannot parse" in capsys.readouterr().err

    def test_dot_directories_are_skipped_in_both_modes(self, tmp_path, capsys):
        # One directory rule: a vendored tree under .venv/ is nobody's
        # program, whichever mode walks the directory.
        (tmp_path / "ok.py").write_text("x = 1\n", encoding="utf-8")
        hidden = tmp_path / ".venv" / "lib"
        hidden.mkdir(parents=True)
        (hidden / "cyc.py").write_text(CYCLIC_SOURCE, encoding="utf-8")
        assert main([str(tmp_path)]) == 0
        assert main(["--whole-program", str(tmp_path)]) == 0
        assert capsys.readouterr().out == ""


class TestSarif:
    def test_sarif_written_alongside_text(self, bad_file, tmp_path, capsys):
        target = tmp_path / "out.sarif"
        assert main(["--sarif", str(target), bad_file]) == 1
        payload = json.loads(target.read_text(encoding="utf-8"))
        assert payload["version"] == "2.1.0"
        run = payload["runs"][0]
        assert run["tool"]["driver"]["name"] == "alpslint"
        results = run["results"]
        assert any(r["ruleId"] == "ALP101" for r in results)
        loc = results[0]["locations"][0]["physicalLocation"]
        assert loc["region"]["startLine"] >= 1
        assert loc["region"]["startColumn"] >= 1  # SARIF is 1-based
        # Rule metadata only for codes actually reported.
        rules = run["tool"]["driver"]["rules"]
        assert {r["id"] for r in rules} == {r["ruleId"] for r in results}
        # Normal text output still printed.
        assert "ALP101" in capsys.readouterr().out

    def test_sarif_with_whole_program(self, cyclic_tree, tmp_path, capsys):
        target = tmp_path / "wp.sarif"
        assert main(
            ["--whole-program", "--sarif", str(target), str(cyclic_tree)]
        ) == 1
        payload = json.loads(target.read_text(encoding="utf-8"))
        results = payload["runs"][0]["results"]
        assert any(r["ruleId"] == "ALP120" for r in results)
        capsys.readouterr()

    def test_clean_sarif_has_empty_results(self, tmp_path, capsys):
        (tmp_path / "ok.py").write_text("x = 1\n", encoding="utf-8")
        target = tmp_path / "clean.sarif"
        assert main(["--sarif", str(target), str(tmp_path / "ok.py")]) == 0
        payload = json.loads(target.read_text(encoding="utf-8"))
        assert payload["runs"][0]["results"] == []
        capsys.readouterr()


class TestLaunchers:
    """The real entry points, run as subprocesses."""

    def test_python_dash_m(self, bad_file):
        env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
        proc = subprocess.run(
            [sys.executable, "-m", "repro.analysis", bad_file],
            capture_output=True,
            text=True,
            env=env,
            cwd=ROOT,
        )
        assert proc.returncode == 1
        assert "ALP101" in proc.stdout

    def test_tools_wrapper_needs_no_pythonpath(self, bad_file):
        env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
        proc = subprocess.run(
            [sys.executable, os.path.join(ROOT, "tools", "alpslint.py"), bad_file],
            capture_output=True,
            text=True,
            env=env,
            cwd=ROOT,
        )
        assert proc.returncode == 1
        assert "ALP101" in proc.stdout
