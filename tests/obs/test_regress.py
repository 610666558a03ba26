"""Benchmark trajectory recording and the perf-regression gate."""

import json

from repro.obs.regress import (
    Metric,
    check,
    flatten,
    latest_baselines,
    load_history,
    main,
    record,
)


def _bench(experiment="e1", rows=None, note="test rows"):
    return {
        "experiment": experiment,
        "git_rev": "abc1234",
        "note": note,
        "rows": rows if rows is not None else [
            {"mechanism": "manager", "size": 4, "ops_per_ktick": 100.0,
             "switches": 2000, "spawns": 3},
            {"mechanism": "monitor", "size": 4, "ops_per_ktick": 150.0,
             "switches": 1500, "spawns": 3},
        ],
    }


def _write(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


class TestFlatten:
    def test_tracked_cells_become_cell_metric_keys(self):
        flat = flatten(_bench())
        assert flat == {
            "manager/4:ops_per_ktick": 100.0,
            "manager/4:switches": 2000,
            "monitor/4:ops_per_ktick": 150.0,
            "monitor/4:switches": 1500,
        }

    def test_untracked_experiment_flattens_empty(self):
        assert flatten(_bench(experiment="e7")) == {}

    def test_non_numeric_tracked_values_are_skipped(self):
        rows = [{"mechanism": "manager", "size": 1, "ops_per_ktick": "n/a",
                 "switches": 10}]
        assert flatten(_bench(rows=rows)) == {"manager/1:switches": 10}


class TestMetricDirection:
    def test_higher_is_better_regresses_downward_past_tolerance(self):
        metric = Metric("ops", higher_is_better=True, tolerance=0.05)
        assert not metric.regressed(100.0, 96.0)
        assert metric.regressed(100.0, 94.0)
        assert not metric.regressed(100.0, 120.0)

    def test_lower_is_better_regresses_upward_past_tolerance(self):
        metric = Metric("switches", higher_is_better=False, tolerance=0.10)
        assert not metric.regressed(1000, 1099)
        assert metric.regressed(1000, 1101)
        assert not metric.regressed(1000, 800)

    def test_zero_baseline_is_a_hard_floor(self):
        # The lost_acked contract: any move off zero in the bad
        # direction fails, tolerance notwithstanding.
        metric = Metric("lost_acked", higher_is_better=False, tolerance=0.0)
        assert not metric.regressed(0, 0)
        assert metric.regressed(0, 1)
        lenient = Metric("lost_acked", higher_is_better=False, tolerance=0.5)
        assert lenient.regressed(0, 1)


class TestRecordCheckRoundTrip:
    def test_record_then_check_is_clean(self, tmp_path):
        history = str(tmp_path / "hist.jsonl")
        bench = _write(tmp_path, "BENCH_E1.json", _bench())
        added = record(history, [bench])
        assert [e["experiment"] for e in added] == ["E1"]
        assert added[0]["seq"] == 1
        report = check(history, [bench])
        assert report.ok()
        assert all(f.verdict == "ok" for f in report.findings)

    def test_second_record_bumps_seq_and_becomes_baseline(self, tmp_path):
        history = str(tmp_path / "hist.jsonl")
        first = _write(tmp_path, "a.json", _bench())
        record(history, [first])
        improved = _bench()
        improved["rows"][0]["ops_per_ktick"] = 130.0
        second = _write(tmp_path, "b.json", improved)
        added = record(history, [second])
        assert added[0]["seq"] == 2
        # The check compares against the *latest* entry per experiment.
        base = latest_baselines(load_history(history))
        assert base["E1"]["metrics"]["manager/4:ops_per_ktick"] == 130.0
        assert check(history, [second]).ok()
        assert not check(history, [first]).ok()  # old numbers now regress

    def test_retired_experiment_stays_as_history_and_gates_nothing(self, tmp_path):
        history = tmp_path / "hist.jsonl"
        bench = _write(tmp_path, "BENCH_E1.json", _bench())
        record(str(history), [bench])
        retired = {"experiment": "ESPEED", "seq": 2, "git_rev": "abc1234",
                   "note": "", "metrics": {"pingpong:events": 6408}}
        with history.open("a") as fh:
            fh.write(json.dumps(retired) + "\n")
        assert len(load_history(str(history))) == 2
        assert list(latest_baselines(load_history(str(history)))) == ["E1"]
        assert check(str(history), [bench]).ok()  # no BENCH_ESPEED.json owed

    def test_regression_is_reported_readably(self, tmp_path):
        history = str(tmp_path / "hist.jsonl")
        base = _write(tmp_path, "base.json", _bench())
        record(history, [base])
        slow = _bench()
        slow["rows"][0]["ops_per_ktick"] = 80.0  # -20% < 5% tolerance
        slow["rows"][1]["switches"] = 1501       # +1 switch: moved, not failed
        current = _write(tmp_path, "cur.json", slow)
        report = check(history, [current])
        assert not report.ok()
        verdicts = {f.key: f.verdict for f in report.findings}
        assert verdicts["manager/4:ops_per_ktick"] == "REGRESSED"
        assert verdicts["monitor/4:switches"] == "moved"
        text = report.render()
        assert "REGRESSED" in text and "100.0 -> 80.0" in text
        assert "regression(s)" in text

    def test_vanished_metric_and_empty_history_are_problems(self, tmp_path):
        history = str(tmp_path / "hist.jsonl")
        assert not check(history, []).ok()  # empty history
        record(history, [_write(tmp_path, "a.json", _bench())])
        shrunk = _bench(rows=[_bench()["rows"][0]])  # monitor cell gone
        report = check(history, [_write(tmp_path, "b.json", shrunk)])
        assert not report.ok()
        assert any("vanished" in p for p in report.problems)


class TestCheckProblems:
    """Each problem branch of :func:`check`: none is a regression, each
    fails the gate (except a new metric, which only reports)."""

    def _recorded(self, tmp_path, payload=None):
        history = str(tmp_path / "hist.jsonl")
        record(history, [_write(tmp_path, "base.json", payload or _bench())])
        return history

    def test_unreadable_bench_file_is_a_problem(self, tmp_path):
        history = self._recorded(tmp_path)
        good = _write(tmp_path, "BENCH_E1.json", _bench())
        garbled = tmp_path / "BENCH_E9.json"
        garbled.write_text("{not json")
        missing = str(tmp_path / "BENCH_E2.json")
        report = check(history, [good, str(garbled), missing])
        assert not report.ok()
        assert [p.split(":")[0] for p in report.problems] == [
            f"cannot read {garbled}",
            f"cannot read {missing}",
        ]

    def test_tracked_experiment_absent_from_trajectory_is_a_problem(self, tmp_path):
        history = self._recorded(tmp_path)
        e12 = _write(tmp_path, "BENCH_E12.json", _bench(experiment="e12"))
        report = check(history, [_write(tmp_path, "BENCH_E1.json", _bench()), e12])
        assert not report.ok()
        assert report.problems == ["E12: present now but absent from the trajectory"]

    def test_new_metric_is_reported_not_failed(self, tmp_path):
        history = self._recorded(tmp_path, _bench(rows=[_bench()["rows"][0]]))
        report = check(history, [_write(tmp_path, "BENCH_E1.json", _bench())])
        assert report.ok()
        verdicts = {f.key: f.verdict for f in report.findings}
        assert verdicts["monitor/4:ops_per_ktick"] == "new"
        assert verdicts["monitor/4:switches"] == "new"
        assert verdicts["manager/4:ops_per_ktick"] == "ok"
        assert "None -> 150.0" in report.render()

    def test_recorded_experiment_not_given_is_a_problem(self, tmp_path):
        history = self._recorded(tmp_path)
        report = check(history, [])
        assert not report.ok()
        assert report.problems == [
            "E1: recorded in the trajectory but no current BENCH_E1.json was given"
        ]
        assert "PROBLEM: E1: recorded" in report.render()


class TestCli:
    def test_record_check_show_exit_codes(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        bench = _write(tmp_path, "BENCH_E1.json", _bench())
        assert main(["--record", "--history", "h.jsonl", bench]) == 0
        assert "recorded E1 (seq 1" in capsys.readouterr().out
        assert main(["--check", "--history", "h.jsonl", bench]) == 0
        assert "verdict: OK" in capsys.readouterr().out
        assert main(["--show", "--history", "h.jsonl"]) == 0
        assert "seq 1" in capsys.readouterr().out

    def test_check_fails_on_regression_with_json_output(
        self, tmp_path, capsys
    ):
        history = str(tmp_path / "h.jsonl")
        base = _write(tmp_path, "base.json", _bench())
        assert main(["--record", "--history", history, base]) == 0
        capsys.readouterr()
        slow = _bench()
        slow["rows"][0]["ops_per_ktick"] = 50.0
        current = _write(tmp_path, "cur.json", slow)
        assert main(["--check", "--history", history, "--json", current]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["ok"] is False
        assert any(f["verdict"] == "REGRESSED" for f in payload["findings"])

    def test_usage_errors_exit_2(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)  # no BENCH_E*.json in cwd
        assert main(["--check", "--history", "h.jsonl"]) == 2
        untracked = _write(tmp_path, "BENCH_E7.json", _bench(experiment="e7"))
        assert main(["--record", "--history", "h.jsonl", untracked]) == 2
