"""The workloads' inputs follow the seed, and every output check passes off-seed."""

import json
import os
import shutil
import subprocess
import sys

import pytest

import metrics
import workloads
from conftest import PERFLAB, ROOT

SMALL = {"kv_steady": 150, "kv_overload": 150, "kv_observed": 150, "repl_crash": 120,
         "buffer_closed": 160, "pool_smp": 128, "chan_timer": 400}


def test_seed_changes_the_generated_streams():
    assert workloads.poisson_times(11, 12, 200) != workloads.poisson_times(23, 12, 200)
    assert workloads.poisson_times(23, 12, 200) == workloads.poisson_times(23, 12, 200)
    assert workloads.zipf_keys(11, 256, 1.2, 200) != workloads.zipf_keys(23, 256, 1.2, 200)
    assert workloads.uniform_keys(11, 64, 200) != workloads.uniform_keys(23, 64, 200)
    times = workloads.poisson_times(23, 12, 200)
    assert times == sorted(times) and 0 <= times[0] and times[-1] < 200 * 12


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_held_out_seed_passes_every_check(name):
    def fingerprint(seed):
        scenario = workloads.WORKLOADS[name].build(seed, SMALL[name])
        scenario.run()
        result = scenario.finish()  # raises CheckFailed on any output check
        assert result.n == SMALL[name] == len(result.ops)
        assert not any(status in metrics.FAILED_STATUSES for status, _lat in result.ops)
        return metrics.fingerprint(
            scenario.kernel.stats.resumptions, scenario.kernel.clock.now, result.ops)

    assert fingerprint(23) == fingerprint(23)


def test_observed_twin_is_schedule_neutral():
    prints = []
    for name in ("kv_steady", "kv_observed"):
        scenario = workloads.WORKLOADS[name].build(23, 150)
        scenario.run()
        result = scenario.finish()
        prints.append(metrics.fingerprint(
            scenario.kernel.stats.resumptions, scenario.kernel.clock.now, result.ops))
    assert prints[0] == prints[1]
    assert workloads.WORKLOADS["kv_observed"].twin == "kv_steady"


def test_a_broken_delivery_fails_the_check():
    with pytest.raises(workloads.CheckFailed, match="was due"):
        workloads._check_fifo([(0, 1), (0, 0)], 1, 2, "swapped")
    with pytest.raises(workloads.CheckFailed, match="lost or duplicated"):
        workloads._check_channels([(0, 0), (1, 1), (1, 1)], 3, "duplicate")
    with pytest.raises(workloads.CheckFailed, match="after"):
        workloads._check_channels([(0, 3), (0, 0), (1, 1), (2, 2)], 4, "reordered")


def test_driver_protocol_on_the_held_out_seed(tmp_path):
    done = subprocess.run(
        [sys.executable, os.path.join(PERFLAB, "run.py"), "--workload", "buffer_closed",
         "--seed", "23", "--seconds", "0.2", "--trace", "0", "--out", str(tmp_path)],
        capture_output=True, text=True, timeout=170)
    assert done.returncode == 0, done.stderr
    last = json.loads(done.stdout.splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is True and last["failed"] == 0 and last["attempted"] >= 1
    assert set(last["metrics"]) == set(metrics.END_TO_END)
    assert all(m["value"] > 0 for m in last["metrics"].values())
    report = json.loads((tmp_path / "LAYERS_buffer_closed.json").read_text())
    assert sum(row["pyops"] for row in report["layers"]) \
        == round(last["metrics"]["pyops_per_op"]["value"] * report["ops"])


def test_fails_cleanly_without_src(tmp_path):
    shutil.copytree(PERFLAB, tmp_path / "perflab",
                    ignore=shutil.ignore_patterns("out", "__pycache__", ".pytest_cache"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    done = subprocess.run(
        [sys.executable, "perflab/run.py", "--workload", "buffer_closed", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert done.stdout == ""
    assert "src" in done.stderr
