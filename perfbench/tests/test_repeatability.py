"""Self-tests of the benchmark: repeatable counts, a validated call
counter, and a clean refusal without the program's source.

Run from the repository root (a few minutes: every workload runs its
per-layer measurement twice)::

    python3 -m pytest perfbench/tests -q
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
RUN = os.path.join(BENCH, "run.py")
with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    SPEC = json.load(_fh)
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

#: Python calls per served request of the contended 3-writer kernel at the
#: revision the counting method was calibrated against
CALIBRATED_CALLS_PER_REQ = 484


def _layers(workload, seed=0):
    out = subprocess.run(
        [sys.executable, RUN, "--workload", workload, "--seed", str(seed),
         "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=600, check=True)
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert result["correct"], out.stdout
    assert result["failed"] == 0
    return result["metrics"]


def _host_time(name, metric):
    return metric["unit"] == "us" or name == "trace.overhead_frac"


@pytest.fixture(scope="module")
def layer_runs():
    return {w: (_layers(w), _layers(w)) for w in WORKLOADS}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_counts_repeat_exactly(layer_runs, workload):
    first, second = layer_runs[workload]
    assert sorted(first) == sorted(m["name"] for m in SPEC["per_layer"])
    assert first.keys() == second.keys()
    for name, metric in first.items():
        if not _host_time(name, metric):
            assert metric == second[name], name


def test_contended_calls_match_calibration(layer_runs):
    calls = layer_runs["contended_write"][0]["program.calls_per_req"]["value"]
    assert abs(calls / CALIBRATED_CALLS_PER_REQ - 1) <= 0.01, calls


def test_refuses_without_program_source(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "outage",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert out.returncode != 0
    assert '"correct"' not in out.stdout
