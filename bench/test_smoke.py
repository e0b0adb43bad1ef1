"""Tiny-size smoke test of the benchmark harness.

Checks that every workload runs, passes its own output checks and reports
exactly the metrics BENCHMARK.json names.  No timing is asserted.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
TINY = {"scale": 0.001, "setup_repeats": 1}


def _expect_metrics(result: dict, trace: bool) -> None:
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    for entry in result["metrics"].values():
        assert isinstance(entry["value"], (int, float))


@pytest.mark.parametrize(
    "workload,trace",
    [("oneshot", False), ("sweep", True), ("library", False), ("library", True)],
)
def test_workload_reports_declared_metrics(workload, trace):
    record, result = run.run(workload, 3, 0.0, trace, **TINY)
    _expect_metrics(result, trace)
    assert record["fail_ratio"] == 0.0 and not record["problems"]
    assert {"commit", "python", "numpy", "nproc"} <= set(record["machine"])


def test_same_seed_gives_same_digests_traced_or_not():
    untraced, result = run.run("simulate", 5, 0.0, False, **TINY)
    _expect_metrics(result, False)
    traced, result = run.run("simulate", 5, 0.0, True, **TINY)
    _expect_metrics(result, True)
    assert untraced["output_digests"] == traced["output_digests"]


def test_tail_latency_leaves_ten_samples_beyond():
    assert run.tail_latency([float(x) for x in range(1, 31)]) == (20.0, 100.0 * 20 / 30, 30)
    assert run.tail_latency([float(x) for x in range(20, 0, -1)]) == (20.0, 100.0, 20)


def test_refuses_to_run_without_the_source_tree(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "oneshot", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == b""
