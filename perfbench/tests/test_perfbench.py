"""Tests of the benchmark itself, on smoke-size inputs.

Run from the repository root:  python -m pytest perfbench/tests
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import harness  # noqa: E402
from workloads import SETUPS  # noqa: E402

WORKLOADS = tuple(SETUPS)

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
REPEATED_COUNTS = ("linalg.svd_calls", "redundancy.spark_subsets",
                   "frames.is_kframe_calls", "recovery.solve_calls")


def run_small(workload, trace=False, seconds=0.0, seed=3, hook=None):
    return harness.run(workload, seed, seconds, trace, ROOT, small=True,
                       workload_hook=hook)["result"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_run_is_correct_and_reports_every_metric(workload):
    result = run_small(workload)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    assert set(result["metrics"]) == {m["name"] for m in BENCH["end_to_end"]}
    assert all(m["value"] > 0 for m in result["metrics"].values())


def _wrong_spark(wl):
    wl.expect["spark_N"] = 99


def _wrong_excess(wl):
    wl.expect["invertible"]["uniform_excess"] = {"value": 1, "witness": None}


def _wrong_fixc_residual(wl):
    wl.expect["fixc_residual"] = 3.0


@pytest.mark.parametrize("workload, plant", [
    ("simulate-batch", _wrong_spark),
    ("redundancy-scan", _wrong_excess),
    ("cli-interactive", _wrong_fixc_residual),
])
def test_wrong_expectation_raises_fail_frac(workload, plant):
    result = run_small(workload, hook=plant)
    assert not result["correct"]
    assert 0 < result["failed"] <= result["attempted"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_counts_repeat_for_a_seed(workload):
    first, second = (run_small(workload, trace=True, seconds=0.5) for _ in range(2))
    assert first["correct"] and second["correct"]
    assert set(first["metrics"]) == {m["name"] for m in BENCH["per_layer"]}
    for name in REPEATED_COUNTS:
        assert first["metrics"][name] == second["metrics"][name], name


def test_refuses_to_run_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, *BENCH["command"][1:], "--workload", "simulate-batch",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
