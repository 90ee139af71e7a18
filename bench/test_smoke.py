"""Smoke test of the benchmark at a tiny size.

    python3 -m pytest -q bench/test_smoke.py

Every workload runs for one second untraced and once traced. Each run
must emit exactly the metric names and units that BENCHMARK.json lists,
check every op with no failure, and report its environment and input
digest. The pools must be pure functions of the seed, and the benchmark
must refuse to run where there is no k3bv source to measure.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
    SPEC = json.load(fh)


def run_bench(cwd, workload, trace, seed=1, seconds=1):
    cmd = SPEC["command"] + ["--workload", workload, "--seed", str(seed),
                             "--seconds", str(seconds), "--trace", str(trace)]
    cmd[0] = sys.executable if cmd[0] == "python3" else cmd[0]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=180)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_run_emits_every_metric(workload, trace):
    proc = run_bench(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result, report = json.loads(lines[-1]), json.loads(lines[-2])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, report["failures"]
    assert result["failed"] == 0 and result["attempted"] >= 1
    assert report["fail_ratio"] == 0
    expected = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in expected}
    assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())
    assert set(report["env"]) == {"python", "nproc", "commit", "loadavg_start",
                                  "calibration_ms_before", "calibration_ms_after"}
    assert len(report["input_digest"]) == 16
    if trace:
        assert report["nesting_errors"] == 0
    else:
        assert all(result["metrics"][m["name"]]["value"] > 0 for m in SPEC["end_to_end"])
        assert report["ops_per_s"] > 0 and report["op_p50_ms"] > 0 and report["samples"] >= 1


def test_pools_are_pure_functions_of_the_seed():
    sys.path[:0] = [os.path.join(ROOT, "src"), BENCH]
    try:
        from metrics import WORKLOADS
        from workloads import digest, workload
        for name in WORKLOADS:
            wl = workload(name, ROOT)
            assert digest(wl.make_pool(3)) == digest(wl.make_pool(3))
            assert digest(wl.make_pool(3)) != digest(wl.make_pool(4))
    finally:
        del sys.path[:2]


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(os.path.join(ROOT, path), tmp_path / path,
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = run_bench(tmp_path, SPEC["workloads"][0]["name"], 0)
    assert proc.returncode != 0
    assert proc.stdout == ""
