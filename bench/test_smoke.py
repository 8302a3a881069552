"""Smoke test of the benchmark: one short run per workload and mode.

    python3 -m pytest -q bench/test_smoke.py

Each run must pass every check with no failed operation and print every
metric that BENCHMARK.json declares: each end-to-end metric positive on
every workload, each per-layer metric present and positive on at least one
workload (a layer a workload never reaches reads 0 there).
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run(workload, trace):
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "7",
         "--seconds", "1", "--trace", str(trace)],
        capture_output=True, text=True, timeout=170, cwd=ROOT,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"], proc.stderr
    assert result["attempted"] >= 1 and result["failed"] == 0, proc.stderr
    return result["metrics"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics(workload):
    metrics = run(workload, 0)
    assert set(metrics) == {m["name"] for m in SPEC["end_to_end"]}
    for m in SPEC["end_to_end"]:
        assert metrics[m["name"]]["unit"] == m["unit"]
        assert metrics[m["name"]]["value"] > 0, m["name"]


def test_per_layer_metrics():
    seen = {m["name"]: 0.0 for m in SPEC["per_layer"]}
    for workload in WORKLOADS:
        metrics = run(workload, 1)
        assert set(metrics) == set(seen)
        for m in SPEC["per_layer"]:
            assert metrics[m["name"]]["unit"] == m["unit"]
            assert metrics[m["name"]]["value"] >= 0, m["name"]
            seen[m["name"]] = max(seen[m["name"]], metrics[m["name"]]["value"])
    assert all(v > 0 for v in seen.values()), [k for k, v in seen.items() if v <= 0]


def test_refuses_without_sources(tmp_path):
    (tmp_path / "bench").mkdir()
    for f in (ROOT / "bench").glob("*.py"):
        (tmp_path / "bench" / f.name).write_text(f.read_text())
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(SPEC))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", WORKLOADS[0], "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=60, cwd=tmp_path,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
