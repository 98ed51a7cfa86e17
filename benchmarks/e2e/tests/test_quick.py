"""``--quick`` drives all four workloads, untraced and traced, against
real subprocesses and emits every metric ``BENCHMARK.json`` declares."""

import json
import os
import subprocess
import sys
import time

from benchmarks.e2e.nodes import REPO_ROOT, surviving_vidb_processes

SPEC = json.loads((REPO_ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _quick(tmp_path, *flags):
    out = tmp_path / "quick.json"
    env = dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src"))
    began = time.perf_counter()
    done = subprocess.run(
        [sys.executable, "-m", "benchmarks.e2e", "run", "--quick",
         "--out", str(out), *flags],
        cwd=REPO_ROOT, env=env, capture_output=True, text=True, timeout=600)
    elapsed = time.perf_counter() - began
    assert done.returncode == 0, done.stdout + done.stderr
    return json.loads(out.read_text(encoding="utf-8")), elapsed


def _assert_complete(results, declared):
    workloads = [w["name"] for w in SPEC["workloads"]]
    assert list(results["workloads"]) == workloads
    for name in workloads:
        cells = results["workloads"][name]
        for entry in declared:
            cell = cells[entry["name"]]
            assert cell["unit"] == entry["unit"]
            assert cell["n"] == 1
        assert cells["failed_ops_ratio"]["median"] == 0.0, (
            name, results["failures"][name])
    assert surviving_vidb_processes() == []


def test_quick_emits_every_end_to_end_metric(tmp_path):
    results, elapsed = _quick(tmp_path)
    _assert_complete(results, SPEC["end_to_end"])
    for cells in results["workloads"].values():
        for entry in SPEC["end_to_end"]:
            assert cells[entry["name"]]["median"] > 0, entry["name"]
    assert elapsed < 60, f"--quick took {elapsed:.0f}s"


def test_quick_emits_every_per_layer_metric(tmp_path):
    results, _ = _quick(tmp_path, "--traced")
    _assert_complete(results, SPEC["per_layer"])
