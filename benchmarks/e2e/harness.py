"""Run one workload once and shape its result for the contract.

``BENCHMARK.json`` is the single source of metric names, units and
bounds; a workload that reports a metric the contract does not name,
or misses one it does, is a harness error.
"""

from __future__ import annotations

import json
from typing import Any, Dict, List, Optional

from benchmarks.e2e import nodes, workloads
from benchmarks.e2e.nodes import REPO_ROOT


class HarnessError(RuntimeError):
    """The benchmark itself misbehaved (as opposed to the program)."""


def contract() -> Dict[str, Any]:
    with open(REPO_ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)


def workload_names() -> List[str]:
    return [entry["name"] for entry in contract()["workloads"]]


def run_once(workload: str, seed: int, seconds: Optional[float] = None,
             traced: bool = False, quick: bool = False,
             verbose: bool = False) -> Dict[str, Any]:
    """One run of *workload*; returns ``{"attempted", "failed",
    "failures", "metrics": {name: value}, "units", "info"}``.  *quick*
    sets up and restarts once instead of several times."""
    spec = contract()
    seconds = float(seconds if seconds is not None else spec["run_seconds"])
    declared = spec["per_layer"] if traced else spec["end_to_end"]
    units = {entry["name"]: entry["unit"] for entry in declared}
    runner = workloads.get(workload)
    try:
        result = (runner.run_traced(seed, seconds, quick) if traced
                  else runner.run(seed, seconds, quick))
    finally:
        survivors = nodes.surviving_vidb_processes()
    if survivors:
        raise HarnessError(f"vidb.cli processes survived the run: {survivors}")
    metrics = result["metrics"]
    unknown = sorted(set(metrics) - set(units))
    if unknown:
        raise HarnessError(f"{workload} reported undeclared metrics {unknown}")
    if traced:
        # A layer the workload does not exercise reads 0: the predicted
        # non-movers are stated, not omitted.
        metrics = {name: metrics.get(name, 0.0) for name in units}
    missing = sorted(set(units) - set(metrics))
    if missing:
        raise HarnessError(f"{workload} did not report {missing}")
    result["metrics"] = {name: float(metrics[name]) for name in units}
    result["units"] = units
    if verbose:
        print(f"workload {workload}  seed {seed}  seconds {seconds:g}  "
              f"{'traced' if traced else 'untraced'}")
        for name, value in result["metrics"].items():
            print(f"  {name:<44s} {value:>14.4f} {units[name]}")
        for key, value in sorted(result.get("info", {}).items()):
            print(f"  ({key}: {value})")
        print(f"  attempted {result['attempted']}  failed {result['failed']}"
              + "".join(f"\n    FAILED {name}: {count}"
                        for name, count in
                        sorted(result["failures"].items())))
    return result


def contract_line(result: Dict[str, Any]) -> Dict[str, Any]:
    """The object the driver reads from the last line of stdout."""
    return {
        "correct": result["failed"] == 0,
        "attempted": max(1, int(result["attempted"])),
        "failed": int(result["failed"]),
        "metrics": {name: {"value": value, "unit": result["units"][name]}
                    for name, value in result["metrics"].items()},
    }
