"""Summary statistics, the environment stamp, and the result schema.

A results file is ``{"env": {...}, "workloads": {workload: {metric:
{"median", "q1", "q3", "n", "unit"}}}}``; :func:`summarize` builds one
metric cell from the per-repeat values.
"""

from __future__ import annotations

import math
import os
import platform
import statistics
import subprocess
import sys
from typing import Any, Dict, Iterable, List, Sequence

from benchmarks.e2e.nodes import REPO_ROOT


def percentile(samples: Sequence[float], q: float) -> float:
    """The q-th percentile (0..100) by linear interpolation."""
    if not samples:
        return 0.0
    ordered = sorted(samples)
    position = (len(ordered) - 1) * q / 100.0
    lower = math.floor(position)
    upper = min(lower + 1, len(ordered) - 1)
    return ordered[lower] + (ordered[upper] - ordered[lower]) * (position - lower)


def median(samples: Sequence[float]) -> float:
    return statistics.median(samples) if samples else 0.0


def mean(samples: Iterable[float]) -> float:
    values = list(samples)
    return sum(values) / len(values) if values else 0.0


def quartiles(values: Sequence[float]) -> List[float]:
    """``[q1, median, q3]`` as ``statistics.quantiles(n=4)`` gives them
    (the driver's spread rule); a single value is its own quartiles."""
    if len(values) < 2:
        value = values[0] if values else 0.0
        return [value, value, value]
    return statistics.quantiles(values, n=4)


def summarize(values: Sequence[float], unit: str) -> Dict[str, Any]:
    q1, mid, q3 = quartiles(values)
    return {"median": mid, "q1": q1, "q3": q3, "n": len(values),
            "unit": unit}


def spread(cell: Dict[str, Any]) -> float:
    """Inter-quartile distance as a share of the median."""
    if not cell["median"]:
        return 0.0
    return (cell["q3"] - cell["q1"]) / abs(cell["median"])


def _commit() -> str:
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=REPO_ROOT,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def environment(seed: int, seconds: float) -> Dict[str, Any]:
    """Where and how a results file was measured."""
    from vidb.constraints.kernel import default_kernel_name

    return {
        "python": sys.version.split()[0],
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "loadavg": list(os.getloadavg()),
        "commit": _commit(),
        "seed": seed,
        "seconds": seconds,
        "kernel": default_kernel_name(),
        "fsync_policy": {"adhoc_cold": "never",
                         "dashboard_routed": "interval",
                         "stream_ingest": "interval",
                         "write_recover": "interval"},
    }
