"""``python -m benchmarks.e2e`` — the benchmark's command for people.

``run`` repeats workloads and writes one results file; ``compare``
holds two results files against the bounds in ``BENCHMARK.json``.
The driver's own entry point is ``run.py`` (one workload, one run).
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional

from benchmarks.e2e import harness, stats
from benchmarks.e2e.nodes import OUT_DIR

#: ``--quick``: about 1/20 of the contract's run, one set-up, one restart.
QUICK_SECONDS = 0.6


def _run(args: argparse.Namespace) -> int:
    spec = harness.contract()
    names = [args.workload] if args.workload else harness.workload_names()
    seconds = QUICK_SECONDS if args.quick else float(
        args.seconds if args.seconds is not None else spec["run_seconds"])
    began = time.perf_counter()
    results: Dict[str, Any] = {
        "env": stats.environment(args.seed, seconds),
        "traced": bool(args.traced), "quick": bool(args.quick),
        "workloads": {}, "failures": {}}
    failed = 0
    for name in names:
        runs: List[Dict[str, Any]] = []
        for repeat in range(args.repeats):
            seed = args.seed + repeat if args.vary_seed else args.seed
            runs.append(harness.run_once(
                name, seed, seconds, traced=args.traced, quick=args.quick,
                verbose=args.verbose))
            failed += runs[-1]["failed"]
        units = runs[0]["units"]
        cells = {}
        for metric, unit in units.items():
            cell = stats.summarize([r["metrics"][metric] for r in runs], unit)
            cell["values"] = [r["metrics"][metric] for r in runs]
            cells[metric] = cell
        cells["failed_ops_ratio"] = stats.summarize(
            [r["failed"] / max(1, r["attempted"]) for r in runs], "ratio")
        results["workloads"][name] = cells
        results["failures"][name] = [r["failures"] for r in runs]
    _print_table(results)
    out = Path(args.out) if args.out else OUT_DIR / (
        "results_traced.json" if args.traced else "results.json")
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(results, indent=2, sort_keys=True) + "\n",
                   encoding="utf-8")
    print(f"wrote {out}  ({time.perf_counter() - began:.1f}s, "
          f"{failed} failed op(s))")
    return 0


def _print_table(results: Dict[str, Any]) -> None:
    for name, cells in results["workloads"].items():
        print(f"\n{name}")
        print(f"  {'metric':<44s} {'median':>12s} {'q1':>12s} {'q3':>12s} "
              f"{'spread':>7s} {'n':>3s}  unit")
        for metric, cell in cells.items():
            print(f"  {metric:<44s} {cell['median']:>12.4f} "
                  f"{cell['q1']:>12.4f} {cell['q3']:>12.4f} "
                  f"{stats.spread(cell) * 100:>6.1f}% {cell['n']:>3d}  "
                  f"{cell['unit']}")
        for run_failures in results["failures"][name]:
            for failure, count in sorted(run_failures.items()):
                print(f"  FAILED {failure}: {count}")


def _verdict(a: Dict[str, Any], b: Dict[str, Any], better: str,
             bound: float) -> str:
    """*worse*, *no worse* or *unresolved* for one workload x metric,
    B against parent A (choosing-metrics guide, section 6.5)."""
    sign = -1.0 if better == "higher" else 1.0
    change = sign * (b["median"] - a["median"]) / abs(a["median"] or 1.0)
    if max(stats.spread(a), stats.spread(b)) > bound:
        a_runs = [sign * v for v in a.get("values", [a["median"]])]
        b_runs = [sign * v for v in b.get("values", [b["median"]])]
        if not max(b_runs) < min(a_runs):
            return "unresolved"
    return "worse" if change > bound else "no worse"


def _compare(args: argparse.Namespace) -> int:
    spec = harness.contract()
    first, second = (json.loads(Path(p).read_text(encoding="utf-8"))
                     for p in (args.parent, args.change))
    worse = 0
    print(f"{'workload':<18s} {'metric':<28s} {'parent':>12s} {'change':>12s} "
          f"{'delta':>8s} {'bound':>6s}  verdict")
    for name in harness.workload_names():
        a_cells = first["workloads"].get(name, {})
        b_cells = second["workloads"].get(name, {})
        for entry in spec["end_to_end"]:
            metric = entry["name"]
            if metric not in a_cells or metric not in b_cells:
                continue
            a, b = a_cells[metric], b_cells[metric]
            verdict = _verdict(a, b, entry["better"], entry["bound"])
            worse += verdict == "worse"
            delta = (b["median"] - a["median"]) / abs(a["median"] or 1.0)
            print(f"{name:<18s} {metric:<28s} {a['median']:>12.4f} "
                  f"{b['median']:>12.4f} {delta * 100:>+7.1f}% "
                  f"{entry['bound'] * 100:>5.0f}%  {verdict}")
        a_failed = a_cells.get("failed_ops_ratio", {}).get("median", 0.0)
        b_failed = b_cells.get("failed_ops_ratio", {}).get("median", 0.0)
        verdict = "worse" if b_failed > a_failed else "no worse"
        worse += verdict == "worse"
        print(f"{name:<18s} {'failed_ops_ratio':<28s} {a_failed:>12.6f} "
              f"{b_failed:>12.6f} {'':>8s} {'0%':>6s}  {verdict}")
    print(f"{worse} metric(s) worse")
    return 1 if worse else 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(prog="python -m benchmarks.e2e",
                                     description=__doc__.split("\n\n")[0])
    commands = parser.add_subparsers(dest="command", required=True)
    run = commands.add_parser("run", help="run workloads, write results")
    run.add_argument("--workload", choices=harness.workload_names())
    run.add_argument("--seed", type=int, default=0)
    run.add_argument("--seconds", type=float, default=None)
    run.add_argument("--repeats", type=int, default=1)
    run.add_argument("--vary-seed", action="store_true",
                     help="repeat r runs seed+r instead of the same seed")
    run.add_argument("--traced", action="store_true",
                     help="the per-layer ladder instead of the "
                          "end-to-end metrics")
    run.add_argument("--quick", action="store_true",
                     help="about 1/20 size: a smoke test, not a measurement")
    run.add_argument("--verbose", action="store_true")
    run.add_argument("--out", default=None, metavar="FILE")
    run.set_defaults(handler=_run)
    compare = commands.add_parser(
        "compare", help="apply BENCHMARK.json's bounds to two results files")
    compare.add_argument("parent")
    compare.add_argument("change")
    compare.set_defaults(handler=_compare)
    args = parser.parse_args(argv)
    return args.handler(args)


if __name__ == "__main__":
    sys.exit(main())
