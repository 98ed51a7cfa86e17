"""EXPLAIN ANALYZE-style rendering of an execution report.

:func:`format_profile` turns an :class:`~vidb.query.execution.ExecutionReport`
into the table ``vidb query --profile`` prints: a stage breakdown whose
times sum to the total wall-clock, a per-rule table (time, firings,
derived facts, constraint checks, ⊕ objects), the hot-path solver
aggregates, and the per-iteration fixpoint timings.
"""

from __future__ import annotations

from typing import Any, Dict, List

from vidb.bench.tables import format_table

#: Aggregate names in display order (unknown names follow alphabetically).
_KNOWN_AGGREGATES = (
    "solver.entails",
    "solver.satisfiable",
    "setorder.closure",
    "concat.create",
)


def _share(seconds: float, total: float) -> str:
    if total <= 0:
        return "-"
    return f"{100.0 * seconds / total:.1f}%"


def format_stage_table(stages: Dict[str, float], total_s: float) -> str:
    rows = [
        {"stage": name, "seconds": round(seconds, 6),
         "share": _share(seconds, total_s)}
        for name, seconds in stages.items()
    ]
    accounted = sum(stages.values())
    rows.append({"stage": "(total)", "seconds": round(total_s, 6),
                 "share": _share(accounted, total_s)})
    return format_table(rows, columns=["stage", "seconds", "share"])


def format_rule_table(rules: Dict[str, Any], total_s: float) -> str:
    ordered = sorted(rules.items(), key=lambda kv: -kv[1].seconds)
    rows = []
    for label, profile in ordered:
        rows.append({
            "rule": label,
            "seconds": round(profile.seconds, 6),
            "share": _share(profile.seconds, total_s),
            "firings": profile.firings,
            "derived": profile.derived_facts,
            "checks": profile.constraint_checks,
            "objects": profile.created_objects,
        })
    return format_table(rows, columns=["rule", "seconds", "share", "firings",
                                       "derived", "checks", "objects"])


def format_aggregate_table(aggregates: Dict[str, Dict[str, float]]) -> str:
    known = [name for name in _KNOWN_AGGREGATES if name in aggregates]
    rest = sorted(set(aggregates) - set(known))
    rows = []
    for name in known + rest:
        agg = aggregates[name]
        count = int(agg.get("count", 0))
        seconds = agg.get("seconds", 0.0)
        rows.append({
            "call": name,
            "count": count,
            "seconds": round(seconds, 6),
            "mean_us": round(1e6 * seconds / count, 2) if count else 0.0,
        })
    return format_table(rows, columns=["call", "count", "seconds", "mean_us"])


def format_iterations(iteration_seconds: List[float], limit: int = 12) -> str:
    shown = [f"{s * 1000:.3f}" for s in iteration_seconds[:limit]]
    suffix = ""
    if len(iteration_seconds) > limit:
        suffix = f" … (+{len(iteration_seconds) - limit} more)"
    return ("iteration times (ms): " + ", ".join(shown) + suffix
            if shown else "iteration times (ms): (none)")


def format_cost_table(cost) -> str:
    """The prepare-time cost advisories as a table."""
    rows = [
        {"body": label, "est_rows": est, "peak_rows": peak,
         "blowup": blowup}
        for label, est, peak, blowup in cost.rows()
    ]
    return format_table(rows, columns=["body", "est_rows", "peak_rows",
                                       "blowup"])


def format_profile(report) -> str:
    """The full profile text for one execution report."""
    stats = report.stats
    total = stats.elapsed_s
    kernel = f" · kernel {stats.kernel}" if stats.kernel else ""
    header = (f"== execution profile ==\n"
              f"total {total:.6f} s · mode {stats.mode}{kernel} · "
              f"{stats.iterations} iteration(s) · "
              f"{len(report.answers)} answer(s) · "
              f"{stats.derived_facts} derived · "
              f"{stats.constraint_checks} constraint check(s)")
    sections = [header]
    if stats.stages:
        sections.append("-- stages --\n" + format_stage_table(stats.stages,
                                                              total))
    if stats.rules:
        sections.append("-- rules --\n" + format_rule_table(stats.rules,
                                                            total))
    if report.aggregates:
        sections.append("-- hot calls --\n"
                        + format_aggregate_table(report.aggregates))
    cost = getattr(report, "cost", None)
    if cost is not None and cost.costs:
        sections.append("-- cost (estimated) --\n" + format_cost_table(cost))
    if report.demand:
        sections.append("-- demand --\n" + "\n".join(report.demand))
    bounds = getattr(report, "bounds", ())
    if bounds:
        sections.append("-- inferred bounds --\n"
                        + "\n".join(bounds))
    advisories = [d for d in getattr(report, "diagnostics", ())
                  if d.code == "VDB042"]
    if advisories:
        sections.append("-- advisories --\n"
                        + "\n".join(d.render() for d in advisories))
    sections.append(format_iterations(stats.iteration_seconds))
    if report.trace is not None:
        sections.append("-- span tree --\n" + report.trace.render())
    return "\n\n".join(sections)
