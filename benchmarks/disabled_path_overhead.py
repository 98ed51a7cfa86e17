#!/usr/bin/env python
"""CI smoke check: instrumentation that is switched off must be free.

Four acceptance bounds say the same thing about four mechanisms — with
the feature idle, a representative query may cost less than 5% more
than it would without the instrumentation.  CI has no un-instrumented
binary to diff against, so each probe bounds the overhead from the
real functions the hot path runs:

``tracer``
    the ``current_tracer()``-plus-``enabled`` guard and the no-op
    ``with tracer.span(...)`` block, times how often one traced run of
    the query says they fire; also bounds traced/untraced at 3x.
``metrics``
    ``Counter.inc``, a labeled-family ``inc``, ``Histogram.observe``
    and the clock reads, times the executor's audited per-query tally;
    also bounds one Prometheus exposition render at 10 ms.
``trace``
    the wire layer's trace adoption entry point
    (:func:`vidb.service.wire.adopt_trace`) around a no-op handler for
    a header-less ``query`` at sample rate 0, the executor's disabled
    tracing (the ambient-tracer lookup and its three no-op spans),
    plus the ``current_tracer().context`` probe the stream hub
    runs per committed delta — against a result-cache hit through a
    real ``ServiceExecutor``.
``analysis``
    the same query with prepare-time analysis on (warm: its query
    shape compiled) against ``ExecutionOptions(analyze=False)``, and
    that the engine's shape cache served the repeats.

Exits non-zero (with a report) on any violation.  Run all probes, or
name the ones to run::

    PYTHONPATH=src python benchmarks/disabled_path_overhead.py [probe ...]
"""

import sys
import time
from types import SimpleNamespace

from vidb.obs.exporter import render_exposition
from vidb.obs.metrics import MetricsRegistry
from vidb.obs.trace import NULL_TRACER, FlightRecorder, current_tracer
from vidb.query.engine import QueryEngine
from vidb.query.execution import ExecutionOptions
from vidb.service.executor import ServiceExecutor
from vidb.service.wire import OPS, adopt_trace
from vidb.workloads.generator import WorkloadConfig, random_database

QUERY = ("?- interval(G1), interval(G2), object(O), "
         "O in G1.entities, O in G2.entities.")
OVERHEAD_BUDGET = 0.05       # the acceptance bound: < 5% with the feature off
TRACED_RATIO_BOUND = 3.0     # traced execution may cost at most 3x
SCRAPE_BUDGET_S = 0.010      # one exposition render over a busy registry
LOOPS = 100_000

# The executor's served-query path, audited by hand: queries.served,
# cache.misses (or hits), and the labeled queries_total{outcome=} each
# inc once; the latency histogram observes once; perf_counter runs
# twice (start/stop).  Uncached queries additionally inc writes/derived
# counters a constant number of times — rounded up here.
COUNTER_INCS = 6
FAMILY_INCS = 1
HISTOGRAM_OBSERVES = 1
CLOCK_READS = 2


def per_call(fn, loops=LOOPS, repeat=5):
    """Best-of-*repeat* seconds for one call of *fn* (loop-amortized)."""
    def loop():
        for __ in range(loops):
            fn()

    return best_of(loop, repeat) / loops


def best_of(fn, repeat=5):
    best = float("inf")
    for __ in range(repeat):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def warm_engine():
    db = random_database(WorkloadConfig(
        entities=100, intervals=200, facts=200, seed=102))
    engine = QueryEngine(db, use_stdlib_rules=True)
    engine.query(QUERY)
    return engine


def budget(rows, failures, what, overhead_s, query_s):
    """The shared verdict: *overhead_s* per query against the budget."""
    fraction = overhead_s / query_s
    rows += [("query wall-clock", f"{query_s * 1e3:.3f} ms"),
             (f"{what} overhead",
              f"{fraction * 100:.4f} % (budget {OVERHEAD_BUDGET:.0%})")]
    if fraction >= OVERHEAD_BUDGET:
        failures.append(f"{what} overhead {fraction:.2%} "
                        f">= {OVERHEAD_BUDGET:.0%} budget")


def probe_tracer(engine, rows, failures):
    def guard():
        # What an instrumented hot path runs when tracing is off.
        tracer = current_tracer()
        return tracer if tracer.enabled else None

    def null_span():
        with NULL_TRACER.span("stage"):
            pass

    guard_s, span_s = per_call(guard), per_call(null_span)
    untraced_s = best_of(lambda: engine.execute(QUERY))
    report = engine.execute(QUERY, trace=True)
    traced_s = best_of(lambda: engine.execute(QUERY, trace=True))
    # How often the primitives fire in one evaluation of this query.
    hot_calls = sum(int(agg["count"]) for agg in report.aggregates.values())
    hot_calls += report.stats.constraint_checks  # a guard per check
    spans = 6 + report.stats.iterations          # stages + per-iteration
    ratio = traced_s / untraced_s
    rows += [("guard per call", f"{guard_s * 1e9:.1f} ns"),
             ("null span per block", f"{span_s * 1e9:.1f} ns"),
             ("hot calls / spans per query", f"{hot_calls} / {spans}"),
             ("traced/untraced ratio",
              f"{ratio:.2f} x (bound {TRACED_RATIO_BOUND:.1f}x)")]
    if ratio >= TRACED_RATIO_BOUND:
        failures.append(f"traced/untraced ratio {ratio:.2f}x "
                        f">= {TRACED_RATIO_BOUND:.1f}x bound")
    budget(rows, failures, "disabled-tracer",
           hot_calls * guard_s + spans * span_s, untraced_s)


def probe_metrics(engine, rows, failures):
    registry = MetricsRegistry()
    counter = registry.counter("queries.served")
    family = registry.counter_family("queries_total", ("outcome",))
    histogram = registry.histogram("queries.latency_seconds")
    inc_s = per_call(counter.inc)
    labels_inc_s = per_call(lambda: family.labels(outcome="served").inc())
    observe_s = per_call(lambda: histogram.observe(0.004))
    clock_s = per_call(time.perf_counter)
    # A scrape over a registry that looks like a busy server's.
    for i in range(50):
        registry.counter(f"extra.counter_{i}").inc(i)
    for outcome in ("served", "error", "timeout", "rejected"):
        family.labels(outcome=outcome).inc()
    scrape_s = best_of(lambda: render_exposition(registry))
    rows += [("counter.inc per call", f"{inc_s * 1e9:.1f} ns"),
             ("labels().inc per call", f"{labels_inc_s * 1e9:.1f} ns"),
             ("histogram.observe", f"{observe_s * 1e9:.1f} ns"),
             ("perf_counter per call", f"{clock_s * 1e9:.1f} ns"),
             ("exposition render",
              f"{scrape_s * 1e3:.3f} ms (budget {SCRAPE_BUDGET_S * 1e3:.0f} ms)")]
    if scrape_s >= SCRAPE_BUDGET_S:
        failures.append(f"exposition render {scrape_s * 1e3:.2f} ms "
                        f">= {SCRAPE_BUDGET_S * 1e3:.0f} ms budget")
    budget(rows, failures, "metrics",
           COUNTER_INCS * inc_s + FAMILY_INCS * labels_inc_s
           + HISTOGRAM_OBSERVES * observe_s + CLOCK_READS * clock_s,
           best_of(lambda: engine.execute(QUERY)))


def probe_trace(engine, rows, failures):
    endpoint = SimpleNamespace(
        span_prefix="server", node_identity=dict,
        flight_recorder=FlightRecorder(capacity=16, sample_rate=0.0,
                                       slow_threshold_s=0.25))
    request = {"op": "query", "query": QUERY}
    reply = {"ok": True}
    # One request pays one adoption (sampling decision + the forced-
    # retention timing bracket); a write additionally pays one ambient
    # probe per committed delta.
    adopt_s = per_call(lambda: adopt_trace(
        endpoint, "query", OPS["query"].sampled,
        lambda conn, request: reply, None, request))

    def executor_tracing():
        # ServiceExecutor's per-query tracing work with tracing off.
        tracer = current_tracer()
        with tracer.span("service.queue_wait"):
            pass
        with tracer.span("service.lock_wait"):
            pass
        with tracer.span("service.cache") as span:
            span.annotate(outcome="hit")

    executor_s = per_call(executor_tracing)
    ambient_s = per_call(lambda: current_tracer().context)
    rows += [("trace adoption per request", f"{adopt_s * 1e9:.1f} ns"),
             ("executor tracing per query", f"{executor_s * 1e9:.1f} ns"),
             ("ambient probe", f"{ambient_s * 1e9:.1f} ns")]
    if len(endpoint.flight_recorder):
        failures.append("sample rate 0 recorded a segment")
    # Against the cheapest thing a request can be: a result-cache hit.
    with ServiceExecutor(engine.db, use_stdlib_rules=True,
                         trace_sample=0.0) as service:
        service.execute(QUERY)
        query_s = best_of(lambda: service.execute(QUERY))
    budget(rows, failures, "unsampled distributed tracing",
           adopt_s + executor_s + ambient_s, query_s)


def probe_analysis(engine, rows, failures):
    off, on = ExecutionOptions(analyze=False), ExecutionOptions(analyze=True)
    engine.execute(QUERY, on)   # warm: fixpoint caches + analysis cache
    engine.execute(QUERY, off)
    disabled_s = best_of(lambda: engine.execute(QUERY, off))
    shapes = engine.shapes
    hits, misses = shapes.hits, shapes.misses
    analyzed_s = best_of(lambda: engine.execute(QUERY, on))
    rows.append(("query shape hits/misses",
                 f"{shapes.hits}/{shapes.misses}"))
    if shapes.misses != misses or shapes.hits <= hits:
        failures.append("the query shape did not serve the warm repeats")
    budget(rows, failures, "warm analysis",
           analyzed_s - disabled_s, disabled_s)


PROBES = {"tracer": probe_tracer, "metrics": probe_metrics,
          "trace": probe_trace, "analysis": probe_analysis}


def main(argv):
    unknown = [name for name in argv if name not in PROBES]
    if unknown:
        print(f"unknown probe(s) {unknown}; choose from {sorted(PROBES)}",
              file=sys.stderr)
        return 2
    engine = warm_engine()
    failed = False
    for name in argv or PROBES:
        rows, failures = [], []
        PROBES[name](engine, rows, failures)
        print(f"== {name} ==")
        for label, value in rows:
            print(f"{label + ':':32s}{value}")
        for failure in failures:
            print(f"FAIL: {failure}", file=sys.stderr)
        failed = failed or bool(failures)
    print("FAILED" if failed else "ok: every disabled path is within budget")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
