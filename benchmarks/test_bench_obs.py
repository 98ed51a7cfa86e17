"""E14: the cost of observability.

The tracing design promises that the *disabled* path is nearly free —
hot call sites guard on ``tracer.enabled`` and the null tracer hands out
one preallocated no-op context manager — while the *enabled* path pays a
bounded, measurable premium.  These benchmarks pin both claims; the CI
smoke job (``benchmarks/disabled_path_overhead.py``) asserts the acceptance
bound mechanically.
"""

import pytest

from vidb.bench.timing import time_callable
from vidb.obs.trace import NULL_TRACER, Tracer
from vidb.query.engine import QueryEngine
from vidb.query.execution import ExecutionOptions

QUERY = ("?- interval(G1), interval(G2), object(O), "
         "O in G1.entities, O in G2.entities.")


@pytest.fixture(scope="module")
def engine(request):
    medium_db = request.getfixturevalue("medium_db")
    engine = QueryEngine(medium_db, use_stdlib_rules=True)
    engine.query(QUERY)  # warm caches, imports, the interpreter
    return engine


def test_untraced_execute(benchmark, engine):
    report = benchmark(engine.execute, QUERY)
    assert report.trace is None


def test_traced_execute(benchmark, engine):
    options = ExecutionOptions(trace=True)
    report = benchmark(engine.execute, QUERY, options)
    assert report.trace is not None


def test_tracing_overhead_is_bounded(engine, capsys):
    """Traced evaluation stays within 2x of untraced on a join query."""
    untraced = time_callable(lambda: engine.execute(QUERY), repeat=5)
    traced = time_callable(
        lambda: engine.execute(QUERY, trace=True), repeat=5)
    ratio = traced / untraced
    with capsys.disabled():
        print(f"\n[obs] untraced {untraced * 1000:.2f} ms, "
              f"traced {traced * 1000:.2f} ms, ratio {ratio:.2f}x")
    assert ratio < 2.0


def test_null_span_context_is_preallocated(benchmark):
    """The disabled span path allocates nothing per call."""
    assert NULL_TRACER.span("a") is NULL_TRACER.span("b")

    def spin():
        for __ in range(1000):
            with NULL_TRACER.span("stage"):
                pass

    benchmark(spin)


def test_enabled_span_cost(benchmark):
    def spin():
        tracer = Tracer()
        with tracer.span("root"):
            for __ in range(1000):
                with tracer.span("stage"):
                    pass
        return tracer

    tracer = benchmark(spin)
    assert len(tracer.root().children) == 1000
