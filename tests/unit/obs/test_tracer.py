"""Tracer span nesting, aggregates, and the no-op disabled path."""

import threading

import pytest

from vidb.obs.trace import (
    NULL_TRACER,
    NullTracer,
    Span,
    Tracer,
    activate,
    current_tracer,
)


class TestSpan:
    def test_duration_never_negative(self):
        span = Span("s")
        span.started_s, span.ended_s = 2.0, 1.0
        assert span.duration_s == 0.0

    def test_annotate_overwrites_and_chains(self):
        span = Span("s", {"a": 1})
        assert span.annotate(a=2, b=3) is span
        assert span.payload == {"a": 2, "b": 3}

    def test_count_accumulates_from_zero(self):
        span = Span("s")
        span.count("hits").count("hits", 4)
        assert span.payload["hits"] == 5

    def test_find_walks_descendants_and_self(self):
        root = Span("round")
        inner = Span("round")
        other = Span("rule")
        root.children.append(other)
        other.children.append(inner)
        assert root.find("round") == [root, inner]
        assert root.find("missing") == []

    def test_as_dict_shape(self):
        root = Span("root", {"k": 1})
        root.children.append(Span("child"))
        data = root.as_dict()
        assert data["name"] == "root"
        assert data["payload"] == {"k": 1}
        assert [c["name"] for c in data["children"]] == ["child"]
        # Childless, payload-free spans serialize minimally.
        assert set(data["children"][0]) == {"name", "seconds"}

    def test_render_indents_children(self):
        root = Span("root")
        root.children.append(Span("child"))
        lines = root.render().splitlines()
        assert lines[0].startswith("root")
        assert lines[1].startswith("  child")


class TestTracer:
    def test_spans_nest_into_a_tree(self):
        tracer = Tracer()
        with tracer.span("outer"):
            with tracer.span("inner-1"):
                pass
            with tracer.span("inner-2"):
                pass
        assert [s.name for s in tracer.roots] == ["outer"]
        root = tracer.root()
        assert [s.name for s in root.children] == ["inner-1", "inner-2"]
        assert root.duration_s >= sum(c.duration_s for c in root.children)

    def test_stack_unwinds_on_exception(self):
        tracer = Tracer()
        with pytest.raises(RuntimeError):
            with tracer.span("outer"):
                with tracer.span("inner"):
                    raise RuntimeError("boom")
        assert tracer.current() is None
        # Both spans closed despite the exception.
        assert tracer.root().children[0].ended_s > 0

    def test_current_is_innermost_open_span(self):
        tracer = Tracer()
        assert tracer.current() is None
        with tracer.span("a"):
            with tracer.span("b") as b:
                assert tracer.current() is b

    def test_sibling_roots(self):
        tracer = Tracer()
        with tracer.span("first"):
            pass
        with tracer.span("second"):
            pass
        assert [s.name for s in tracer.roots] == ["first", "second"]
        assert tracer.root().name == "first"

    def test_record_aggregates_per_name(self):
        tracer = Tracer()
        tracer.record("solver.entails", 0.25)
        tracer.record("solver.entails", 0.5)
        tracer.record("setorder.closure", 0.125, count=3)
        assert tracer.aggregates["solver.entails"] == {
            "count": 2, "seconds": 0.75}
        assert tracer.aggregates["setorder.closure"]["count"] == 3

    def test_span_payload_kwargs(self):
        tracer = Tracer()
        with tracer.span("iter", index=4) as span:
            span.count("derived", 7)
        assert tracer.root().payload == {"index": 4, "derived": 7}


class TestNullTracer:
    def test_disabled_flag(self):
        assert Tracer.enabled is True
        assert NullTracer.enabled is False
        assert NULL_TRACER.enabled is False

    def test_span_is_reusable_noop(self):
        first = NULL_TRACER.span("a", index=1)
        second = NULL_TRACER.span("b")
        assert first is second  # one preallocated context manager
        with first as span:
            assert span.annotate(x=1) is span
            assert span.count("k", 2) is span
        assert span.payload == {}

    def test_collects_nothing(self):
        with NULL_TRACER.span("stage"):
            NULL_TRACER.record("solver.entails", 1.0)
        assert NULL_TRACER.roots == []
        assert NULL_TRACER.aggregates == {}
        assert NULL_TRACER.root() is None
        assert NULL_TRACER.current() is None


class TestActivation:
    def test_default_is_null_tracer(self):
        assert current_tracer() is NULL_TRACER

    def test_activate_nests_and_restores(self):
        outer, inner = Tracer(), Tracer()
        with activate(outer):
            assert current_tracer() is outer
            with activate(inner):
                assert current_tracer() is inner
            assert current_tracer() is outer
        assert current_tracer() is NULL_TRACER

    def test_activate_restores_on_exception(self):
        tracer = Tracer()
        with pytest.raises(ValueError):
            with activate(tracer):
                raise ValueError
        assert current_tracer() is NULL_TRACER

    def test_method_form(self):
        tracer = Tracer()
        with tracer.activate() as active:
            assert active is tracer
            assert current_tracer() is tracer

    def test_thread_isolation(self):
        tracer = Tracer()
        seen = {}

        def probe():
            seen["other"] = current_tracer()

        with activate(tracer):
            worker = threading.Thread(target=probe)
            worker.start()
            worker.join()
        assert seen["other"] is NULL_TRACER
