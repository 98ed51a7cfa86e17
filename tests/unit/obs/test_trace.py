"""Distributed-tracing primitives: context, recorder, assembly."""

import io
import json
import threading

import pytest

from vidb.obs.trace import (
    FlightRecorder,
    Span,
    TraceContext,
    Tracer,
    activate,
    assemble_trace,
    current_tracer,
    node_label,
    parse_traceparent,
    render_trace,
)


class TestTraceContext:
    def test_new_generates_distinct_well_formed_ids(self):
        a, b = TraceContext.new(), TraceContext.new()
        assert a.trace_id != b.trace_id
        assert len(a.trace_id) == 32 and len(a.span_id) == 16
        int(a.trace_id, 16)  # hex or raise
        int(a.span_id, 16)

    def test_header_round_trip(self):
        context = TraceContext.new(sampled=True)
        parsed = parse_traceparent(context.to_header())
        assert parsed == context
        assert parsed.sampled is True

    def test_unsampled_flag_round_trips(self):
        context = TraceContext.new(sampled=False)
        assert context.to_header().endswith("-00")
        assert parse_traceparent(context.to_header()).sampled is False

    def test_child_shares_trace_id_with_fresh_span_id(self):
        parent = TraceContext.new()
        child = parent.child()
        assert child.trace_id == parent.trace_id
        assert child.span_id != parent.span_id
        assert child.sampled == parent.sampled

    @pytest.mark.parametrize("header", [
        None, 42, "", "garbage", "00-abc-def-01",
        "00-" + "0" * 32 + "-" + "1" * 16 + "-01",   # all-zero trace id
        "00-" + "1" * 32 + "-" + "0" * 16 + "-01",   # all-zero span id
        "00-" + "g" * 32 + "-" + "1" * 16 + "-01",   # not hex
        "ff-" + "1" * 32 + "-" + "2" * 16 + "-01",   # unknown version
    ])
    def test_malformed_headers_parse_to_none(self, header):
        assert parse_traceparent(header) is None

    def test_ambient_context_is_scoped_and_thread_local(self):
        """The context rides on the ambient tracer: one slot."""
        context = TraceContext.new()
        assert current_tracer().context is None
        with activate(Tracer(context)):
            assert current_tracer().context is context
            seen = []
            thread = threading.Thread(
                target=lambda: seen.append(current_tracer().context))
            thread.start()
            thread.join()
            assert seen == [None]
        assert current_tracer().context is None


class TestFlightRecorder:
    def test_rate_zero_never_samples(self):
        recorder = FlightRecorder(sample_rate=0.0)
        assert not any(recorder.should_sample() for __ in range(100))

    def test_rate_one_always_samples(self):
        recorder = FlightRecorder(sample_rate=1.0)
        assert all(recorder.should_sample() for __ in range(10))

    def test_sampled_context_wins_over_rate(self):
        recorder = FlightRecorder(sample_rate=0.0)
        assert recorder.should_sample(TraceContext.new(sampled=True))
        assert not recorder.should_sample(TraceContext.new(sampled=False))

    def test_unsampled_segments_are_dropped_and_counted(self):
        recorder = FlightRecorder(sample_rate=0.0)
        recorder.record(TraceContext.new(sampled=False),
                        node={"role": "standalone"}, op="query")
        assert len(recorder) == 0
        assert recorder.dropped_unsampled == 1

    def test_errors_are_always_retained(self):
        recorder = FlightRecorder(sample_rate=0.0)
        context = TraceContext.new(sampled=False)
        recorder.record(context, node={"role": "standalone"}, op="query",
                        status="error", error="boom")
        (segment,) = recorder.get(context.trace_id)
        assert segment["status"] == "error"
        assert segment["error"] == "boom"

    def test_slow_requests_are_always_retained(self):
        recorder = FlightRecorder(sample_rate=0.0, slow_threshold_s=0.01)
        assert recorder.is_slow(0.02) and not recorder.is_slow(0.001)
        context = TraceContext.new(sampled=False)
        recorder.record(context, node={"role": "standalone"}, op="query",
                        duration_s=0.02, forced=True)
        assert len(recorder.get(context.trace_id)) == 1

    def test_ring_evicts_oldest(self):
        recorder = FlightRecorder(capacity=3, sample_rate=1.0)
        contexts = [TraceContext.new() for __ in range(5)]
        for index, context in enumerate(contexts):
            recorder.record(context, node={"role": "s"}, op=f"op{index}")
        assert len(recorder) == 3
        assert recorder.get(contexts[0].trace_id) == []
        assert len(recorder.get(contexts[-1].trace_id)) == 1

    def test_summaries_most_recent_first(self):
        recorder = FlightRecorder(sample_rate=1.0)
        for index in range(4):
            recorder.record(TraceContext.new(), node={"role": "s"},
                            op=f"op{index}", started_at=float(index))
        rows = recorder.summaries(limit=2)
        assert [row["op"] for row in rows] == ["op3", "op2"]
        assert all("duration_ms" in row for row in rows)

    @pytest.mark.parametrize("limit", [0, -3])
    def test_summaries_non_positive_limit_is_empty(self, limit):
        recorder = FlightRecorder(sample_rate=1.0)
        for index in range(5):
            recorder.record(TraceContext.new(), node={"role": "s"},
                            op=f"op{index}")
        assert recorder.summaries(limit) == []

    def test_sink_receives_json_lines(self):
        sink = io.StringIO()
        recorder = FlightRecorder(sample_rate=1.0, sink=sink)
        context = TraceContext.new()
        recorder.record(context, node={"role": "s"}, op="query")
        line = sink.getvalue().strip()
        assert json.loads(line)["trace_id"] == context.trace_id

    def test_stats_shape(self):
        recorder = FlightRecorder(capacity=8, sample_rate=0.5)
        stats = recorder.stats()
        assert stats["capacity"] == 8
        assert stats["sample_rate"] == 0.5
        assert stats["depth"] == 0


class TestAssembly:
    def _segment(self, context, parent, node, op="query", **extra):
        segment = {"trace_id": context.trace_id, "span_id": context.span_id,
                   "parent_span_id": parent, "sampled": True, "node": node,
                   "op": op, "status": "ok", "started_at": 1.0,
                   "duration_s": 0.001}
        segment.update(extra)
        return segment

    def test_cross_process_parenting(self):
        client = TraceContext.new()
        router_ctx = client.child()
        replica_ctx = router_ctx.child()
        segments = [
            self._segment(replica_ctx, router_ctx.span_id,
                          {"role": "replica"}, started_at=3.0),
            self._segment(router_ctx, client.span_id,
                          {"role": "router"}, started_at=2.0),
        ]
        roots = assemble_trace(segments)
        assert len(roots) == 1
        assert roots[0]["node"]["role"] == "router"
        assert [c["node"]["role"] for c in roots[0]["children"]] == [
            "replica"]

    def test_duplicate_segments_prefer_the_copy_with_spans(self):
        context = TraceContext.new()
        bare = self._segment(context, None, {"role": "primary"})
        rich = self._segment(context, None, {"role": "primary"},
                             spans={"name": "server.query", "seconds": 0.1,
                                    "payload": {}, "children": []})
        roots = assemble_trace([bare, rich])
        assert len(roots) == 1
        assert "spans" in roots[0]

    def test_render_groups_orphans_under_client_line(self):
        client = TraceContext.new()
        first, second = client.child(), client.child()
        text = render_trace([
            self._segment(first, client.span_id, {"role": "router",
                                                  "host": "h", "port": 1}),
            self._segment(second, client.span_id, {"role": "router",
                                                   "host": "h", "port": 1},
                          started_at=2.0),
        ])
        assert text.startswith(f"trace {client.trace_id}")
        assert f"client (span {client.span_id})" in text
        assert text.count("query @ router@h:1") == 2

    def test_render_empty(self):
        assert render_trace([]) == "(no segments)"

    def test_segment_spans_render_like_span_render(self):
        """One renderer: a segment's span tree prints exactly as
        :meth:`Span.render` prints the same tree, one level deeper."""
        root = Span("server.query", {"op": "query"})
        root.children.append(Span("service.cache", {"outcome": "hit"}))
        context = TraceContext.new()
        text = render_trace([self._segment(context, None,
                                           {"role": "primary"},
                                           spans=root.as_dict())])
        assert root.render(indent=2) in text
        assert "service.cache  0.000 ms  [outcome=hit]" in text

    def test_node_label(self):
        assert node_label({"role": "replica", "host": "10.0.0.1",
                           "port": 7442, "generation": 2}) == \
            "replica@10.0.0.1:7442 gen=2"
        assert node_label({"role": "router"}) == "router"
