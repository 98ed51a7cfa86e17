"""vidb.obs — tracing, profiling and metrics for the serving pipeline.

The observability layer the serving system leans on:

* :mod:`vidb.obs.trace` — the one span model: nestable wall-clock
  :class:`Span` trees with counter payloads, the ambient
  :class:`Tracer` (which carries the request's W3C-traceparent-style
  :class:`TraceContext` across the wire and the executor's thread hop),
  the no-op tracer for the disabled path, the bounded
  :class:`FlightRecorder` segment ring, and cross-process trace
  assembly/rendering (``vidb trace``);
* :mod:`vidb.obs.profile` — the ``EXPLAIN ANALYZE``-style profile
  renderer behind ``vidb query --profile`` and the ``query`` op's
  ``profile`` flag;
* :mod:`vidb.obs.metrics` — counters, gauges (including callback
  gauges), histograms and labeled metric families in a
  :class:`MetricsRegistry`, with a process-global default registry;
* :mod:`vidb.obs.exporter` — Prometheus text exposition plus
  ``/healthz``/``/readyz`` over stdlib ``http.server``
  (``vidb serve --metrics-port``);
* :mod:`vidb.obs.events` — a bounded structured JSON event log (slow
  queries, admission rejections, checkpoints, replica resyncs) behind
  the server's ``events`` op and ``vidb top``;
* :mod:`vidb.obs.fleet` — the cluster telemetry plane: the router's
  :class:`FleetAggregator` of scraped member snapshots, federated
  per-node Prometheus exposition and cluster rollups
  (``vidb top --cluster``).
"""

from vidb.obs.events import EventLog, emit, get_event_log
from vidb.obs.exporter import MetricsExporter, render_exposition
from vidb.obs.fleet import FleetAggregator, render_fleet_exposition
from vidb.obs.metrics import (
    DEFAULT_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricFamily,
    MetricsRegistry,
    format_number,
    format_snapshot,
    get_registry,
    human_count,
    human_duration,
)
from vidb.obs.profile import format_profile
from vidb.obs.trace import (
    NULL_TRACER,
    FlightRecorder,
    NullTracer,
    Span,
    TraceContext,
    Tracer,
    activate,
    assemble_trace,
    current_tracer,
    parse_traceparent,
    render_trace,
)

__all__ = [
    "DEFAULT_BUCKETS",
    "Counter",
    "EventLog",
    "FleetAggregator",
    "FlightRecorder",
    "Gauge",
    "Histogram",
    "MetricFamily",
    "MetricsExporter",
    "MetricsRegistry",
    "NULL_TRACER",
    "NullTracer",
    "Span",
    "TraceContext",
    "Tracer",
    "activate",
    "assemble_trace",
    "current_tracer",
    "emit",
    "format_number",
    "format_profile",
    "format_snapshot",
    "get_event_log",
    "get_registry",
    "human_count",
    "human_duration",
    "parse_traceparent",
    "render_exposition",
    "render_fleet_exposition",
]
