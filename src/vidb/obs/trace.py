"""Tracing: one span tree, one ambient tracer, one flight recorder.

Everything that knows the span-tree format lives here:

* :class:`Span` / :class:`Tracer` — a tree of timed stages (parse,
  fixpoint iterations, ``server.query``, ``router.forward``, …), each
  carrying wall-clock duration plus a payload of counters.  Hot paths
  that run thousands of times per query (dense-order entailment,
  set-order closure, ⊕ object creation) do not get a span each; they
  report into flat per-name **aggregates** via :meth:`Tracer.record`.
  The disabled path is :data:`NULL_TRACER`: ``enabled`` is ``False`` so
  instrumented sites skip their ``perf_counter`` bookkeeping, and
  ``span()`` hands back one preallocated no-op context manager.
* the **ambient tracer** — :func:`activate` makes a tracer this
  thread's current one, and leaf modules (the constraint solvers, the
  stream hub) find it with :func:`current_tracer` without a parameter
  threaded through every signature.  A tracer serving a distributed
  request carries that request's :class:`TraceContext`
  (``current_tracer().context``), so the tracer and the context are one
  ambient slot.  Activation nests and restores the previous tracer, so
  concurrent requests on different threads never share spans; the
  service executor evaluates a query on the thread that read the
  request, so a request's spans form one tree.
* :class:`TraceContext` — a W3C-traceparent-style triple (``trace_id``
  / ``span_id`` / sampled flag) serialized as
  ``00-<32 hex>-<16 hex>-<2 hex flags>`` and carried as an optional
  ``"trace"`` field on JSON-lines requests and replies.  Each hop calls
  :meth:`TraceContext.child` before forwarding, so the receiver knows
  both the trace it belongs to and the span it hangs under.
* :class:`FlightRecorder` — a bounded in-memory ring of **segments**
  (one per process per request: node identity, parent span id, local
  span tree).  Head-based sampling via ``sample_rate`` decides whether
  a request *without* an incoming context gets traced; requests whose
  context arrives with the sampled flag set are always traced.  Slow
  and errored requests are retained even when unsampled, so the ring
  doubles as a black-box recorder.  An optional JSON-lines sink mirrors
  every retained segment to disk.
* :func:`assemble_trace` / :func:`render_trace` — reassemble segments
  fetched from every node (the ``trace <id>`` wire op, fanned out by
  the router) into one tree keyed by parent span id, and render it
  with each segment's local spans nested under its node-identity line.
  :meth:`Span.render` and :func:`render_trace` share one renderer.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import threading
import time
from collections import deque
from typing import Any, Dict, Iterator, List, Optional, Sequence, Union

__all__ = [
    "NULL_TRACER",
    "FlightRecorder",
    "NullTracer",
    "Span",
    "TraceContext",
    "Tracer",
    "activate",
    "assemble_trace",
    "current_tracer",
    "parse_traceparent",
    "render_trace",
]


# -- the span tree -----------------------------------------------------------
class Span:
    """One timed stage: name, duration, payload, children."""

    __slots__ = ("name", "payload", "children", "started_s", "ended_s")

    def __init__(self, name: str, payload: Optional[Dict[str, Any]] = None):
        self.name = name
        self.payload: Dict[str, Any] = dict(payload or {})
        self.children: List["Span"] = []
        self.started_s: float = 0.0
        self.ended_s: float = 0.0

    @property
    def duration_s(self) -> float:
        return max(0.0, self.ended_s - self.started_s)

    def annotate(self, **payload: Any) -> "Span":
        """Set payload entries (overwrites)."""
        self.payload.update(payload)
        return self

    def count(self, key: str, amount: float = 1) -> "Span":
        """Add to a numeric payload entry, creating it at zero."""
        self.payload[key] = self.payload.get(key, 0) + amount
        return self

    def find(self, name: str) -> List["Span"]:
        """Every descendant span (including self) with the given name."""
        found = [self] if self.name == name else []
        for child in self.children:
            found.extend(child.find(name))
        return found

    def as_dict(self) -> Dict[str, Any]:
        """JSON-serializable tree form (durations rounded to µs)."""
        out: Dict[str, Any] = {
            "name": self.name,
            "seconds": round(self.duration_s, 6),
        }
        if self.payload:
            out["payload"] = dict(self.payload)
        if self.children:
            out["children"] = [child.as_dict() for child in self.children]
        return out

    def render(self, indent: int = 0) -> str:
        """The indented text tree (the renderer :func:`render_trace`
        uses for a segment's spans)."""
        lines: List[str] = []
        _render_span(self.as_dict(), indent, lines)
        return "\n".join(lines)

    def __repr__(self) -> str:
        return f"Span({self.name!r}, {self.duration_s:.6f}s)"


def _render_span(span: Dict[str, Any], indent: int, lines: List[str]) -> None:
    """Render one span in dict form (:meth:`Span.as_dict`) and its
    subtree, one line per span."""
    pad = "  " * indent
    extra = ""
    payload = span.get("payload")
    if payload:
        inner = ", ".join(f"{k}={v}" for k, v in sorted(payload.items()))
        extra = f"  [{inner}]"
    seconds = span.get("seconds", 0.0)
    lines.append(f"{pad}{span.get('name', '?')}  {seconds * 1000:.3f} ms{extra}")
    for child in span.get("children", ()):
        _render_span(child, indent + 1, lines)


class Tracer:
    """Collects spans (a tree) and flat hot-path aggregates.

    ``context`` is the distributed-trace context of the request this
    tracer records (``None`` for a local, in-process trace); code that
    stamps outgoing work with the trace reads it from the ambient tracer.
    """

    enabled = True

    def __init__(self, context: Optional["TraceContext"] = None) -> None:
        self.context = context
        self.roots: List[Span] = []
        self.aggregates: Dict[str, Dict[str, float]] = {}
        self._stack: List[Span] = []

    @contextlib.contextmanager
    def span(self, name: str, **payload: Any) -> Iterator[Span]:
        """Open a nested span; timing stops when the block exits."""
        span = Span(name, payload)
        (self._stack[-1].children if self._stack else self.roots).append(span)
        self._stack.append(span)
        span.started_s = time.perf_counter()
        try:
            yield span
        finally:
            span.ended_s = time.perf_counter()
            self._stack.pop()

    def current(self) -> Optional[Span]:
        """The innermost open span, if any."""
        return self._stack[-1] if self._stack else None

    def record(self, name: str, seconds: float = 0.0, count: int = 1) -> None:
        """Fold one hot-path call into the per-name aggregate."""
        agg = self.aggregates.get(name)
        if agg is None:
            agg = self.aggregates[name] = {"count": 0, "seconds": 0.0}
        agg["count"] += count
        agg["seconds"] += seconds

    def activate(self):
        """Make this tracer the thread-local current tracer (see
        :func:`activate`)."""
        return activate(self)

    def root(self) -> Optional[Span]:
        """The first top-level span (the whole-request span, typically)."""
        return self.roots[0] if self.roots else None

    def __repr__(self) -> str:
        return (f"Tracer({len(self.roots)} roots, "
                f"{len(self.aggregates)} aggregates)")


class _NullSpanContext:
    """A reusable no-op context manager yielding the singleton null span."""

    __slots__ = ()

    def __enter__(self) -> Span:
        return NULL_SPAN

    def __exit__(self, *exc) -> bool:
        return False


class _NullSpan(Span):
    """A span that swallows annotations; shared by every disabled site."""

    __slots__ = ()

    def annotate(self, **payload: Any) -> "Span":
        return self

    def count(self, key: str, amount: float = 1) -> "Span":
        return self


class NullTracer:
    """The disabled tracer: every operation is a no-op.

    ``enabled`` is ``False``, so call sites guard their ``perf_counter``
    reads; ``span()`` returns one preallocated context manager, making a
    ``with tracer.span(...)`` block cost two trivial method calls.  It
    carries no trace context.
    """

    enabled = False
    context: Optional["TraceContext"] = None

    roots: List[Span] = []
    aggregates: Dict[str, Dict[str, float]] = {}

    def span(self, name: str, **payload: Any) -> _NullSpanContext:
        return _NULL_SPAN_CONTEXT

    def current(self) -> Optional[Span]:
        return None

    def record(self, name: str, seconds: float = 0.0, count: int = 1) -> None:
        return None

    def activate(self):
        return activate(self)

    def root(self) -> Optional[Span]:
        return None

    def __repr__(self) -> str:
        return "NullTracer()"


NULL_SPAN = _NullSpan("null")
_NULL_SPAN_CONTEXT = _NullSpanContext()
NULL_TRACER = NullTracer()

class _Ambient(threading.local):
    """The one ambient slot: each thread's current tracer.  The class
    attribute is every thread's default, so a read is a plain attribute
    lookup even on a thread that never activated anything."""

    tracer: Any = NULL_TRACER


_active = _Ambient()


def current_tracer():
    """The tracer active on this thread (the null tracer by default)."""
    return _active.tracer


@contextlib.contextmanager
def activate(tracer):
    """Push a tracer as this thread's current tracer; restores on exit."""
    previous = _active.tracer
    _active.tracer = tracer
    try:
        yield tracer
    finally:
        _active.tracer = previous


# -- trace contexts ----------------------------------------------------------
_TRACEPARENT_VERSION = "00"
_HEX = frozenset("0123456789abcdef")


def _is_hex(value: str, width: int) -> bool:
    return len(value) == width and all(ch in _HEX for ch in value)


class TraceContext:
    """A W3C-traceparent-style trace context: who am I inside the trace.

    ``trace_id`` names the whole distributed request (32 hex chars);
    ``span_id`` names the sender's segment (16 hex chars) and becomes
    the receiver's parent; ``sampled`` is the head-based sampling
    decision, made once at the root and honored by every hop.
    """

    __slots__ = ("trace_id", "span_id", "sampled")

    def __init__(self, trace_id: str, span_id: str, sampled: bool = True):
        self.trace_id = trace_id
        self.span_id = span_id
        self.sampled = sampled

    @classmethod
    def new(cls, sampled: bool = True) -> "TraceContext":
        return cls(os.urandom(16).hex(), os.urandom(8).hex(), sampled)

    def child(self) -> "TraceContext":
        """A fresh context in the same trace, parented to this one."""
        return TraceContext(self.trace_id, os.urandom(8).hex(), self.sampled)

    def to_header(self) -> str:
        flags = "01" if self.sampled else "00"
        return f"{_TRACEPARENT_VERSION}-{self.trace_id}-{self.span_id}-{flags}"

    def __repr__(self) -> str:
        return f"TraceContext({self.to_header()!r})"

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, TraceContext)
                and self.trace_id == other.trace_id
                and self.span_id == other.span_id
                and self.sampled == other.sampled)

    def __hash__(self) -> int:
        return hash((self.trace_id, self.span_id, self.sampled))


def parse_traceparent(header: Any) -> Optional[TraceContext]:
    """Parse a traceparent header; ``None`` on anything malformed.

    The wire layer tolerates junk — an unparseable ``"trace"`` field
    means the request simply runs untraced, never an error.
    """
    if not isinstance(header, str):
        return None
    parts = header.split("-")
    if len(parts) != 4:
        return None
    version, trace_id, span_id, flags = parts
    if version != _TRACEPARENT_VERSION:
        return None
    if not (_is_hex(trace_id, 32) and _is_hex(span_id, 16) and _is_hex(flags, 2)):
        return None
    if trace_id == "0" * 32 or span_id == "0" * 16:
        return None
    return TraceContext(trace_id, span_id, sampled=bool(int(flags, 16) & 1))


# -- the flight recorder -----------------------------------------------------
Segment = Dict[str, Any]


class FlightRecorder:
    """A bounded ring of trace segments with head-based sampling.

    One recorder per process.  ``sample_rate`` applies only to requests
    that arrive without a trace context (the root of a would-be trace);
    a context whose sampled flag is set is always recorded, so one
    decision at the edge governs the whole fan-out.  Slow (``>=
    slow_threshold_s``) and errored requests are retained even when
    unsampled — those segments carry timing and error detail but no
    span tree.
    """

    def __init__(
        self,
        capacity: int = 256,
        sample_rate: float = 0.0,
        slow_threshold_s: Optional[float] = None,
        sink: Optional[Union[str, "os.PathLike[str]", io.TextIOBase]] = None,
    ):
        self.capacity = max(1, int(capacity))
        self.sample_rate = min(1.0, max(0.0, float(sample_rate)))
        self.slow_threshold_s = slow_threshold_s
        self._segments: deque = deque(maxlen=self.capacity)
        self._lock = threading.Lock()
        self._random = random.Random(os.urandom(8))
        self._sink: Optional[io.TextIOBase] = None
        self._owns_sink = False
        if sink is not None:
            if isinstance(sink, (str, os.PathLike)):
                self._sink = open(sink, "a", encoding="utf-8")
                self._owns_sink = True
            else:
                self._sink = sink
        self.recorded = 0
        self.dropped_unsampled = 0

    def should_sample(self, context: Optional[TraceContext] = None) -> bool:
        """The head-based sampling decision for one request."""
        if context is not None:
            return context.sampled
        if self.sample_rate <= 0.0:
            return False
        if self.sample_rate >= 1.0:
            return True
        return self._random.random() < self.sample_rate

    def is_slow(self, duration_s: float) -> bool:
        return (self.slow_threshold_s is not None
                and duration_s >= self.slow_threshold_s)

    def record(
        self,
        context: Optional[TraceContext],
        *,
        node: Dict[str, Any],
        op: str,
        root: Optional[Span] = None,
        parent_span_id: Optional[str] = None,
        status: str = "ok",
        error: Optional[str] = None,
        started_at: Optional[float] = None,
        duration_s: float = 0.0,
        forced: bool = False,
    ) -> Optional[Segment]:
        """Retain one segment if sampling (or forced retention) says so.

        Returns the segment dict when retained, ``None`` otherwise.  A
        ``None`` context (unsampled request that turned out slow or
        errored) gets a fresh unsampled trace id so the segment is
        still addressable via ``trace <id>``.
        """
        keep = (forced or status == "error" or self.is_slow(duration_s)
                or (context is not None and context.sampled))
        if not keep:
            self.dropped_unsampled += 1
            return None
        if context is None:
            context = TraceContext.new(sampled=False)
        segment: Segment = {
            "trace_id": context.trace_id,
            "span_id": context.span_id,
            "parent_span_id": parent_span_id,
            "sampled": context.sampled,
            "node": dict(node),
            "op": op,
            "status": status,
            "started_at": time.time() if started_at is None else started_at,
            "duration_s": round(duration_s, 6),
        }
        if error is not None:
            segment["error"] = error
        if root is not None:
            segment["spans"] = root.as_dict()
        with self._lock:
            self._segments.append(segment)
            self.recorded += 1
            sink = self._sink
            if sink is not None:
                try:
                    sink.write(json.dumps(segment, default=str) + "\n")
                    sink.flush()
                except (OSError, ValueError):
                    self._sink = None  # sink failed or closed: stop mirroring
        return segment

    def get(self, trace_id: str) -> List[Segment]:
        """Every retained segment of one trace, oldest first."""
        with self._lock:
            return [dict(s) for s in self._segments if s["trace_id"] == trace_id]

    def summaries(self, limit: int = 20) -> List[Dict[str, Any]]:
        """The *limit* most recent one-line summaries, newest first, for
        ``vidb trace`` (none for ``limit <= 0``)."""
        limit = int(limit)
        with self._lock:
            recent = list(self._segments)[-limit:] if limit > 0 else []
        out = []
        for segment in reversed(recent):
            out.append({
                "trace_id": segment["trace_id"],
                "op": segment["op"],
                "status": segment["status"],
                "node": dict(segment["node"]),
                "started_at": segment["started_at"],
                "duration_ms": round(segment["duration_s"] * 1000, 3),
                "spans": "spans" in segment,
            })
        return out

    def __len__(self) -> int:
        with self._lock:
            return len(self._segments)

    def stats(self) -> Dict[str, Any]:
        with self._lock:
            depth = len(self._segments)
        return {
            "capacity": self.capacity,
            "depth": depth,
            "recorded": self.recorded,
            "sample_rate": self.sample_rate,
        }

    def close(self) -> None:
        with self._lock:
            if self._owns_sink and self._sink is not None:
                try:
                    self._sink.close()
                except OSError:
                    pass
            self._sink = None


# -- assembly and rendering --------------------------------------------------
def node_label(node: Dict[str, Any]) -> str:
    """``role@host:port gen=N`` — one segment's process identity."""
    role = node.get("role", "?")
    host = node.get("host")
    port = node.get("port")
    label = str(role)
    if host is not None and port is not None:
        label += f"@{host}:{port}"
    generation = node.get("generation")
    if generation is not None:
        label += f" gen={generation}"
    return label


def assemble_trace(segments: Sequence[Segment]) -> List[Segment]:
    """Stitch segments (from any number of nodes) into parent trees.

    Returns the roots, each segment given a ``"children"`` list.  A
    segment whose ``parent_span_id`` names no fetched segment is a root
    — for client-initiated traces that is expected: the client's root
    span lives in no server's recorder.  Duplicate span ids (a segment
    fetched from both the router's fan-out and the node itself) are
    collapsed, preferring the copy that carries spans.
    """
    by_id: Dict[str, Segment] = {}
    ordered: List[str] = []
    for segment in segments:
        span_id = segment.get("span_id")
        if not isinstance(span_id, str):
            continue
        existing = by_id.get(span_id)
        if existing is None:
            by_id[span_id] = dict(segment)
            ordered.append(span_id)
        elif "spans" in segment and "spans" not in existing:
            children = existing.get("children")
            by_id[span_id] = dict(segment)
            if children:
                by_id[span_id]["children"] = children
    roots: List[Segment] = []
    for span_id in ordered:
        segment = by_id[span_id]
        segment.setdefault("children", [])
    for span_id in ordered:
        segment = by_id[span_id]
        parent_id = segment.get("parent_span_id")
        parent = by_id.get(parent_id) if isinstance(parent_id, str) else None
        if parent is not None and parent is not segment:
            parent["children"].append(segment)
        else:
            roots.append(segment)
    for segment in by_id.values():
        segment["children"].sort(key=lambda s: s.get("started_at", 0.0))
    roots.sort(key=lambda s: s.get("started_at", 0.0))
    return roots


def _render_segment(segment: Segment, indent: int, lines: List[str]) -> None:
    pad = "  " * indent
    status = segment.get("status", "ok")
    suffix = "" if status == "ok" else f"  !{status}"
    error = segment.get("error")
    if error:
        suffix += f" ({error})"
    lines.append(
        f"{pad}{segment.get('op', '?')} @ {node_label(segment.get('node', {}))}"
        f"  {segment.get('duration_s', 0.0) * 1000:.3f} ms{suffix}")
    spans = segment.get("spans")
    if spans:
        _render_span(spans, indent + 1, lines)
    for child in segment.get("children", ()):
        _render_segment(child, indent + 1, lines)


def render_trace(segments: Sequence[Segment],
                 trace_id: Optional[str] = None) -> str:
    """Render an assembled cross-process trace as an indented tree.

    Segments sharing an absent parent span (the client's root) are
    grouped under a synthetic ``client`` line so a router+replica pair
    reads as one tree, not two.
    """
    roots = assemble_trace(segments)
    if not roots:
        return "(no segments)"
    lines: List[str] = []
    if trace_id is None:
        trace_id = roots[0].get("trace_id", "?")
    lines.append(f"trace {trace_id}")
    orphan_parents = {
        root.get("parent_span_id") for root in roots
        if root.get("parent_span_id")
    }
    indent = 1
    if orphan_parents:
        # One unmatched parent (the common case) is the client-visible
        # root; several still group under one synthetic line.
        parents = ", ".join(sorted(str(p) for p in orphan_parents))
        lines.append(f"  client (span {parents})")
        indent = 2
    for root in roots:
        _render_segment(root, indent, lines)
    return "\n".join(lines)
