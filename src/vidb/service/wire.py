"""The one wire plane every vidb role speaks.

This is the only module that knows the JSON-lines format: one UTF-8
JSON object per ``\\n``-terminated line, requests carrying ``op``,
replies carrying ``ok`` plus op fields or ``{"ok": false, "error":
<kind>, "message": ...}``.  It owns

* the **codec** (:func:`encode` / :func:`decode`), the request-size
  bound and the error-kind mapping;
* the **op table** (:data:`OPS`) — one declarative row per op: its
  declared fields and the flags the client's retry rule, the router's
  read balancing, head sampling and ``batch`` are derived from.
  docs/SERVICE.md renders the same table for humans (a test keeps the
  two in step);
* the **serve loop and TCP lifecycle** (:class:`Endpoint`): a role —
  :class:`~vidb.service.server.VideoServer`, and through it the serving
  replica, or :class:`~vidb.cluster.router.ClusterRouter` — subclasses
  it and defines one ``op_<name>(conn, request)`` method per op it
  answers itself; every other op goes to :meth:`Endpoint.forward`;
* **trace adoption** (:func:`adopt_trace`), the serving side of
  :mod:`vidb.obs.trace`;
* the **client channel** (:class:`Channel`, :func:`call`).
"""

from __future__ import annotations

import json
import socket
import socketserver
import threading
import time
import traceback
from typing import Any, Callable, Dict, NamedTuple, Optional, Tuple, cast

from vidb.errors import (
    ClusterError,
    FencedError,
    ModelError,
    PersistenceError,
    ProtocolError,
    QueryError,
    QueryTimeoutError,
    ReadOnlyError,
    ReplicaLagError,
    ServiceClosedError,
    ServiceError,
    ServiceOverloadedError,
    SessionError,
    StandingQueryError,
    VidbError,
)
from vidb.model.oid import Oid
from vidb.model.relations import RelationFact
from vidb.obs.trace import NULL_TRACER, TraceContext, Tracer, parse_traceparent
from vidb.storage.persistence import decode_value

Message = Dict[str, Any]
Handler = Callable[["Connection", Message], Message]

#: The longest request line a server reads (a 100-record ``vidb
#: ingest`` batch is 20-40 KB).  Replies are not capped: a ``wal``
#: resync ships a whole snapshot.
MAX_REQUEST_BYTES = 8 * 1024 * 1024

#: The one ``requests_total{op=}`` label every op name outside
#: :data:`OPS` shares, so junk names cannot mint metric series.
UNKNOWN_OP = "unknown"

#: error kind <-> exception class, shared by server (encode) and client
#: (decode).  Unknown kinds decode as plain ServiceError.
ERROR_KINDS = {
    "overloaded": ServiceOverloadedError,
    "timeout": QueryTimeoutError,
    "closed": ServiceClosedError,
    "standing": StandingQueryError,
    "session": SessionError,
    "protocol": ProtocolError,
    "read_only": ReadOnlyError,
    "lagging": ReplicaLagError,
    "fenced": FencedError,
    "cluster": ClusterError,
    "service": ServiceError,
    "query": QueryError,
    "model": ModelError,
    "vidb": VidbError,
}


def error_kind(error: Exception) -> str:
    for kind, cls in ERROR_KINDS.items():
        if type(error) is cls:
            return kind
    for kind, cls in ERROR_KINDS.items():
        if isinstance(error, cls) and cls is not VidbError:
            return kind
    return "vidb"


# -- codec -------------------------------------------------------------------
def encode(message: Message) -> bytes:
    return (json.dumps(message) + "\n").encode("utf-8")


def decode(line: bytes) -> Message:
    """One received line as a message; :class:`ProtocolError` on
    anything that is not a UTF-8 JSON object."""
    try:
        message = json.loads(line.decode("utf-8"))
    except ValueError as error:
        raise ProtocolError(f"not a JSON line: {error}") from None
    if not isinstance(message, dict):
        raise ProtocolError("a message must be a JSON object")
    return message


# -- field declarations ------------------------------------------------------
def _pairs(value: Any) -> bool:
    return isinstance(value, list) and all(
        isinstance(pair, list) and len(pair) == 2
        and all(isinstance(bound, (int, float)) for bound in pair)
        for pair in value)


def _scalars(value: Any) -> bool:
    return isinstance(value, dict) and all(
        isinstance(item, (str, int, float)) for item in value.values())


def _decode_list(values: Any) -> Any:
    return [decode_value(value) for value in values]


#: field kind -> (how an error names it, the check a value must pass,
#: for a model-value kind the decoder :func:`decode_mutation` runs: a
#: JSON scalar stays itself, a ``$``-tagged object is read exactly as
#: :mod:`vidb.storage.persistence` reads it on disk).
KINDS: Dict[str, Tuple[str, Callable[[Any], bool], Any]] = {
    "string": ("a string", lambda value: isinstance(value, str), None),
    "integer": ("an integer", lambda value: isinstance(value, int), None),
    "number": ("a number", lambda value: isinstance(value, (int, float)),
               None),
    "object": ("an object", lambda value: isinstance(value, dict), None),
    "array": ("an array", lambda value: isinstance(value, list), None),
    "pairs": ("an array of [start, end] number pairs", _pairs, None),
    "scalars": ("an object of string or number values", _scalars, None),
    "flag": ("any value (read for its truth)", lambda value: True, None),
    "value": ("a JSON scalar or a tagged value",
              lambda value: isinstance(value, (str, int, float, dict)),
              decode_value),
    "values": ("an object of JSON scalars or tagged values",
               lambda value: isinstance(value, dict),
               lambda values: {k: decode_value(v)
                               for k, v in values.items()}),
    "value_list": ("an array of JSON scalars or tagged values",
                   lambda value: isinstance(value, list), _decode_list),
    "args": ("a non-empty array of JSON scalars or tagged values",
             lambda value: isinstance(value, list) and bool(value),
             _decode_list),
}


class Field(NamedTuple):
    name: str
    kind: str
    required: bool


def _fields(*specs: str) -> Tuple[Field, ...]:
    """``"name:kind"`` declares an optional field, ``"name:kind!"`` a
    required one; JSON ``null`` counts as absent."""
    fields = []
    for spec in specs:
        name, kind = spec.rstrip("!").split(":")
        fields.append(Field(name, kind, spec.endswith("!")))
    return tuple(fields)


def check_fields(row: "Op", request: Message, where: str = "") -> None:
    """Validate *request* against the row's declarations, once, before
    any handler sees it."""
    for field in row.fields:
        value = request.get(field.name)
        if value is None:
            if field.required:
                raise ProtocolError(
                    f"{where}op {row.name!r} needs {field.kind} field "
                    f"{field.name!r}")
        elif not KINDS[field.kind][1](value):
            raise ProtocolError(f"{where}op {row.name!r}: {field.name!r} "
                                f"must be {KINDS[field.kind][0]}")


# -- mutations ---------------------------------------------------------------
# Each row applies an op whose value-typed fields are already decoded.
def _resolve_arg(db: Any, value: Any) -> Any:
    """A relation argument: an existing oid when a plain name matches
    one, else the value itself (the same resolution rule symbols get in
    query text)."""
    if isinstance(value, str) and value:
        for oid in (Oid.entity(value), Oid.interval(value)):
            if db.get(oid) is not None:
                return oid
    return value


def _insert_entity(db: Any, op: Message) -> Any:
    return db.new_entity(op["oid"], **op.get("attributes") or {}).oid


def _insert_interval(db: Any, op: Message) -> Any:
    duration = op.get("duration")
    pairs = ([tuple(pair) for pair in duration]
             if duration is not None else None)
    return db.new_interval(op["oid"], entities=op.get("entities") or (),
                           duration=pairs, **op.get("attributes") or {}).oid


def _fact(db: Any, op: Message) -> RelationFact:
    return RelationFact(op["relation"],
                        [_resolve_arg(db, arg) for arg in op["args"]])


def _relate(db: Any, op: Message) -> Any:
    return db.relate(_fact(db, op))


def _remove_fact(db: Any, op: Message) -> Any:
    fact = _fact(db, op)
    db.remove_fact(fact)
    return fact


def _remove_object(db: Any, op: Message) -> Any:
    return db.remove_object(op["oid"]).oid


def _declare_relation(db: Any, op: Message) -> Any:
    db.declare_relation(op["name"])
    return op["name"]


# -- the op table ------------------------------------------------------------
class Op(NamedTuple):
    """One row of the protocol."""

    name: str
    fields: Tuple[Field, ...] = ()
    #: Side-effect free: a client may resend it after a transport
    #: failure.  Everything else might have been applied before the
    #: failure and must not be retried blindly.
    idempotent: bool = False
    #: A stateless read whose answer depends only on committed data
    #: (plus the client's LSN token): the router balances it across
    #: replicas.  Everything else goes to the primary.
    replica: bool = False
    #: Head-sampled — and retained when slow or errored — when the
    #: request carries no trace header.  A sampled header traces any op.
    sampled: bool = False
    #: A mutation: ``apply(db, op)`` runs it inside the caller's
    #: transaction, ``result`` names its reply field.  These rows are
    #: the valid ``batch`` sub-ops.
    apply: Optional[Callable[[Any, Message], Any]] = None
    result: str = ""


_READ = ("timeout:number", "limit:integer", "min_lsn:integer",
         "wait_s:number")

OPS: Dict[str, Op] = {row.name: row for row in (
    Op("ping", idempotent=True),
    Op("info", idempotent=True),
    Op("query", _fields("query:string!", "profile:flag", *_READ),
       idempotent=True, replica=True, sampled=True),
    Op("prepare", _fields("name:string!", "query:string!", "params:array")),
    Op("execute", _fields("name:string!", "params:object", *_READ),
       idempotent=True, sampled=True),
    Op("insert_entity", _fields("oid:string!", "attributes:values"),
       apply=_insert_entity, result="oid"),
    Op("insert_interval",
       _fields("oid:string!", "entities:value_list", "duration:pairs",
               "attributes:values"),
       apply=_insert_interval, result="oid"),
    Op("relate", _fields("relation:string!", "args:args!"),
       apply=_relate, result="fact"),
    Op("remove_object", _fields("oid:value!"),
       apply=_remove_object, result="oid"),
    Op("remove_fact", _fields("relation:string!", "args:args!"),
       apply=_remove_fact, result="fact"),
    Op("declare_relation", _fields("name:string!"),
       apply=_declare_relation, result="relation"),
    Op("batch", _fields("ops:array!")),
    Op("subscribe", _fields("query:string!", "filter:scalars",
                            "max_queue:integer", "detach:flag")),
    Op("unsubscribe", _fields("id:string!")),
    Op("poll", _fields("id:string!", "wait_s:number",
                       "max_batches:integer")),
    Op("subscriptions", idempotent=True),
    Op("listen", _fields("id:string!")),
    Op("lint", _fields("text:string!"), idempotent=True, replica=True),
    Op("metrics", idempotent=True),
    Op("trace", _fields("id:string!"), idempotent=True),
    Op("traces", _fields("limit:integer"), idempotent=True),
    Op("events", _fields("limit:integer", "type:string"), idempotent=True),
    Op("wal", _fields("after:integer", "limit:integer"), idempotent=True),
    Op("promote", _fields("data_dir:string")),
    Op("close"),
    # Answered by the router only; a server calls them unknown.
    Op("cluster", idempotent=True),
    Op("cluster_health", idempotent=True),
    Op("repoint", _fields("host:string!", "port:integer!")),
)}

IDEMPOTENT_OPS = frozenset(name for name, row in OPS.items()
                           if row.idempotent)
REPLICA_OPS = frozenset(name for name, row in OPS.items() if row.replica)


def decode_mutation(op: Any, where: str = "") -> Callable[[Any], Any]:
    """Validate mutation *op* and decode its value-typed fields; returns
    the function that applies it to a database (inside the caller's
    transaction) and returns the value of the row's ``result`` field.

    The only mutation path: single writes, ``batch`` sub-ops and
    :func:`vidb.stream.ingest.apply_record` all come through here.
    """
    if not isinstance(op, dict):
        raise ProtocolError(f"{where}must be an object")
    name = op.get("op")
    row = OPS.get(name) if isinstance(name, str) else None
    if row is None or row.apply is None:
        supported = ", ".join(r.name for r in OPS.values() if r.apply)
        raise ProtocolError(f"{where}unknown sub-op {name!r} "
                            f"(supported: {supported})")
    check_fields(row, op, where)
    decoded = dict(op)
    for field in row.fields:
        decode = KINDS[field.kind][2]
        if decode is not None and op.get(field.name) is not None:
            try:
                decoded[field.name] = decode(op[field.name])
            except PersistenceError as error:
                raise ProtocolError(f"{where}op {row.name!r}: "
                                    f"{field.name!r}: {error}") from None
    apply = row.apply
    return lambda db: apply(db, decoded)


# -- trace adoption ----------------------------------------------------------
def adopt_trace(endpoint: Any, op: str, sampled: bool, handler: Handler,
                conn: Any, request: Message) -> Message:
    """Run ``handler(conn, request)`` under the request's trace context.

    A sampled traceparent header under ``"trace"`` (see
    :mod:`vidb.obs.trace`) makes this hop a child context: the handler
    runs inside a ``<span_prefix>.<op>`` span of an activated tracer
    that carries the context, the span tree is recorded as a
    flight-recorder segment parented to the sender's span id, the
    request is re-stamped so whatever the handler forwards parents to
    this segment, and the reply echoes the header.  Without
    a header, *sampled* ops are head-sampled at the recorder's rate and
    otherwise recorded black-box (timing and error, no spans) when they
    turn out slow or errored; an unsampled header keeps its trace id on
    such a segment.
    """
    recorder = endpoint.flight_recorder
    parent = parse_traceparent(request["trace"]) if "trace" in request else None
    context: Optional[TraceContext] = None
    if parent is not None:
        if parent.sampled:
            context = parent.child()
    elif sampled and recorder.should_sample():
        context = TraceContext.new()
    if context is None and not sampled:
        return handler(conn, request)
    tracer: Any = Tracer(context) if context is not None else NULL_TRACER
    started_at, began = time.time(), time.perf_counter()
    error: Optional[str] = None
    try:
        if context is None:
            return handler(conn, request)
        request["trace"] = header = context.to_header()
        with tracer.activate():
            with tracer.span(f"{endpoint.span_prefix}.{op}", op=op):
                reply = handler(conn, request)
        reply.setdefault("trace", header)
        return reply
    except Exception as exc:
        error = str(exc)
        raise
    finally:
        duration_s = time.perf_counter() - began
        if (context is not None or error is not None
                or recorder.is_slow(duration_s)):
            if context is None and parent is not None:
                context = parent.child()
            recorder.record(
                context, root=tracer.root(), node=endpoint.node_identity(),
                op=op, parent_span_id=(parent.span_id if parent is not None
                                       else None),
                status="ok" if error is None else "error", error=error,
                started_at=started_at, duration_s=duration_s)


# -- the serve loop ----------------------------------------------------------
class Connection(socketserver.StreamRequestHandler):
    """One client connection of any role: one thread, one reply line
    per request line, in order."""

    #: The role's per-connection state (``Endpoint.open_connection``).
    state: Any = None
    #: Set by a handler that ends request/reply service on this
    #: connection (``close``, ``listen``): runs once its reply is out.
    after_reply: Optional[Callable[[], None]] = None

    def handle(self) -> None:
        endpoint = cast(_TcpServer, self.server).endpoint
        self.state = endpoint.open_connection()
        try:
            while self.after_reply is None:
                try:
                    line = self.rfile.readline(MAX_REQUEST_BYTES + 1)
                except OSError:
                    return
                if not line:
                    return
                if not line.strip():
                    continue
                try:
                    self.send(endpoint.answer(self, line))
                except OSError:
                    return
                if len(line) > MAX_REQUEST_BYTES:
                    return  # mid-line: the stream cannot be resynchronised
            self.after_reply()
        finally:
            self.state.close()

    def send(self, message: Message) -> None:
        self.wfile.write(encode(message))
        self.wfile.flush()

    def hang_up(self) -> None:
        """The ``after_reply`` of an op that just closes the connection."""


class _TcpServer(socketserver.ThreadingTCPServer):
    allow_reuse_address = True
    daemon_threads = True
    endpoint: "Endpoint"


class Endpoint:
    """A JSON-lines TCP endpoint: bind, serve, shut down.

    ``port=0`` binds an ephemeral port; read the actual address from
    :attr:`address`.  Subclasses supply the role: ``op_<name>`` methods,
    :meth:`open_connection`, :meth:`node_identity` and, for a role that
    relays, :meth:`forward`.
    """

    #: Prefix of this role's wire-level span names.
    span_prefix = "server"

    def __init__(self, host: str, port: int, metrics: Any,
                 flight_recorder: Any, events: Any):
        self.metrics = metrics
        self.flight_recorder = flight_recorder
        self.events = events
        self._requests = metrics.counter_family("requests_total",
                                                ("op", "outcome"))
        #: (op, outcome) -> that child counter; a bounded label space
        #: (table names x error kinds), so the hot path skips the lookup.
        self._counted: Dict[Tuple[str, str], Any] = {}
        self._handlers: Dict[str, Handler] = {
            name: getattr(self, "op_" + name) for name in OPS
            if hasattr(self, "op_" + name)}
        self._tcp = _TcpServer((host, port), Connection)
        self._tcp.endpoint = self
        self._thread: Optional[threading.Thread] = None
        #: Whether a serve loop was started: ``socketserver``'s
        #: ``shutdown()`` waits for one to exit, forever if none ran.
        self._serving = False

    # -- what a role supplies ------------------------------------------------
    def open_connection(self) -> Any:
        """Per-connection state (anything with ``close()``), kept on
        ``conn.state`` and closed with the connection."""
        raise NotImplementedError

    def node_identity(self) -> Dict[str, Any]:
        """The node identity stamped onto this process's trace segments."""
        raise NotImplementedError

    def forward(self, conn: Connection, request: Message) -> Message:
        """The default row: every op without an ``op_<name>`` method."""
        raise ProtocolError(f"unknown op {request.get('op')!r}")

    def op_close(self, conn: Connection, request: Message) -> Message:
        conn.after_reply = conn.hang_up
        return {"ok": True, "closing": True}

    # -- one request ---------------------------------------------------------
    def answer(self, conn: Connection, line: bytes) -> Message:
        """One request line in, one reply out; never raises."""
        label = UNKNOWN_OP
        try:
            if len(line) > MAX_REQUEST_BYTES:
                raise ProtocolError(
                    f"request line exceeds {MAX_REQUEST_BYTES} bytes")
            request = decode(line)
            op = request.get("op")
            row = OPS.get(op) if isinstance(op, str) else None
            handler = self.forward
            if row is not None:
                label = row.name
                if label in self._handlers:
                    handler = self._handlers[label]
                    check_fields(row, request)
            reply = adopt_trace(self, str(op),
                                row is not None and row.sampled,
                                handler, conn, request)
        except VidbError as error:
            reply = {"ok": False, "error": error_kind(error),
                     "message": str(error)}
        except Exception as error:  # the boundary that must keep serving
            self.events.emit("wire.internal_error", op=label,
                             error=repr(error),
                             traceback=traceback.format_exc())
            reply = {"ok": False, "error": "service",
                     "message": f"internal error: {error!r}"}
        outcome = "ok" if reply.get("ok") else str(reply.get("error", "error"))
        counter = self._counted.get((label, outcome))
        if counter is None:
            counter = self._counted[label, outcome] = self._requests.labels(
                op=label, outcome=outcome)
        counter.inc()
        return reply

    # -- lifecycle -----------------------------------------------------------
    @property
    def address(self) -> Tuple[str, int]:
        return self._tcp.server_address[:2]

    def serve_forever(self) -> None:
        self._serving = True
        self._tcp.serve_forever(poll_interval=0.1)

    def start_background(self) -> Any:
        self._serving = True
        self._thread = threading.Thread(
            target=self.serve_forever,
            name=f"vidb-{self.span_prefix}", daemon=True)
        self._thread.start()
        return self

    def shutdown(self) -> None:
        if self._serving:
            self._tcp.shutdown()
            self._serving = False
        self._tcp.server_close()
        if self._thread is not None:
            self._thread.join(timeout=5)
            self._thread = None

    def close(self) -> None:
        self.shutdown()

    def __enter__(self) -> Any:
        return self

    def __exit__(self, *exc: Any) -> bool:
        self.close()
        return False


# -- the client channel ------------------------------------------------------
class Channel:
    """One client-side connection: connect, send one message, read one
    line, close.  Replies come back verbatim (errors included) — turning
    error kinds back into exceptions is the caller's business."""

    def __init__(self, address: Tuple[str, int], timeout: float):
        self.address = address
        self._sock = socket.create_connection(address, timeout=timeout)
        self._reader = self._sock.makefile("rb")

    def send(self, message: Message) -> None:
        self._sock.sendall(encode(message))

    def recv(self) -> Optional[Message]:
        """The next line; ``None`` when the peer closed."""
        line = self._reader.readline()
        return decode(line) if line else None

    def call(self, request: Message) -> Message:
        self.send(request)
        reply = self.recv()
        if reply is None:
            raise ConnectionResetError("peer closed the connection")
        return reply

    def close(self) -> None:
        for closeable in (self._reader, self._sock):
            try:
                closeable.close()
            except OSError:
                pass


def call(address: Tuple[str, int], request: Message,
         timeout: float) -> Message:
    """One request over a one-shot connection."""
    channel = Channel(address, timeout)
    try:
        return channel.call(request)
    finally:
        channel.close()
