"""The query service's TCP server and its blocking client.

Both speak the JSON-lines protocol of :mod:`vidb.service.wire`, which
owns the format, the op table and the serve loop; docs/SERVICE.md has
the op-by-op reference (request fields, reply fields, which ops a
client may retry and which a router serves from replicas).  This module
is what a *server* answers: :class:`VideoServer` defines one
``op_<name>`` method per op, over a
:class:`~vidb.service.executor.ServiceExecutor`.

Each connection gets its own :class:`~vidb.service.session.Session`, so
prepared queries and non-detached subscriptions are per-connection
state, exactly like prepared statements in a SQL server.  Answer values
are serialized as strings (the same rendering the CLI prints).
Mutating requests run under the ambient trace context, so the commit
deltas they produce (and the standing-query notification batches those
cause) carry the trace header too.

:class:`ServiceClient` is the matching blocking client; it re-raises
server-side error kinds as the corresponding :mod:`vidb.errors` classes
so ``except ServiceOverloadedError`` works across the wire.
"""

from __future__ import annotations

import random
import threading
import time
from typing import Any, Dict, List, Optional

from vidb.analysis.lint import summarize as lint_summary
from vidb.errors import (
    ProtocolError,
    ReplicaLagError,
    ServiceError,
    StandingQueryError,
)
from vidb.obs.trace import TraceContext, current_tracer
from vidb.query.execution import ExecutionOptions
from vidb.service.executor import ServiceExecutor
from vidb.service.wire import (
    ERROR_KINDS,
    IDEMPOTENT_OPS,
    OPS,
    Channel,
    Connection,
    Endpoint,
    Message,
    decode_mutation,
)


def _answers_payload(answers, limit: Optional[int]) -> Message:
    rows = [[str(value) for value in row] for row in answers.rows()]
    if limit is not None:
        rows = rows[:limit]
    return {
        "ok": True,
        "variables": list(answers.variables),
        "rows": rows,
        "count": len(answers),
    }


def _push_loop(conn: Connection, subscription) -> None:
    """Push mode: stream each notification batch as its own line until
    the subscription closes or the client goes away.  The connection is
    dedicated to pushes from here on."""
    try:
        while True:
            batches = subscription.poll(wait_s=0.5)
            for batch in batches:
                conn.send({"push": True, "id": subscription.id, **batch})
            if not batches and subscription.closed:
                conn.send({"push": True, "id": subscription.id,
                           "closed": True})
                return
    except OSError:
        return


class VideoServer(Endpoint):
    """The TCP front end of a :class:`ServiceExecutor`.

    ``port=0`` binds an ephemeral port; read the actual address from
    :attr:`address` (the tests and the smoke job rely on this).
    """

    def __init__(self, service: ServiceExecutor,
                 host: str = "127.0.0.1", port: int = 0):
        self.service = service
        super().__init__(host, port, service.metrics,
                         service.flight_recorder, service.events)

    def open_connection(self):
        return self.service.open_session()

    def node_identity(self) -> Dict[str, Any]:
        node = self.service.node_identity()
        node["host"], node["port"] = self.address
        return node

    def __repr__(self) -> str:
        host, port = self.address
        return f"VideoServer({host}:{port})"

    # -- reads ---------------------------------------------------------------
    def op_ping(self, conn: Connection, request: Message) -> Message:
        return {"ok": True, "pong": True}

    def op_info(self, conn: Connection, request: Message) -> Message:
        service = self.service
        identity = service.node_identity()
        payload = {"ok": True, "database": service.db.name,
                   "epoch": service.db.epoch,
                   "role": identity["role"], "read_only": service.read_only,
                   "kernel": service.engine.kernel.name,
                   "stats": service.db.stats()}
        for key in ("lsn", "generation"):
            if key in identity:
                payload[key] = identity[key]
        return payload

    def _await_token(self, request: Message) -> None:
        """Honor a session-consistency token (``min_lsn``) on a read.

        Holds the read until this server's state covers the token,
        bounded by ``wait_s`` (default: the executor's ``lsn_wait_s``);
        past the bound the read fails with a ``lagging`` error so the
        caller — the router, usually — redirects it to the primary
        instead of returning stale data.
        """
        min_lsn = request.get("min_lsn")
        if min_lsn is None:
            return
        service = self.service
        with current_tracer().span("wait_for_lsn", min_lsn=min_lsn) as span:
            reached = service.wait_for_lsn(min_lsn,
                                           timeout_s=request.get("wait_s"))
            span.annotate(applied=service.applied_lsn(), reached=reached)
        if not reached:
            raise ReplicaLagError(
                f"replica applied LSN {service.applied_lsn()} has not "
                f"reached the session token {min_lsn}; "
                f"read from the primary")

    def op_query(self, conn: Connection, request: Message) -> Message:
        profile = bool(request.get("profile"))
        self._await_token(request)
        report = conn.state.run(request["query"],
                                options=ExecutionOptions(trace=profile),
                                timeout=request.get("timeout"))
        payload = _answers_payload(report.answers, request.get("limit"))
        if profile:
            payload["stats"] = report.stats.as_dict()
            payload["profile"] = report.profile()
            if report.trace is not None:
                payload["trace"] = report.trace.as_dict()
        return payload

    def op_prepare(self, conn: Connection, request: Message) -> Message:
        prepared = conn.state.prepare(request["name"], request["query"],
                                      params=request.get("params") or ())
        return {"ok": True, "name": request["name"],
                "variables": list(prepared.variables),
                "params": list(prepared.params)}

    def op_execute(self, conn: Connection, request: Message) -> Message:
        self._await_token(request)
        answers = conn.state.execute(request["name"],
                                     timeout=request.get("timeout"),
                                     **request.get("params") or {})
        return _answers_payload(answers, request.get("limit"))

    def op_lint(self, conn: Connection, request: Message) -> Message:
        result = self.service.lint(request["text"])
        return {"ok": True, "diagnostics": list(result.as_dicts()),
                "summary": lint_summary(result),
                "ok_to_load": not result.has_errors}

    # -- writes --------------------------------------------------------------
    def _write_reply(self, **fields: Any) -> Message:
        """A mutation response: op fields, the new epoch and — when
        durable — the WAL head LSN, the client's read-your-writes
        session token."""
        reply: Message = {"ok": True, **fields,
                          "epoch": self.service.db.epoch}
        if self.service.durability is not None:
            reply["head_lsn"] = self.service.durability.last_lsn
        return reply

    def _op_mutation(self, conn: Connection, request: Message) -> Message:
        value = self.service.mutate(decode_mutation(request))
        return self._write_reply(**{OPS[request["op"]].result: str(value)})

    op_insert_entity = op_insert_interval = _op_mutation
    op_relate = op_declare_relation = _op_mutation
    op_remove_object = op_remove_fact = _op_mutation

    def op_batch(self, conn: Connection, request: Message) -> Message:
        ops = request["ops"]

        def _apply(db) -> int:
            for index, sub_op in enumerate(ops):
                decode_mutation(sub_op, f"batch item {index}: ")(db)
            return len(ops)

        return self._write_reply(applied=self.service.apply_batch(_apply))

    # -- standing queries ----------------------------------------------------
    def op_subscribe(self, conn: Connection, request: Message) -> Message:
        service = self.service
        try:
            subscription = service.subscribe(
                request["query"], filter=request.get("filter"),
                max_queue=request.get("max_queue"),
                session_id=conn.state.id,
                detached=bool(request.get("detach")))
        except StandingQueryError as error:
            # Rejected by subscribe-time streaming-safety analysis:
            # ship the located diagnostics so the client can point at
            # the offending rule/query spans.
            return {"ok": False, "error": "standing", "message": str(error),
                    "diagnostics": [d.as_dict() for d in error.diagnostics]}
        conn.state.subscription_ids.append(subscription.id)
        return {"ok": True, "id": subscription.id,
                "variables": list(subscription.variables),
                "epoch": service.db.epoch,
                "detached": subscription.detached,
                "maintenance": subscription.classification.get("maintenance"),
                "diagnostics": [d.as_dict() for d in subscription.diagnostics
                                if d.code.startswith("VDB06")]}

    def op_unsubscribe(self, conn: Connection, request: Message) -> Message:
        return {"ok": True, "id": request["id"],
                "removed": self.service.unsubscribe(request["id"])}

    def op_poll(self, conn: Connection, request: Message) -> Message:
        wait_s = request.get("wait_s")
        subscription = self.service.subscription(request["id"])
        batches = subscription.poll(
            max_batches=request.get("max_batches"),
            wait_s=min(wait_s, 60.0) if wait_s else None)
        return {"ok": True, "id": subscription.id, "batches": batches,
                "pending": subscription.queue_depth(),
                "closed": subscription.closed}

    def op_subscriptions(self, conn: Connection, request: Message) -> Message:
        return {"ok": True,
                "subscriptions": self.service.describe_subscriptions()}

    def op_listen(self, conn: Connection, request: Message) -> Message:
        subscription = self.service.subscription(request["id"])
        conn.after_reply = lambda: _push_loop(conn, subscription)
        return {"ok": True, "id": subscription.id, "listening": True}

    # -- telemetry -----------------------------------------------------------
    def op_metrics(self, conn: Connection, request: Message) -> Message:
        return {"ok": True, "metrics": self.service.snapshot()}

    def op_trace(self, conn: Connection, request: Message) -> Message:
        return {"ok": True, "id": request["id"],
                "segments": self.flight_recorder.get(request["id"])}

    def op_traces(self, conn: Connection, request: Message) -> Message:
        limit = request.get("limit")
        return {"ok": True, "traces": self.flight_recorder.summaries(
            limit if limit is not None else 20)}

    def op_events(self, conn: Connection, request: Message) -> Message:
        return {"ok": True, "events": self.service.recent_events(
            limit=request.get("limit"), type=request.get("type"))}

    # -- replication and failover --------------------------------------------
    def op_wal(self, conn: Connection, request: Message) -> Message:
        service = self.service
        if service.replica is not None:
            # A serving replica has no shippable WAL of its own; the op
            # instead reports its replication position — the router's
            # lag signal and ``vidb promote``'s ballot.
            replica = service.replica
            return {"ok": True, "role": "replica", "read_only": True,
                    "applied_lsn": replica.applied_lsn,
                    "visible_lsn": replica.visible_lsn,
                    "lag_lsn": replica.lag_lsn}
        if service.durability is None:
            raise ServiceError(
                "server is not durable (start it with --data-dir "
                "to enable log shipping)")
        reply = service.durability.ship(request.get("after") or 0,
                                        limit=request.get("limit"))
        reply["ok"] = True
        return reply

    def op_promote(self, conn: Connection, request: Message) -> Message:
        return {"ok": True,
                **self.service.promote(data_dir=request.get("data_dir"))}


class ServiceClient:
    """A blocking JSON-lines client for :class:`VideoServer`.

    Session consistency: every durable write response carries
    ``head_lsn``; the client remembers the highest one as
    :attr:`session_lsn` and threads it into subsequent ``query`` /
    ``execute`` calls as ``min_lsn``, so reads routed to a replica
    (see :mod:`vidb.cluster`) never observe state older than this
    client's own writes.

    Transport resilience: a request whose connection dies mid-flight is
    retried **once** — after a reconnect and a short jittered backoff —
    but only for idempotent read ops (:data:`IDEMPOTENT_OPS`); a write
    might have been applied before the failure, so it surfaces the
    error instead.
    """

    def __init__(self, host: str = "127.0.0.1", port: int = 7421,
                 timeout: float = 30.0,
                 trace_context: Optional[TraceContext] = None):
        self._address = (host, port)
        self._timeout = timeout
        self._channel: Optional[Channel] = Channel(self._address, timeout)
        self._lock = threading.Lock()
        #: Highest WAL LSN any of this client's writes reached — the
        #: read-your-writes token (0 until the first durable write).
        self.session_lsn = 0
        #: Root trace context: when set, every request carries a child
        #: traceparent header of it, so everything this client touches
        #: (router hops, replica waits, commit notifications) shares one
        #: trace id — the client-visible root of the assembled tree.
        self.trace_context = trace_context

    def _roundtrip(self, payload: Message) -> Message:
        with self._lock:
            if self._channel is None:
                self._channel = Channel(self._address, self._timeout)
            return self._channel.call(payload)

    def request(self, op: str, **fields: Any) -> Dict[str, Any]:
        """Send one request, wait for its response; raises on error."""
        payload = {"op": op, **{k: v for k, v in fields.items()
                                if v is not None}}
        if self.trace_context is not None and "trace" not in payload:
            payload["trace"] = self.trace_context.to_header()
        try:
            response = self._roundtrip(payload)
        except (ConnectionResetError, BrokenPipeError):
            if op not in IDEMPOTENT_OPS:
                raise ProtocolError("server closed the connection") from None
            # Jitter keeps a fleet of clients from stampeding a server
            # that just restarted.
            time.sleep(random.uniform(0.02, 0.1))
            with self._lock:
                self._hang_up()
            try:
                response = self._roundtrip(payload)
            except (ConnectionResetError, BrokenPipeError):
                raise ProtocolError(
                    "server closed the connection (after retry)") from None
        if not response.get("ok"):
            kind = response.get("error", "service")
            message = response.get("message", "server error")
            error = ERROR_KINDS.get(kind, ServiceError)(message)
            if isinstance(error, StandingQueryError):
                # Re-attach the located diagnostics (as wire dicts) so
                # callers can render the spans the server pointed at.
                error.diagnostics = tuple(response.get("diagnostics") or ())
            raise error
        head = response.get("head_lsn")
        if isinstance(head, int) and head > self.session_lsn:
            self.session_lsn = head
        return response

    # -- convenience wrappers ------------------------------------------------
    def ping(self) -> bool:
        return bool(self.request("ping").get("pong"))

    def info(self) -> Dict[str, Any]:
        return self.request("info")

    def query(self, text: str, timeout: Optional[float] = None,
              limit: Optional[int] = None,
              profile: bool = False,
              min_lsn: Optional[int] = None,
              wait_s: Optional[float] = None) -> Dict[str, Any]:
        if min_lsn is None and self.session_lsn:
            min_lsn = self.session_lsn
        return self.request("query", query=text, timeout=timeout,
                            limit=limit, profile=profile or None,
                            min_lsn=min_lsn or None, wait_s=wait_s)

    def prepare(self, name: str, text: str,
                params: Optional[List[str]] = None) -> Dict[str, Any]:
        return self.request("prepare", name=name, query=text, params=params)

    def execute(self, name: str, params: Optional[Dict[str, Any]] = None,
                timeout: Optional[float] = None,
                min_lsn: Optional[int] = None) -> Dict[str, Any]:
        if min_lsn is None and self.session_lsn:
            min_lsn = self.session_lsn
        return self.request("execute", name=name, params=params or {},
                            timeout=timeout, min_lsn=min_lsn or None)

    def insert_entity(self, oid: str, **attributes: Any) -> Dict[str, Any]:
        return self.request("insert_entity", oid=oid, attributes=attributes)

    def insert_interval(self, oid: str, entities=(), duration=None,
                        **attributes: Any) -> Dict[str, Any]:
        return self.request("insert_interval", oid=oid,
                            entities=list(entities), duration=duration,
                            attributes=attributes)

    def relate(self, relation: str, *args: Any) -> Dict[str, Any]:
        return self.request("relate", relation=relation, args=list(args))

    def declare_relation(self, name: str) -> Dict[str, Any]:
        return self.request("declare_relation", name=name)

    def batch(self, ops: List[Dict[str, Any]]) -> Dict[str, Any]:
        """Apply mutation sub-ops atomically in one transaction (one
        commit, one standing-query notification round; all-or-nothing)."""
        return self.request("batch", ops=list(ops))

    def subscribe(self, query: str,
                  filter: Optional[Dict[str, Any]] = None,
                  max_queue: Optional[int] = None,
                  detach: bool = False) -> Dict[str, Any]:
        """Register a standing query; returns its ``id`` and answer
        ``variables``.  Non-detached subscriptions close with this
        connection."""
        return self.request("subscribe", query=query, filter=filter,
                            max_queue=max_queue, detach=detach or None)

    def unsubscribe(self, sub_id: str) -> bool:
        return bool(self.request("unsubscribe", id=sub_id).get("removed"))

    def poll(self, sub_id: str, wait_s: Optional[float] = None,
             max_batches: Optional[int] = None) -> Dict[str, Any]:
        """Drain queued notification batches (oldest first), blocking
        up to ``wait_s`` when the queue is empty."""
        return self.request("poll", id=sub_id, wait_s=wait_s,
                            max_batches=max_batches)

    def subscriptions(self) -> List[Dict[str, Any]]:
        """Status rows of the server's live standing queries."""
        reply = self.request("subscriptions")
        return list(reply.get("subscriptions", []))

    def listen(self, sub_id: str):
        """Switch this connection to push mode; yields each batch as it
        arrives until the subscription closes or the server goes away.
        The connection serves nothing else afterwards — use a dedicated
        client for listening."""
        self.request("listen", id=sub_id)
        while True:
            with self._lock:
                assert self._channel is not None
                payload = self._channel.recv()
            if payload is None or payload.get("closed"):
                return
            yield payload

    def lint(self, text: str) -> Dict[str, Any]:
        """Statically analyze a rule/query document server-side.

        Returns ``diagnostics`` (list of structured findings), a human
        ``summary`` and ``ok_to_load`` (no errors)."""
        return self.request("lint", text=text)

    def metrics(self) -> Dict[str, Any]:
        return self.request("metrics")["metrics"]

    def trace(self, id: str) -> Dict[str, Any]:
        """The flight-recorder ``segments`` of one distributed trace
        (the router fans this out fleet-wide)."""
        return self.request("trace", id=id)

    def traces(self, limit: Optional[int] = None) -> List[Dict[str, Any]]:
        """Most-recent-first flight-recorder segment summaries."""
        reply = self.request("traces", limit=limit)
        return list(reply.get("traces", []))

    def cluster_health(self) -> Dict[str, Any]:
        """The router's fleet summary (per-node rows + rollups)."""
        return self.request("cluster_health")

    def events(self, limit: Optional[int] = None,
               type: Optional[str] = None) -> List[Dict[str, Any]]:
        """Most-recent-first structured events (slow queries, admission
        rejections, checkpoints, ...), optionally filtered by type."""
        reply = self.request("events", limit=limit, type=type)
        return list(reply.get("events", []))

    def wal(self, after: int = 0,
            limit: Optional[int] = None) -> Dict[str, Any]:
        """Ship WAL records after LSN *after* (replica pull).  Against
        a serving replica this instead reports its replication position
        (``applied_lsn`` / ``lag_lsn``)."""
        return self.request("wal", after=after, limit=limit)

    def promote(self, data_dir: Optional[str] = None) -> Dict[str, Any]:
        """Ask a serving replica to take over as primary (failover)."""
        return self.request("promote", data_dir=data_dir)

    def _hang_up(self) -> None:
        """Drop the connection (caller holds the lock); the next request
        reconnects, so a server that comes back is reached again."""
        if self._channel is not None:
            self._channel.close()
            self._channel = None

    def close(self) -> None:
        with self._lock:
            try:
                if self._channel is not None:
                    self._channel.send({"op": "close"})
            except OSError:
                pass
            self._hang_up()

    def __enter__(self) -> "ServiceClient":
        return self

    def __exit__(self, *exc) -> bool:
        self.close()
        return False
