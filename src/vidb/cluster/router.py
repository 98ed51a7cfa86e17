"""The cluster's front door: one address, primary + replica fan-out.

:class:`ClusterRouter` speaks the same JSON-lines protocol as
:class:`~vidb.service.server.VideoServer`, so every existing client —
``vidb client``, ``vidb top``, :class:`ServiceClient` — can point at
the router instead of a single server and transparently gain read
scaling:

* **Writes, transactions, session state** (inserts, ``relate``,
  ``prepare``/``execute``, ``wal`` shipping) forward to the primary
  over a per-client-connection backend connection, preserving the
  per-connection session semantics (prepared queries live where they
  were prepared).
* **Stateless reads** (``query``, ``lint``) round-robin across healthy
  replicas.  Health is probed in the background: the replica's ``wal``
  op reports ``applied_lsn``/``lag_lsn`` (replicas above
  ``max_lag_lsn`` stop taking reads), and an optional ``/readyz`` URL
  per replica gates on the exporter's readiness checks.
* **Session consistency** passes through untouched: the client's
  ``min_lsn`` token rides inside the forwarded request, and a replica
  that cannot reach the token within its bounded wait answers with a
  ``lagging`` error — the router then *re-serves that read from the
  primary* instead of surfacing the error.
* **Failure handling**: a transport error against a replica marks it
  down (the prober brings it back), and the read moves to the next
  healthy replica, then to the primary.  A dead primary surfaces as a
  ``cluster`` error until ``vidb promote`` repoints the router via the
  ``repoint`` op.

The router is an :class:`~vidb.service.wire.Endpoint` like the server:
the ops it answers itself are its ``op_<name>`` methods, every other op
is relayed by :meth:`ClusterRouter.forward`::

    {"op": "cluster"}                      topology + health + counters
    {"op": "cluster_health"}               fleet summary: nodes + rollups
    {"op": "traces"}                       fleet-wide trace summaries
    {"op": "trace", "id": "<trace_id>"}    fan-out segment fetch
    {"op": "repoint", "host": H, "port": P}   new primary after failover
    {"op": "listen", ...}                  refused: names the primary

Observability (see docs/OBSERVABILITY.md): the router participates in
distributed tracing — a request carrying a sampled traceparent header
gets a router *segment* (``router.<op>`` wrapping a ``router.forward``
span per backend attempt) recorded into the router's own flight
recorder, and the forwarded request carries the router segment's
context so the backend's spans nest under it.  A background scrape
loop collects every member's ``metrics`` snapshot into a
:class:`~vidb.obs.fleet.FleetAggregator`; ``vidb router
--metrics-port`` serves the federated per-node exposition next to the
router's own counters, and ``cluster_health`` summarizes the fleet for
``vidb top --cluster``.
"""

from __future__ import annotations

import threading
import time
import urllib.request
from typing import Any, Dict, List, Optional, Tuple

from vidb.errors import ClusterError, ProtocolError
from vidb.obs.events import EventLog, get_event_log
from vidb.obs.fleet import FleetAggregator, render_fleet_exposition
from vidb.obs.metrics import MetricsRegistry
from vidb.obs.trace import FlightRecorder, current_tracer
from vidb.service.wire import (
    REPLICA_OPS,
    Channel,
    Connection,
    Endpoint,
    Message,
    call,
)

Address = Tuple[str, int]


class _Upstreams:
    """One client connection's backend channels, opened on first use —
    so per-connection session state (prepared queries, subscriptions)
    lives on the backend connection that created it."""

    def __init__(self, router: "ClusterRouter"):
        self.router = router
        self._channels: Dict[Address, Channel] = {}
        self._version = router.primary_version

    def channel(self, address: Address) -> Channel:
        if self._version != self.router.primary_version:
            # The router was repointed (failover): every cached channel
            # may belong to the old generation — reconnect.
            self.close()
            self._version = self.router.primary_version
        channel = self._channels.get(address)
        if channel is None:
            channel = Channel(address, self.router.request_timeout)
            self._channels[address] = channel
        return channel

    def drop(self, address: Address) -> None:
        channel = self._channels.pop(address, None)
        if channel is not None:
            channel.close()

    def close(self) -> None:
        for address in list(self._channels):
            self.drop(address)


class ReplicaState:
    """Shared health/lag bookkeeping for one replica (prober writes,
    request handlers read; all under the router's state lock)."""

    def __init__(self, address: Tuple[str, int]):
        self.address = address
        self.healthy = False   # pessimistic until the first probe
        self.probed = False
        self.applied_lsn = 0
        self.lag_lsn = 0
        self.last_error: Optional[str] = None

    def as_dict(self) -> Dict[str, Any]:
        return {"address": f"{self.address[0]}:{self.address[1]}",
                "healthy": self.healthy,
                "applied_lsn": self.applied_lsn,
                "lag_lsn": self.lag_lsn,
                "last_error": self.last_error}


class ClusterRouter(Endpoint):
    """Route one protocol endpoint across a primary and its replicas."""

    span_prefix = "router"

    def __init__(self, primary: Tuple[str, int],
                 replicas: Optional[List[Tuple[str, int]]] = None, *,
                 host: str = "127.0.0.1", port: int = 0,
                 probe_interval_s: float = 0.5,
                 max_lag_lsn: Optional[int] = None,
                 readyz_urls: Optional[Dict[Tuple[str, int], str]] = None,
                 connect_timeout: float = 5.0,
                 request_timeout: float = 30.0,
                 metrics: Optional[MetricsRegistry] = None,
                 event_log: Optional[EventLog] = None,
                 trace_sample: float = 0.0,
                 trace_capacity: int = 256,
                 scrape_interval_s: float = 2.0):
        # The flight recorder holds router-side trace segments (see
        # vidb.obs.trace).  ``trace_sample`` only matters for reads that
        # arrive without any header; the router mostly honors the
        # sampling decision the client made.
        super().__init__(
            host, port, metrics or MetricsRegistry(),
            FlightRecorder(capacity=trace_capacity, sample_rate=trace_sample),
            event_log if event_log is not None else get_event_log())
        self.primary = (primary[0], int(primary[1]))
        #: Bumped on :meth:`repoint`; each client connection compares it
        #: to know its cached backend channels are a dead generation's.
        self.primary_version = 0
        self.request_timeout = request_timeout
        self.connect_timeout = connect_timeout
        self.probe_interval_s = max(0.05, probe_interval_s)
        #: Replicas lagging more than this many LSNs stop taking reads
        #: (None = any lag is acceptable; the LSN-token wait still
        #: guarantees read-your-writes).
        self.max_lag_lsn = max_lag_lsn
        self.readyz_urls = dict(readyz_urls or {})
        self._reads = self.metrics.counter_family("router_reads_total",
                                                  ("replica",))
        for name in ("router.requests", "router.reads_balanced",
                     "router.fallbacks", "router.replica_errors",
                     "router.primary_errors"):
            self.metrics.counter(name)
        #: Federated member telemetry, fed by the scrape loop.
        self.fleet = FleetAggregator()
        self.scrape_interval_s = max(0.25, scrape_interval_s)
        self._state_lock = threading.Lock()
        self._replicas: List[ReplicaState] = [
            ReplicaState((h, int(p))) for h, p in (replicas or [])]
        self._rr = 0
        self._stop = threading.Event()
        self._loops: List[threading.Thread] = []

    # -- lifecycle -----------------------------------------------------------
    def start(self) -> "ClusterRouter":
        # A synchronous first pass of each: start with a real view of
        # replica health and a populated fleet view.
        for name, interval, tick in (
                ("probe", self.probe_interval_s, self.probe),
                ("scrape", self.scrape_interval_s, self.scrape)):
            tick()
            self._loops.append(threading.Thread(
                target=self._every, args=(interval, tick),
                name=f"vidb-router-{name}", daemon=True))
            self._loops[-1].start()
        return self.start_background()

    def _every(self, interval_s: float, tick) -> None:
        while not self._stop.wait(interval_s):
            tick()

    def close(self) -> None:
        self._stop.set()
        self.shutdown()
        while self._loops:
            self._loops.pop().join(timeout=5)
        self.flight_recorder.close()

    def open_connection(self) -> _Upstreams:
        return _Upstreams(self)

    # -- health probing ------------------------------------------------------
    def probe(self) -> None:
        """One health pass over every replica (and the readyz gates)."""
        for state in self._replicas:
            self._probe_one(state)

    def _probe_one(self, state: ReplicaState) -> None:
        healthy, error = True, None
        applied = lag = None
        try:
            reply = call(state.address, {"op": "wal"}, self.connect_timeout)
            if not reply.get("ok"):
                healthy, error = False, str(reply.get("message"))
            else:
                applied = int(reply.get("applied_lsn",
                                        reply.get("last_lsn", 0)))
                lag = int(reply.get("lag_lsn", 0))
                if (self.max_lag_lsn is not None
                        and lag > self.max_lag_lsn):
                    healthy, error = False, f"lagging {lag} LSNs"
        except (OSError, ProtocolError) as exc:
            healthy, error = False, str(exc)
        if healthy and state.address in self.readyz_urls:
            try:
                with urllib.request.urlopen(
                        self.readyz_urls[state.address],
                        timeout=self.connect_timeout) as response:
                    if response.status != 200:
                        healthy, error = False, f"/readyz {response.status}"
            except OSError as exc:
                healthy, error = False, f"/readyz: {exc}"
        with self._state_lock:
            was_healthy, was_probed = state.healthy, state.probed
            state.healthy, state.probed = healthy, True
            state.last_error = error
            if applied is not None:
                state.applied_lsn = applied
            if lag is not None:
                state.lag_lsn = lag
        if healthy and (not was_healthy or not was_probed):
            self.events.emit("router.replica_up",
                             replica=f"{state.address[0]}:{state.address[1]}")
        elif not healthy and (was_healthy or not was_probed):
            self.events.emit("router.replica_down",
                             replica=f"{state.address[0]}:{state.address[1]}",
                             error=error)

    def mark_down(self, address: Tuple[str, int], error: str) -> None:
        with self._state_lock:
            for state in self._replicas:
                if state.address == address and state.healthy:
                    state.healthy = False
                    state.last_error = error
                    break
            else:
                return
        self.events.emit("router.replica_down",
                         replica=f"{address[0]}:{address[1]}", error=error)

    def healthy_replicas(self) -> List[ReplicaState]:
        with self._state_lock:
            return [s for s in self._replicas if s.healthy]

    def _next_replicas(self) -> List[ReplicaState]:
        """Healthy replicas in round-robin order (rotating start)."""
        with self._state_lock:
            healthy = [s for s in self._replicas if s.healthy]
            if not healthy:
                return []
            start = self._rr % len(healthy)
            self._rr += 1
            return healthy[start:] + healthy[:start]

    # -- routing -------------------------------------------------------------
    def answer(self, conn: Connection, line: bytes) -> Message:
        self.metrics.inc("router.requests")
        return super().answer(conn, line)

    def op_cluster(self, conn: Connection, request: Message) -> Message:
        return self.topology()

    def op_cluster_health(self, conn: Connection,
                          request: Message) -> Message:
        return self.cluster_health()

    def op_traces(self, conn: Connection, request: Message) -> Message:
        limit = request.get("limit")
        return self.cluster_traces(20 if limit is None else limit)

    def op_trace(self, conn: Connection, request: Message) -> Message:
        return self.cluster_trace(request["id"])

    def op_repoint(self, conn: Connection, request: Message) -> Message:
        self.repoint((request["host"], request["port"]))
        return {"ok": True,
                "primary": f"{request['host']}:{request['port']}"}

    def op_listen(self, conn: Connection, request: Message) -> Message:
        # A connection-takeover op cannot be relayed request by request:
        # forwarded, its pushes would answer the client's later requests.
        host, port = self.primary
        raise ClusterError(
            f"listen takes over its connection and is not routable; "
            f"connect to the primary at {host}:{port}")

    def forward(self, conn: Connection, request: Message) -> Message:
        """Relay to a backend: balanced across replicas for the table's
        ``replica`` rows, to the primary for everything else (writes,
        per-connection session state, log shipping, introspection of
        *the primary*).  Under a sampled trace the request already
        carries this hop's header, so the backend's segment parents to
        the router's and the tree reads client → router → backend."""
        op = request.get("op")
        if isinstance(op, str) and op in REPLICA_OPS:
            return self._route_read(conn.state, request)
        return self._route_primary(conn.state, request)

    def _route_primary(self, upstreams: _Upstreams,
                       request: Message) -> Message:
        host, port = self.primary
        with current_tracer().span("router.forward",
                                   backend=f"{host}:{port}",
                                   role="primary") as span:
            try:
                response = upstreams.channel(self.primary).call(request)
            except (OSError, ProtocolError) as error:
                upstreams.drop(self.primary)
                self.metrics.inc("router.primary_errors")
                span.annotate(outcome="transport_error")
                raise ClusterError(
                    f"primary {host}:{port} unreachable ({error}); "
                    f"promote a replica and repoint the router") from None
            span.annotate(outcome="served")
            return response

    def _route_read(self, upstreams: _Upstreams,
                    request: Message) -> Message:
        tracer = current_tracer()
        for state in self._next_replicas():
            address = state.address
            backend = f"{address[0]}:{address[1]}"
            with tracer.span("router.forward", backend=backend,
                             role="replica") as span:
                try:
                    response = upstreams.channel(address).call(request)
                except (OSError, ProtocolError) as error:
                    upstreams.drop(address)
                    self.mark_down(address, str(error))
                    self.metrics.inc("router.replica_errors")
                    span.annotate(outcome="transport_error")
                    continue
                if (not response.get("ok")
                        and response.get("error") in ("lagging", "read_only")):
                    # The replica cannot serve this read consistently (the
                    # client's LSN token outran it); the primary always can.
                    self.metrics.inc("router.fallbacks")
                    span.annotate(outcome=str(response.get("error")))
                    break
                span.annotate(outcome="served")
            self.metrics.inc("router.reads_balanced")
            self._reads.labels(replica=backend).inc()
            return response
        else:
            if self._replicas:
                self.metrics.inc("router.fallbacks")
        response = self._route_primary(upstreams, request)
        self._reads.labels(replica="primary").inc()
        return response

    # -- fleet telemetry -----------------------------------------------------
    def node_identity(self) -> Dict[str, Any]:
        host, port = self.address
        return {"role": "router", "host": host, "port": port}

    def _members(self) -> List[Tuple[str, Tuple[str, int]]]:
        """``(role, address)`` for every cluster member, primary first."""
        with self._state_lock:
            members = [("primary", self.primary)]
            members.extend(("replica", s.address) for s in self._replicas)
        return members

    def scrape(self) -> None:
        """One telemetry pass: pull every member's metrics snapshot into
        the fleet aggregator (failures keep the last good snapshot and
        mark the node down)."""
        for role, address in self._members():
            name = f"{address[0]}:{address[1]}"
            try:
                reply = call(address, {"op": "metrics"},
                             self.connect_timeout)
            except (OSError, ProtocolError) as error:
                self.fleet.mark_failed(name, role, str(error))
                continue
            snapshot = reply.get("metrics")
            if reply.get("ok") and isinstance(snapshot, dict):
                self.fleet.update(name, role, snapshot)
            else:
                self.fleet.mark_failed(
                    name, role, str(reply.get("message", "bad metrics reply")))

    def fleet_exposition(self) -> str:
        """The federated per-node Prometheus text (appended to the
        router's own exposition by ``vidb router --metrics-port``)."""
        return render_fleet_exposition(self.fleet)

    def cluster_health(self) -> Dict[str, Any]:
        """Fleet summary: per-node rows + cluster rollups + topology."""
        health = self.fleet.health()
        with self._state_lock:
            primary = self.primary
            replicas = [s.as_dict() for s in self._replicas]
        host, port = self.address
        return {"ok": True,
                "router": f"{host}:{port}",
                "primary": f"{primary[0]}:{primary[1]}",
                "replicas": replicas,
                "nodes": health["nodes"],
                "rollups": health["rollups"],
                "time": health["time"]}

    # -- trace fan-out -------------------------------------------------------
    def _fanout(self, request: Dict[str, Any]) -> List[Dict[str, Any]]:
        """Forward ``request`` to every member over one-shot connections,
        collecting the ``ok`` replies (unreachable members are skipped —
        a killed primary must not break trace assembly)."""
        replies = []
        for _role, address in self._members():
            try:
                reply = call(address, request, self.connect_timeout)
            except (OSError, ProtocolError):
                continue
            if reply.get("ok"):
                replies.append(reply)
        return replies

    def cluster_trace(self, trace_id: str) -> Dict[str, Any]:
        """Assemble one trace's segments from the whole fleet: the
        router's own flight recorder plus every reachable member's."""
        segments = self.flight_recorder.get(trace_id)
        for reply in self._fanout({"op": "trace", "id": trace_id}):
            segments.extend(reply.get("segments") or ())
        return {"ok": True, "id": trace_id, "segments": segments}

    def cluster_traces(self, limit: int = 20) -> Dict[str, Any]:
        """Most-recent trace summaries across the fleet, merged by
        trace_id (one row per trace, earliest segment's summary wins)."""
        limit = max(0, limit)
        rows = self.flight_recorder.summaries(limit)
        for reply in self._fanout({"op": "traces", "limit": limit}):
            rows.extend(reply.get("traces") or ())
        merged: Dict[str, Dict[str, Any]] = {}
        for row in rows:
            trace_id = row.get("trace_id")
            if not isinstance(trace_id, str):
                continue
            kept = merged.get(trace_id)
            if kept is None or row.get("started_at", 0) < kept.get(
                    "started_at", 0):
                merged[trace_id] = row
        ordered = sorted(merged.values(),
                         key=lambda r: r.get("started_at", 0), reverse=True)
        return {"ok": True, "traces": ordered[:limit]}

    # -- failover ------------------------------------------------------------
    def repoint(self, primary: Tuple[str, int]) -> None:
        """Point writes at a newly promoted primary.

        Also drops the new primary from the read pool if it was one of
        the replicas, and wakes every client handler's cached primary
        connection via the version bump.
        """
        new = (primary[0], int(primary[1]))
        with self._state_lock:
            old = self.primary
            self.primary = new
            self.primary_version += 1
            self._replicas = [s for s in self._replicas if s.address != new]
        self.events.emit("failover.repoint",
                         old_primary=f"{old[0]}:{old[1]}",
                         new_primary=f"{new[0]}:{new[1]}")

    # -- introspection -------------------------------------------------------
    def topology(self) -> Dict[str, Any]:
        with self._state_lock:
            replicas = [s.as_dict() for s in self._replicas]
            primary = self.primary
        return {"ok": True,
                "primary": f"{primary[0]}:{primary[1]}",
                "replicas": replicas,
                "metrics": self.metrics.snapshot(),
                "time": time.time()}

    def __repr__(self) -> str:
        host, port = self.address
        healthy = len(self.healthy_replicas())
        with self._state_lock:
            total = len(self._replicas)
        return (f"ClusterRouter({host}:{port}, "
                f"primary={self.primary[0]}:{self.primary[1]}, "
                f"replicas={healthy}/{total} healthy)")
