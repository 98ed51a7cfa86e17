"""dashboard_routed — a monitoring wall re-asking cheap queries via the fleet.

Primary + two replicas + router, four subprocesses; two connections
(one thread each) to the router, closed loop; op = one request.  The
24 queries fit every cache, so more than 99 % of ops bypass the engine
and what is measured is framing, JSON and the router's forwarding.
Every ``DASHBOARD_WRITE_EVERY``-th op of a connection is a write
through the router, immediately followed by a session-consistent read
that must see it: the whole-cache epoch invalidation and the replica's
token wait land in the tail.
"""

from __future__ import annotations

import threading
import time
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

from vidb.errors import VidbError
from vidb.service.server import ServiceClient

from vidb.obs.trace import TraceContext

from benchmarks.e2e import config, inputs, ladder
from benchmarks.e2e.nodes import HOST, Node
from benchmarks.e2e.oracle import Oracle, Rows
from benchmarks.e2e.spans import SpanLog
from benchmarks.e2e.stats import mean, median
from benchmarks.e2e.workloads.base import (
    Context,
    Section,
    Workload,
    metric_delta,
    payload_bytes,
    start_loaded_primary,
)


class DashboardInputs:
    def __init__(self, seed: int):
        self.seed = seed
        self.records = inputs.database_records()
        self.queries = inputs.dashboard_queries(self.records)
        self.expected: List[Rows] = []
        #: Queries whose oracle rows differ from the reference kernel's
        #: under naive evaluation (checked at set-up; expected: none).
        self.reference_mismatches = 0

    def stream(self, connection: int) -> Iterator[Tuple[str, int]]:
        return inputs.dashboard_ops(self.seed, connection)


def write_request(connection: int, n: int) -> Tuple[Dict[str, Any], str, Rows]:
    """The n-th write of a connection, the read that must see it, and
    that read's expected rows."""
    oid = f"w{connection}x{n}"
    request = {"op": "insert_entity", "oid": oid,
               "attributes": {"name": oid, "role": "wall"}}
    return request, f'?- object(O), O.name = "{oid}".', [[oid]]


class _Connection(threading.Thread):
    """One dashboard connection: a closed loop over its op stream."""

    def __init__(self, index: int, client: ServiceClient,
                 data: DashboardInputs, stream: Iterator[Tuple[str, int]],
                 barrier: threading.Barrier, seconds: float,
                 after_write: Optional[Callable[[], None]] = None):
        super().__init__(name=f"dashboard-{index}", daemon=True)
        #: Traced runs sample replica lag between a write's ack and the
        #: read that waits for it.
        self.after_write = after_write
        self.index = index
        self.client = client
        self.data = data
        self.stream = stream
        self.barrier = barrier
        self.seconds = seconds
        self.section = Section()
        self.write_ms: List[float] = []
        self.token_read_ms: List[float] = []
        self.user_bytes = 0
        self.began = self.ended = 0.0
        self.error: Optional[BaseException] = None

    def _read(self, text: str, expected: Rows, now: float,
              mismatch: str = "wrong_answer") -> float:
        section = self.section
        section.attempted += 1
        try:
            rows = self.client.query(text)["rows"]
        except (VidbError, OSError) as error:
            section.fail(f"error:{type(error).__name__}")
            rows = expected
        done = time.perf_counter()
        if rows != expected:
            section.fail(mismatch)
        section.ops += 1
        section.latencies_ms.append((done - now) * 1000.0)
        return done

    def run(self) -> None:
        try:
            self._loop()
        except BaseException as error:  # surfaced by the joining thread
            self.error = error

    def _loop(self) -> None:
        queries, expected = self.data.queries, self.data.expected
        self.barrier.wait()
        now = self.began = time.perf_counter()
        deadline = now + self.seconds
        while now < deadline:
            kind, arg = next(self.stream)
            if kind == "read":
                now = self._read(queries[arg], expected[arg], now)
                continue
            request, text, rows = write_request(self.index, arg)
            self.user_bytes += payload_bytes(request)
            self.section.attempted += 1
            try:
                self.client.request(**request)
            except (VidbError, OSError) as error:
                self.section.fail(f"error:{type(error).__name__}")
            written = time.perf_counter()
            self.section.ops += 1
            self.write_ms.append((written - now) * 1000.0)
            if self.after_write is not None:
                self.after_write()
                written = time.perf_counter()
            now = self._read(text, rows, written, "stale_session_read")
            self.token_read_ms.append((now - written) * 1000.0)
        self.ended = now


class DashboardRouted(Workload):
    name = "dashboard_routed"

    def generate(self, seed: int) -> DashboardInputs:
        return DashboardInputs(seed)

    def start(self, ctx: Context) -> None:
        data: DashboardInputs = ctx.inputs
        start_loaded_primary(ctx, data.records)
        assert ctx.primary is not None
        replicas = [
            ctx.fleet.spawn("replica", "replicate", str(ctx.data_dir),
                            "--serve-port", "{port}",
                            "--interval", str(config.REPLICA_POLL_S))
            for _ in range(2)]
        for replica in replicas:
            replica.wait_ready()
        router = ctx.fleet.spawn(
            "router", "router", "--primary", f"{HOST}:{ctx.primary.port}",
            *[arg for r in replicas for arg in ("--replica",
                                                f"{HOST}:{r.port}")],
            "--port", "{port}")
        router.wait_ready()
        ctx.replicas, ctx.router = replicas, router
        self._await_healthy(router, len(replicas))
        oracle = Oracle(data.records, None)
        data.expected = [oracle.rows(text) for text in data.queries]
        data.reference_mismatches = sum(
            oracle.reference_rows(text) != rows
            for text, rows in zip(data.queries, data.expected))
        # Fill every cache a read can land on: each backend directly,
        # then through the router on the connections the run will use.
        for node in [ctx.primary, *replicas]:
            with ServiceClient(HOST, node.port) as direct:
                for text in data.queries:
                    direct.query(text)
        for _ in range(config.DASHBOARD_CONNECTIONS):
            routed = ctx.connect(router)
            for _ in range(len(replicas) + 1):
                for text in data.queries:
                    routed.query(text)

    @staticmethod
    def _await_healthy(router: Node, replicas: int,
                       deadline_s: float = 30.0) -> None:
        give_up = time.perf_counter() + deadline_s
        while time.perf_counter() < give_up:
            reply = router.request({"op": "cluster"}) or {}
            healthy = [r for r in reply.get("replicas", ())
                       if r.get("healthy")]
            if len(healthy) == replicas:
                return
            time.sleep(0.02)
        raise RuntimeError(f"router never saw {replicas} healthy replicas:\n"
                           f"{router.log_tail()}")

    def verify(self, ctx: Context, section: Section) -> None:
        """Reads were checked as they returned; what is left is the
        set-up's verdict on the oracle itself."""
        if ctx.inputs.reference_mismatches:
            section.fail("reference_mismatch", ctx.inputs.reference_mismatches)

    def routed_clients(self, ctx: Context) -> List[ServiceClient]:
        return ctx.clients[-config.DASHBOARD_CONNECTIONS:]

    def timed(self, ctx: Context, seconds: float,
              after_write: Optional[Callable[[], None]] = None) -> Section:
        data: DashboardInputs = ctx.inputs
        barrier = threading.Barrier(config.DASHBOARD_CONNECTIONS)
        connections = [
            _Connection(index, client, data, data.stream(index), barrier,
                        seconds, after_write)
            for index, client in enumerate(self.routed_clients(ctx))]
        for connection in connections:
            connection.start()
        for connection in connections:
            connection.join()
            if connection.error is not None:
                raise connection.error
        section = Section()
        for connection in connections:
            part = connection.section
            section.ops += part.ops
            section.attempted += part.attempted
            section.latencies_ms += part.latencies_ms
            section.failures.update(part.failures)
            ctx.user_bytes += connection.user_bytes
        section.elapsed_s = (max(c.ended for c in connections)
                             - min(c.began for c in connections))
        section.data["writes"] = sum(len(c.write_ms) for c in connections)
        section.data["write_ms"] = [v for c in connections
                                    for v in c.write_ms]
        section.data["token_read_ms"] = [v for c in connections
                                         for v in c.token_read_ms]
        return section

    # -- the traced run -----------------------------------------------------------
    def direct_reads_ms(self, ctx: Context, count: int,
                        traced: bool = False) -> List[float]:
        """Latencies of *count* reads of connection 0's op list sent
        straight to the primary on one connection (no router); with
        *traced*, every request carries a sampled trace header."""
        data: DashboardInputs = ctx.inputs
        stream = (arg for kind, arg in data.stream(0) if kind == "read")
        context = TraceContext.new(sampled=True) if traced else None
        latencies = []
        with ServiceClient(HOST, ctx.primary.port,
                           trace_context=context) as client:
            for _ in range(count):
                text = data.queries[next(stream)]
                began = time.perf_counter()
                client.query(text)
                latencies.append((time.perf_counter() - began) * 1000.0)
        return latencies

    def trace(self, ctx: Context, log: SpanLog, seconds: float,
              quick: bool) -> Tuple[Dict[str, float], Section]:
        data: DashboardInputs = ctx.inputs
        backends = [ctx.primary, *ctx.replicas]
        count = 50 if quick else config.DASHBOARD_OVERHEAD_OPS
        plain = self.direct_reads_ms(ctx, count)
        traced = self.direct_reads_ms(ctx, count, traced=True)

        def _counters() -> Tuple[List[Dict[str, Any]], Dict[str, Any]]:
            return ([(node.request({"op": "metrics"}) or {}).get("metrics", {})
                     for node in backends],
                    (ctx.router.request({"op": "cluster"}) or {}).get(
                        "metrics", {}))

        lags: List[int] = []

        def _sample_lag() -> None:
            for replica in ctx.replicas:
                reply = replica.request({"op": "wal"}) or {}
                lags.append(int(reply.get("lag_lsn", 0)))

        before, router_before = _counters()
        section = self.timed_without_gc(ctx, seconds, _sample_lag)
        after, router_after = _counters()

        def _backends(key: str) -> float:
            return sum(metric_delta(b, a, key) for b, a in zip(before, after))

        hits, misses = _backends("cache.hits"), _backends("cache.misses")
        reads = section.ops - section.data["writes"]
        read_p50 = median(section.latencies_ms)
        metrics = {
            "service.cache.hit_ratio": hits / max(1.0, hits + misses),
            "service.cache.evictions": _backends("cache.evictions"),
            "service.rejected_ratio":
                _backends("queries.rejected") / max(1, section.attempted),
            "cluster.router.replica_share": metric_delta(
                router_before, router_after, "router.reads_balanced")
                / max(1, reads),
            "cluster.router.fallbacks": metric_delta(
                router_before, router_after, "router.fallbacks"),
            "cluster.replica.token_wait_ms": max(0.0, median(
                section.data["token_read_ms"]) - read_p50),
            "cluster.replica.lag_lsn_max": float(max(lags, default=0)),
            "obs.traced_request_overhead_ms":
                median(traced) - median(plain),
        }
        with ServiceClient(HOST, ctx.primary.port) as client:
            metrics["service.wire.reply_bytes_per_query"] = mean(
                payload_bytes(client.query(text)) for text in data.queries)
        metrics.update(ladder.read_ladder(
            log, data.records, None, data.queries[:10 if quick else None],
            ctx.primary.port, ctx.router.port))
        # Cache hit + wire + forward, one connection, over the median of
        # the two-connection routed section.
        metrics["ladder.accounted_share"] = (
            log.median_ms("router.query.hit") / max(read_p50, 1e-9))
        self.verify(ctx, section)
        return metrics, section
