"""What each metric means and what it is predicted to move.

``BENCHMARK.json`` may carry only names, units, directions and bounds;
this module holds the rest of the benchmark's definition: which
operation each workload's latency times, and — written down before any
measurement — which end-to-end metric on which workload each per-layer
metric should move.  Everything not listed for a per-layer metric is
predicted *not* to move with it.  ``tests/test_schema.py`` keeps the two
files in step.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

#: What ``latency_p50_ms`` / ``latency_p95_ms`` and one "op" of
#: ``throughput_ops_s`` are on each workload.
OPERATIONS: Dict[str, Dict[str, str]] = {
    "adhoc_cold": {
        "op": "one query (all cache misses), 1 connection, closed loop",
        "latency": "read latency of the query"},
    "dashboard_routed": {
        "op": "one request through the router, 2 connections, closed loop",
        "latency": "read latency (reads after a write included)"},
    "stream_ingest": {
        "op": "one record ingested in 50-record batches, closed loop",
        "latency": "notification latency from the commit's due time, "
                   "5-record commits at a pinned open-loop rate"},
    "write_recover": {
        "op": "one acknowledged single write, fsync interval, closed loop",
        "latency": "acknowledged-write latency"},
}

_READ = ("latency_p50_ms", "latency_p95_ms", "throughput_ops_s")
_TAIL = ("latency_p95_ms",)


def _on(workload: str, *metrics: str) -> List[Tuple[str, str]]:
    return [(metric, workload) for metric in metrics]


#: per-layer metric -> the (end-to-end metric, workload) pairs it should
#: move.  An empty list marks bookkeeping about the benchmark itself.
MOVES: Dict[str, List[Tuple[str, str]]] = {
    # constraints: the kernel registry (interned / reference)
    "constraints.kernel.busy_ms_per_query": _on("adhoc_cold", *_READ),
    "constraints.kernel.calls_per_query": _on("adhoc_cold", *_READ),
    "constraints.kernel.entails_hit_ratio": _on("adhoc_cold", *_READ),
    "constraints.kernel.batch_vs_single_ratio": _on("adhoc_cold", *_READ),
    # query: parser, engine, fixpoint, incremental
    "query.parse_ms": _on("adhoc_cold", "latency_p50_ms"),
    "query.evaluate_ms": _on("adhoc_cold", *_READ),
    "query.fixpoint.iterations_per_query": _on("adhoc_cold", *_READ),
    "query.checks_per_row": _on("adhoc_cold", *_READ),
    "query.created_objects_per_query": _on("adhoc_cold", *_READ),
    "query.incremental.apply_ms_per_delta":
        _on("stream_ingest", "throughput_ops_s", "latency_p50_ms"),
    # analysis
    "analysis.analyze_ms": _on("adhoc_cold", "latency_p50_ms",
                               "throughput_ops_s"),
    "analysis.warm_ms": _on("adhoc_cold", "latency_p50_ms"),
    # storage
    "storage.mutate_ms_per_record":
        _on("stream_ingest", "throughput_ops_s")
        + _on("write_recover", "latency_p50_ms", "throughput_ops_s"),
    "storage.snapshot_bytes":
        _on("write_recover", "stored_bytes_per_user_byte", "recovery_s"),
    # service: executor, cache, server wire / ServiceClient
    "service.cache.hit_ratio":
        _on("dashboard_routed", *_READ) + _on("adhoc_cold", *_READ),
    "service.cache.evictions": _on("adhoc_cold", "server_rss_mb"),
    "service.cache.hit_ms": _on("dashboard_routed", *_READ),
    "service.executor.miss_overhead_ms": _on("adhoc_cold", "latency_p50_ms"),
    "service.wire.roundtrip_ms": _on("dashboard_routed", *_READ),
    "service.wire.ping_ms": _on("dashboard_routed", *_READ),
    "service.wire.reply_bytes_per_query": _on("dashboard_routed", *_READ),
    "service.rejected_ratio": _on("dashboard_routed", "throughput_ops_s"),
    # cluster: router, replica_server
    "cluster.router.forward_ms": _on("dashboard_routed", *_READ),
    "cluster.router.replica_share":
        _on("dashboard_routed", "throughput_ops_s"),
    "cluster.router.fallbacks": _on("dashboard_routed", *_TAIL),
    "cluster.replica.token_wait_ms": _on("dashboard_routed", *_TAIL),
    "cluster.replica.lag_lsn_max": _on("dashboard_routed", *_TAIL),
    # durability: wal, snapshot, recovery
    "durability.wal.append_ms_per_commit":
        _on("write_recover", "latency_p50_ms", "throughput_ops_s")
        + _on("stream_ingest", "throughput_ops_s"),
    # The end-to-end primaries run the default fsync interval (see
    # workloads/write_recover.py), so a flush per append moves only the
    # two ungated per-layer numbers below.
    "durability.wal.fsync_ms_per_commit": [],
    "durability.wal.fsync_always_write_p50_ms": [],
    "durability.wal.records_per_commit":
        _on("write_recover", "latency_p50_ms", "recovery_s",
            "stored_bytes_per_user_byte"),
    "durability.wal.syncs_per_commit":
        _on("write_recover", "latency_p95_ms"),
    "durability.wal.bytes_per_user_byte":
        _on("write_recover", "stored_bytes_per_user_byte")
        + _on("stream_ingest", "stored_bytes_per_user_byte"),
    "durability.checkpoints": _on("write_recover", *_TAIL),
    "durability.checkpoint_ms":
        _on("write_recover", "latency_p95_ms", "throughput_ops_s"),
    "durability.checkpoint_stall_max_ms": _on("write_recover", *_TAIL),
    "durability.snapshot.load_ms": _on("write_recover", "recovery_s"),
    "durability.recover.replayed_records":
        _on("write_recover", "recovery_s"),
    "durability.recover.replay_ms_per_record":
        _on("write_recover", "recovery_s")
        + _on("stream_ingest", "recovery_s"),
    # stream: hub, views, standing, ingest
    "stream.hub.deltas": _on("stream_ingest", "throughput_ops_s"),
    "stream.maintain_ms_per_commit.k0":
        _on("stream_ingest", "throughput_ops_s"),
    "stream.maintain_ms_per_commit.k1":
        _on("stream_ingest", "throughput_ops_s"),
    "stream.maintain_ms_per_commit.k8":
        _on("stream_ingest", "throughput_ops_s", "latency_p50_ms"),
    "stream.maintain_ms_per_commit.k8_identical":
        _on("stream_ingest", "throughput_ops_s", "latency_p50_ms"),
    "stream.views.apply_delta_ms":
        _on("stream_ingest", "throughput_ops_s", "latency_p50_ms"),
    "stream.standing.feed_ms":
        _on("stream_ingest", "throughput_ops_s", "latency_p50_ms"),
    "stream.retract_ms": [],
    "stream.retract_vs_insert_ratio": [],
    "stream.queue_depth_max": _on("stream_ingest", *_TAIL),
    "stream.lag_events": _on("stream_ingest", *_TAIL),
    "stream.dropped_batches": _on("stream_ingest", *_TAIL),
    "stream.notify.server_ms_p50": _on("stream_ingest", "latency_p50_ms"),
    "stream.generator_lag_p95_ms": _on("stream_ingest", *_TAIL),
    "stream.notify_p95_ms.rate_lo": _on("stream_ingest", *_TAIL),
    "stream.notify_p95_ms.rate_hi": _on("stream_ingest", *_TAIL),
    "stream.max_rate_within_limit":
        _on("stream_ingest", "latency_p95_ms", "throughput_ops_s"),
    # obs
    "obs.traced_request_overhead_ms":
        _on("dashboard_routed", "latency_p50_ms"),
    # the benchmark's own bookkeeping
    "ladder.accounted_share": [],
    "ladder.span_overhead_ms": [],
    "e2e.latency_p50_ms": [],
    "e2e.latency_p99_ms": [],
    "e2e.failed_ops_ratio": [],
}
