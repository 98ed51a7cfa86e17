"""Cluster telemetry plane: federated metrics scraped by the router.

Every vidb process already serves a ``metrics`` wire op returning its
:meth:`~vidb.obs.metrics.MetricsRegistry.snapshot` — a flat JSON dict
whose labeled children appear under ``name{label=value,...}`` keys and
whose histograms appear as ``{count, sum, mean, min, max, p50, p95,
p99}`` dicts.  The :class:`~vidb.cluster.router.ClusterRouter`
periodically collects those snapshots from the primary and every
replica into a :class:`FleetAggregator`, which serves three views:

* :func:`render_fleet_exposition` — Prometheus text with every member
  series re-labeled ``{node="host:port", role="primary|replica"}``
  plus ``vidb_cluster_*`` rollup families (total reads served, max
  replica lag, total in-flight, subscription queue depths, nodes up).
  Federated series are exported as gauges: they are point-in-time
  copies of another process's state, and a failed scrape keeps the
  last-seen snapshot with ``vidb_cluster_node_up`` dropping to 0.
* :meth:`FleetAggregator.health` — the JSON summary behind the
  ``cluster_health`` wire op and ``vidb top --cluster``.
* :meth:`FleetAggregator.rollups` — the cluster-level aggregates both
  of the above share.

The aggregator is transport-agnostic (it never opens sockets); the
router's scrape loop feeds it, and tests feed it dicts directly.
"""

from __future__ import annotations

import re
import threading
import time
from typing import Any, Dict, List, Mapping, Optional, Tuple

from vidb.obs.exporter import _label_str, prom_name

__all__ = [
    "FleetAggregator",
    "NodeSnapshot",
    "render_fleet_exposition",
]

_LABELED_KEY = re.compile(r"^(?P<name>[^{]+)\{(?P<labels>.*)\}$")


class NodeSnapshot:
    """One member's last-seen metrics snapshot plus scrape health."""

    __slots__ = ("name", "role", "snapshot", "ok", "error", "scraped_at",
                 "scrapes", "failures")

    def __init__(self, name: str, role: str):
        self.name = name
        self.role = role
        self.snapshot: Dict[str, Any] = {}
        self.ok = False
        self.error: Optional[str] = None
        self.scraped_at: float = 0.0
        self.scrapes = 0
        self.failures = 0

    def as_dict(self) -> Dict[str, Any]:
        out: Dict[str, Any] = {
            "node": self.name,
            "role": self.role,
            "up": self.ok,
            "scraped_at": self.scraped_at,
        }
        if self.error is not None:
            out["error"] = self.error
        return out


def _num(value: Any, default: float = 0.0) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return default
    return float(value)


class FleetAggregator:
    """Last-seen member snapshots and the rollups derived from them."""

    def __init__(self) -> None:
        self._nodes: Dict[str, NodeSnapshot] = {}
        self._lock = threading.Lock()

    def update(self, name: str, role: str,
               snapshot: Mapping[str, Any]) -> None:
        """Record a successful scrape of one member."""
        with self._lock:
            node = self._nodes.get(name)
            if node is None:
                node = self._nodes[name] = NodeSnapshot(name, role)
            node.role = role
            node.snapshot = dict(snapshot)
            node.ok = True
            node.error = None
            node.scraped_at = time.time()
            node.scrapes += 1

    def mark_failed(self, name: str, role: str, error: str) -> None:
        """Record a failed scrape; the last snapshot is kept so lag and
        queue-depth series hold their final value while the node is
        down instead of vanishing."""
        with self._lock:
            node = self._nodes.get(name)
            if node is None:
                node = self._nodes[name] = NodeSnapshot(name, role)
            node.role = role
            node.ok = False
            node.error = error
            node.failures += 1

    def forget(self, name: str) -> None:
        with self._lock:
            self._nodes.pop(name, None)

    def nodes(self) -> List[NodeSnapshot]:
        with self._lock:
            return list(self._nodes.values())

    # -- derived views -----------------------------------------------------

    def rollups(self) -> Dict[str, Any]:
        """Cluster-level aggregates over every member's last snapshot."""
        nodes = self.nodes()
        rollup: Dict[str, Any] = {
            "nodes": len(nodes),
            "nodes_up": sum(1 for n in nodes if n.ok),
            "queries_served": 0,
            "queries_rejected": 0,
            "writes_applied": 0,
            "in_flight": 0,
            "max_replica_lag": 0,
            "subscriptions": 0,
            "subscription_queue_depth": 0,
            "head_lsn": 0,
        }
        for node in nodes:
            snap = node.snapshot
            rollup["queries_served"] += int(_num(snap.get("queries.served")))
            rollup["queries_rejected"] += int(_num(snap.get("queries.rejected")))
            rollup["writes_applied"] += int(_num(snap.get("writes.applied")))
            rollup["in_flight"] += int(_num(snap.get("in_flight")))
            rollup["subscriptions"] += int(_num(snap.get("stream.subscriptions")))
            rollup["subscription_queue_depth"] += int(
                _num(snap.get("stream.queue_depth")))
            lag = int(_num(snap.get("replica.lag")))
            rollup["max_replica_lag"] = max(rollup["max_replica_lag"], lag)
            head = int(max(_num(snap.get("wal.last_lsn")),
                           _num(snap.get("replica.applied_lsn"))))
            rollup["head_lsn"] = max(rollup["head_lsn"], head)
        return rollup

    def summarize_node(self, node: NodeSnapshot) -> Dict[str, Any]:
        """The per-node row ``cluster_health`` and ``vidb top --cluster``
        show: serving counters, lag, streaming depth, position."""
        snap = node.snapshot
        row = node.as_dict()
        latency = snap.get("queries.latency_seconds")
        row.update({
            "served": int(_num(snap.get("queries.served"))),
            "in_flight": int(_num(snap.get("in_flight"))),
            "epoch": int(_num(snap.get("epoch"))),
            "lag": int(_num(snap.get("replica.lag"))),
            "lsn": int(max(_num(snap.get("wal.last_lsn")),
                           _num(snap.get("replica.applied_lsn")))),
            "subscriptions": int(_num(snap.get("stream.subscriptions"))),
            "queue_depth": int(_num(snap.get("stream.queue_depth"))),
        })
        if isinstance(latency, Mapping) and latency.get("count"):
            row["p95_ms"] = round(_num(latency.get("p95")) * 1000, 3)
        return row

    def health(self) -> Dict[str, Any]:
        """The ``cluster_health`` summary: per-node rows + rollups."""
        nodes = self.nodes()
        return {
            "nodes": [self.summarize_node(n) for n in nodes],
            "rollups": self.rollups(),
            "time": time.time(),
        }


def _parse_snapshot_key(key: str) -> Tuple[str, Dict[str, str]]:
    """``requests_total{op=query,outcome=ok}`` → name + label dict."""
    match = _LABELED_KEY.match(key)
    if match is None:
        return key, {}
    labels: Dict[str, str] = {}
    body = match.group("labels")
    if body:
        for pair in body.split(","):
            name, _, value = pair.partition("=")
            labels[name.strip()] = value.strip()
    return match.group("name"), labels


def render_fleet_exposition(fleet: FleetAggregator,
                            prefix: str = "vidb_") -> str:
    """Prometheus text for the whole fleet, per-node labeled.

    Series are grouped by metric name (one ``# TYPE`` block per name,
    as the text format requires) with each member's sample labeled
    ``{node=..., role=...}``.  Histogram snapshots flatten to
    ``<name>_count`` / ``<name>_sum`` / ``<name>_p50|p95|p99`` gauges —
    the member already reduced its buckets to quantiles, so the
    aggregated view re-exports the digest rather than inventing
    buckets.  Cluster rollups land under ``<prefix>cluster_*``.
    """
    series: Dict[str, List[Tuple[Dict[str, str], float]]] = {}

    def add(name: str, labels: Dict[str, str], value: float) -> None:
        series.setdefault(name, []).append((labels, value))

    nodes = fleet.nodes()
    for node in nodes:
        base_labels = {"node": node.name, "role": node.role}
        add(prefix + "cluster_node_up", dict(base_labels),
            1.0 if node.ok else 0.0)
        if node.scraped_at:
            add(prefix + "cluster_node_scrape_age_seconds", dict(base_labels),
                max(0.0, time.time() - node.scraped_at))
        for key, value in node.snapshot.items():
            name, extra = _parse_snapshot_key(key)
            metric = prefix + prom_name(name, prefix="")
            labels = dict(base_labels)
            labels.update(extra)
            if isinstance(value, Mapping):
                for sub in ("count", "sum", "p50", "p95", "p99"):
                    sub_value = value.get(sub)
                    if isinstance(sub_value, (int, float)):
                        add(f"{metric}_{sub}", dict(labels), float(sub_value))
            elif isinstance(value, (int, float)) and not isinstance(value, bool):
                add(metric, labels, float(value))
    for key, value in fleet.rollups().items():
        add(prefix + "cluster_" + prom_name(key, prefix=""), {}, float(value))

    lines: List[str] = []
    for name in sorted(series):
        lines.append(f"# TYPE {name} gauge")
        for labels, value in series[name]:
            label_text = _label_str(labels)
            if value == int(value):
                lines.append(f"{name}{label_text} {int(value)}")
            else:
                lines.append(f"{name}{label_text} {value}")
    return "\n".join(lines) + "\n" if lines else ""
