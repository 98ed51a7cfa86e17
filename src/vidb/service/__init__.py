"""vidb.service — the concurrent query-serving layer.

Turns the single-caller library into a servable database:

* :mod:`vidb.service.executor` — queries evaluated on the caller's
  thread behind a readers–writer lock, with per-query deadlines,
  admission control and a bound on concurrent evaluations;
* :mod:`vidb.service.cache` — an LRU result cache keyed by
  ``(program version, query identity, constants, database epoch)``;
* :mod:`vidb.service.session` — client sessions with prepared,
  parameterized queries compiled once;
* :mod:`vidb.service.wire` — the one JSON-lines wire plane (codec, op
  table, serve loop, trace adoption, client channel) every role shares;
* :mod:`vidb.service.server` — the stdlib-only TCP server and client
  over it (``vidb serve`` / ``vidb client``);
* :mod:`vidb.service.top` — the ``vidb top`` live terminal view.

Metrics live in :mod:`vidb.obs.metrics`; the registry classes are
re-exported here because the executor hands one out.

Quickstart::

    from vidb.service import ServiceExecutor
    from vidb.workloads.paper import rope_database

    with ServiceExecutor(rope_database(), max_workers=4) as service:
        session = service.open_session()
        session.prepare("appears",
                        "?- interval(G), object(O), O in G.entities.",
                        params=["O"])
        answers = session.execute("appears", O="o1")   # compiled once
        answers = session.execute("appears", O="o1")   # served from cache
        print(service.snapshot()["cache.hits"])
"""

from vidb.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricFamily,
    MetricsRegistry,
    format_snapshot,
)
from vidb.service.cache import CacheKey, ResultCache
from vidb.service.executor import RWLock, ServiceExecutor
from vidb.service.server import ServiceClient, VideoServer
from vidb.service.session import PreparedQuery, Session
from vidb.service.top import render_top, top_loop

__all__ = [
    "CacheKey",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricFamily",
    "MetricsRegistry",
    "PreparedQuery",
    "RWLock",
    "ResultCache",
    "ServiceClient",
    "ServiceExecutor",
    "Session",
    "VideoServer",
    "format_snapshot",
    "render_top",
    "top_loop",
]
