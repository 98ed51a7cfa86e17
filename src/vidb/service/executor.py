"""The concurrent query executor: RW lock + cache + admission + slots.

This is the heart of the serving layer.  One :class:`ServiceExecutor`
wraps one :class:`~vidb.storage.database.VideoDatabase` and one shared
:class:`~vidb.query.engine.QueryEngine` program, and provides:

* **Concurrency** — a query runs on the thread that asked for it (a
  server's connection thread), in one of ``max_workers`` evaluation
  slots; a readers–writer lock lets any number of queries read the
  database simultaneously while mutations get exclusive access.  Writer
  preference keeps a steady query stream from starving updates.
* **Result caching** — each query is parsed and lifted once
  (:func:`vidb.query.shape.lift`) and its answers are cached under
  ``(engine program version, identity, constants, epoch)``: any change
  to the engine's program or computed predicates bumps the version, any
  mutation bumps the epoch, so hits are always consistent with the
  rules and data they were computed from (see
  :mod:`vidb.service.cache`).  A miss hands the lifted query to the
  engine, which does not parse or lift it again.
* **Admission control** — at most ``max_in_flight`` queries may be
  waiting for a slot or running; beyond that, a query fails
  *immediately* with :class:`~vidb.errors.ServiceOverloadedError` so
  clients shed load instead of piling onto an unbounded queue.
* **Deadlines** — a per-query timeout is converted to a monotonic
  deadline on arrival.  It bounds the wait for a slot and is checked
  again after evaluation; evaluation itself is not preempted
  (cooperative cancellation), so a timeout bounds *slot wait plus one
  evaluation*, not CPU time mid-evaluation.
* **Metrics** — every outcome (served, hit, miss, timeout, rejection,
  error) is counted (plain counters plus the labeled
  ``queries_total{outcome=}`` family) and latencies are recorded in a
  histogram; pull-time values (cache occupancy, live sessions, in-flight
  queries, WAL/replica state) are registered as callback gauges, so
  :meth:`ServiceExecutor.snapshot` and the Prometheus exporter
  (:mod:`vidb.obs.exporter`) read one consistent registry.
* **Events** — slow queries (above ``slow_query_ms``) and admission
  rejections are emitted as structured events into an
  :class:`~vidb.obs.events.EventLog` (the server's ``events`` op and
  ``vidb top`` read them).
* **Following** — over a :class:`~vidb.durability.replica.Replica`
  the executor is a serving read replica: read-only, stepping the
  follower (fetch outside the writer lock, apply inside it) on
  request or on a background thread, and :meth:`ServiceExecutor.promote`
  flips it to a writable primary in place.
* **Tracing** — a query asked under an enabled ambient tracer (a
  sampled request, see :mod:`vidb.obs.trace`) records into it:
  ``service.queue_wait`` (the slot wait), ``service.lock_wait`` and
  ``service.cache`` (``outcome=hit|miss``) spans, then on a miss the
  engine's ``query.execute`` tree, all nest under the caller's open
  span.  Sampling does not change execution: a sampled query takes the
  cache like any other.  Only ``ExecutionOptions(trace=True)`` (EXPLAIN
  ANALYZE) skips the cache read — a hit has nothing to profile.
"""

from __future__ import annotations

import contextlib
import threading
import time
from hashlib import sha256
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Union

from vidb.analysis.diagnostics import AnalysisResult
from vidb.analysis.lint import lint_text
from vidb.durability.durable import DurableDatabase, reroot
from vidb.durability.replica import SOURCE_ERRORS, Replica
from vidb.errors import (
    ClusterError,
    QueryTimeoutError,
    ReadOnlyError,
    ServiceClosedError,
    ServiceOverloadedError,
)
from vidb.obs.events import EventLog, get_event_log
from vidb.obs.metrics import MetricsRegistry
from vidb.obs.trace import FlightRecorder, current_tracer
from vidb.query.ast import Query
from vidb.query.engine import AnswerSet, QueryEngine
from vidb.query.execution import ExecutionOptions, ExecutionReport
from vidb.query.shape import Lifted, lift
from vidb.service.cache import ResultCache
from vidb.service.session import Session
from vidb.storage.database import VideoDatabase
from vidb.stream.hub import StreamHub
from vidb.stream.standing import Subscription, SubscriptionManager


class RWLock:
    """A readers–writer lock with writer preference.

    Any number of readers may hold the lock together; a writer waits for
    them to drain and then holds it exclusively.  Arriving readers queue
    behind a waiting writer, so writers cannot starve.  Not reentrant.
    """

    def __init__(self) -> None:
        self._cond = threading.Condition()
        self._readers = 0
        self._writer = False
        self._waiting_writers = 0

    def acquire_read(self) -> None:
        with self._cond:
            while self._writer or self._waiting_writers:
                self._cond.wait()
            self._readers += 1

    def release_read(self) -> None:
        with self._cond:
            self._readers -= 1
            if self._readers == 0:
                self._cond.notify_all()

    def acquire_write(self) -> None:
        with self._cond:
            self._waiting_writers += 1
            try:
                while self._writer or self._readers:
                    self._cond.wait()
            finally:
                self._waiting_writers -= 1
            self._writer = True

    def release_write(self) -> None:
        with self._cond:
            self._writer = False
            self._cond.notify_all()

    @contextlib.contextmanager
    def read_locked(self):
        self.acquire_read()
        try:
            yield
        finally:
            self.release_read()

    @contextlib.contextmanager
    def write_locked(self):
        self.acquire_write()
        try:
            yield
        finally:
            self.release_write()


def _relabel(cached: AnswerSet, query: Query) -> AnswerSet:
    """A cached answer set under the caller's own variable names.

    Queries that differ only in variable names share one cache entry;
    the entry carries the variable names of whichever query populated
    it, so a hit from a renamed variant rebinds the columns (the rows
    are shared).
    """
    names = tuple(v.name for v in query.answer_variables)
    if tuple(cached.variables) == names:
        return cached
    return AnswerSet(names, cached.rows(), cached.stats)


class ServiceExecutor:
    """Concurrent, cached, admission-controlled access to one database.

    Accepts a bare :class:`VideoDatabase`, a
    :class:`~vidb.durability.DurableDatabase` or a
    :class:`~vidb.durability.Replica`; a durable database or a replica
    is unwrapped for the query path (queries read the live in-memory
    state), while its WAL/snapshot or replication counters join the
    metrics snapshot.  Mutations — which already run under the write
    lock, inside a transaction — are journaled by the durable wrapper's
    observer; over a replica the executor is read-only and applies only
    what it follows (:meth:`replicate`).
    """

    def __init__(self, db: Union[VideoDatabase, DurableDatabase, Replica],
                 rules: Optional[str] = None,
                 use_stdlib_rules: bool = False,
                 *,
                 max_workers: int = 4,
                 max_in_flight: Optional[int] = None,
                 cache_capacity: int = 256,
                 default_timeout: Optional[float] = None,
                 metrics: Optional[MetricsRegistry] = None,
                 engine_options: Optional[Dict[str, Any]] = None,
                 slow_query_ms: Optional[float] = None,
                 event_log: Optional[EventLog] = None,
                 read_only: bool = False,
                 lsn_wait_s: float = 2.0,
                 poll_interval_s: float = 0.2,
                 promote_data_dir: Optional[Union[str, Path]] = None,
                 streaming: bool = True,
                 max_subscriptions: int = 64,
                 subscription_queue: int = 256,
                 trace_sample: float = 0.0,
                 trace_capacity: int = 256,
                 trace_sink: Optional[str] = None):
        self.durability: Optional[DurableDatabase] = None
        #: When serving a log-shipping replica, the follower whose
        #: database this executor reads; its ``applied_lsn`` drives the
        #: session-consistency wait and the lag gauges.  ``None`` once
        #: :meth:`promote` made this process the primary.
        self.replica: Optional[Replica] = None
        if isinstance(db, DurableDatabase):
            self.durability = db
            db = db.db
        elif isinstance(db, Replica):
            self.replica = db
            db = db.db
            read_only = True
        self.db = db
        #: A read-only executor rejects every mutation with
        #: :class:`ReadOnlyError` — always the case over a replica.
        self.read_only = read_only
        #: Default bounded wait for LSN-token reads (seconds); a replica
        #: holds a read this long for ``applied_lsn`` to reach the
        #: client's token before failing with ``ReplicaLagError``.
        self.lsn_wait_s = max(0.0, lsn_wait_s)
        self._lsn_cond = threading.Condition()
        #: Seconds between follow steps of :meth:`start_following`.
        self.poll_interval_s = max(0.01, poll_interval_s)
        #: Where :meth:`promote` roots the new primary generation when
        #: the caller names no directory.
        self.promote_data_dir = (Path(promote_data_dir)
                                 if promote_data_dir is not None else None)
        #: Serializes follow steps (the background follower, a step by
        #: hand, promotion's drain) over the follower's source state.
        self._follow_lock = threading.RLock()
        self._stop_following = threading.Event()
        self._follower: Optional[threading.Thread] = None
        self.metrics = metrics or MetricsRegistry()
        for name in ("queries.served", "queries.rejected", "queries.timeout",
                     "queries.errors", "writes.applied", "sessions.opened"):
            self.metrics.counter(name)  # stable snapshot shape from birth
        self._outcomes = self.metrics.counter_family("queries_total",
                                                     ("outcome",))
        self.events = event_log if event_log is not None else get_event_log()
        #: Threshold in seconds above which a query emits a structured
        #: ``slow_query`` event (None = disabled; the hot-path cost of
        #: the disabled state is one float comparison).
        self.slow_query_s = (None if slow_query_ms is None
                             else max(0.0, slow_query_ms) / 1000.0)
        #: Distributed-tracing segment ring (see :mod:`vidb.obs.trace`):
        #: head-samples requests without an incoming context at
        #: ``trace_sample``, always honors a sampled incoming context,
        #: and retains slow-over-threshold and errored requests even
        #: when unsampled.
        self.flight_recorder = FlightRecorder(
            capacity=trace_capacity, sample_rate=trace_sample,
            slow_threshold_s=self.slow_query_s, sink=trace_sink)
        self.default_timeout = default_timeout
        self.max_in_flight = (max_workers * 4 if max_in_flight is None
                              else max_in_flight)
        #: Kept so a replica resync (which replaces the follower's whole
        #: database object) can rebuild the engine against the new one.
        self._engine_options = dict(engine_options or {})
        self._engine = QueryEngine(db, rules=rules,
                                   use_stdlib_rules=use_stdlib_rules,
                                   **self._engine_options)
        self._cache = ResultCache(cache_capacity, metrics=self.metrics)
        self._lock = RWLock()
        if max_workers < 1:
            raise ValueError("max_workers must be greater than 0")
        if self.max_in_flight < 1:
            raise ValueError("max_in_flight must be greater than 0")
        #: At most ``max_workers`` queries evaluate at once; the rest of
        #: the ``max_in_flight`` admitted wait here, bounded by their
        #: deadlines.  A query takes its slot before the read lock, so a
        #: waiting query never holds the lock a writer waits for.
        self._slots = threading.BoundedSemaphore(max_workers)
        #: Guards ``_in_flight`` and ``_closed``; :meth:`close` waits on
        #: it for the admitted queries to drain.
        self._admission = threading.Condition(threading.Lock())
        self._in_flight = 0
        self._sessions: Dict[str, Session] = {}
        self._sessions_lock = threading.Lock()
        self._closed = False
        #: The streaming layer (see :mod:`vidb.stream`): a hub turning
        #: mutation-observer events into committed deltas, and the
        #: standing-query subscriptions it feeds.  ``streaming=False``
        #: turns the whole layer off (no observer is attached;
        #: ``subscribe`` raises).
        self.stream_hub: Optional[StreamHub] = None
        self.subscriptions: Optional[SubscriptionManager] = None
        if streaming:
            self.stream_hub = StreamHub(self.db)
            notifications = self.metrics.counter_family(
                "stream_notifications_total", ("subscription",))
            notified_rows = self.metrics.counter_family(
                "stream_notified_rows_total", ("subscription",))
            notify_latency = self.metrics.histogram_family(
                "stream_notify_latency_seconds", ("subscription",),
                buckets=(0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05,
                         0.1, 0.25, 0.5, 1.0, 2.5))

            def _on_notify(sub: Subscription, batch: Dict[str, Any]) -> None:
                self.metrics.inc("stream.notifications")
                notifications.labels(subscription=sub.id).inc()
                notified_rows.labels(subscription=sub.id).inc(batch["count"])
                latency_ms = batch.get("latency_ms")
                if isinstance(latency_ms, (int, float)):
                    notify_latency.labels(subscription=sub.id).observe(
                        latency_ms / 1000.0)

            self.subscriptions = SubscriptionManager(
                self.stream_hub,
                max_subscriptions=max_subscriptions,
                default_max_queue=subscription_queue,
                on_notify=_on_notify,
                event_log=self.events)
            self.metrics.counter("stream.notifications")
        self._register_gauges()

    def _register_gauges(self) -> None:
        """Pull-time state as callback gauges, read at snapshot/scrape
        time so the registry is the single source for the JSON
        ``metrics`` op and the Prometheus exporter alike."""
        reg = self.metrics
        reg.callback_gauge("cache.size", lambda: len(self._cache))
        reg.callback_gauge("cache.capacity", lambda: self._cache.capacity)
        reg.callback_gauge("epoch", lambda: self.db.epoch)
        reg.callback_gauge("in_flight", lambda: self._in_flight)
        reg.callback_gauge("max_in_flight", lambda: self.max_in_flight)
        reg.callback_gauge("sessions.open", self.session_count)
        # The engine's compiled query shapes (see vidb.query.shape); a
        # replica resync rebuilds the engine, so read the current one.
        reg.callback_gauge("shapes.hits", lambda: self._engine.shapes.hits)
        reg.callback_gauge("shapes.misses",
                           lambda: self._engine.shapes.misses)
        reg.callback_gauge("shapes.size", lambda: len(self._engine.shapes))
        # Active constraint kernel: name as an info-style labeled gauge
        # plus the backend's own cache counters (hit/miss/sizing).
        kernel_info = reg.gauge_family("kernel_info", ("kernel",))
        kernel_info.labels(kernel=self._engine.kernel.name).set(1)
        for key in self._engine.kernel.counters():
            reg.callback_gauge(
                f"kernel.{key}",
                lambda k=key: self._engine.kernel.counters().get(k, 0))
        if self.subscriptions is not None:
            subs = self.subscriptions
            hub = self.stream_hub
            assert hub is not None
            reg.callback_gauge("stream.subscriptions", subs.count)
            reg.callback_gauge("stream.max_subscriptions",
                               lambda: subs.max_subscriptions)
            reg.callback_gauge("stream.queue_depth", subs.total_queue_depth)
            reg.callback_gauge("stream.lag_events", subs.total_lag_events)
            reg.callback_gauge("stream.deltas",
                               lambda: hub.deltas_delivered)
            reg.counter("stream.aborted_segments")
        if self.durability is not None:
            durability = self.durability
            for key in durability.stats():
                reg.callback_gauge(
                    key, lambda k=key: durability.stats()[k])
        if self.replica is not None:
            replica = self.replica
            for key in replica.stats():
                reg.callback_gauge(
                    key, lambda k=key: replica.stats()[k])
        recorder = self.flight_recorder
        reg.callback_gauge("trace.recorded", lambda: recorder.recorded)
        reg.callback_gauge("trace.depth", lambda: len(recorder))

    # -- program management --------------------------------------------------
    @property
    def engine(self) -> QueryEngine:
        """The shared engine.  Mutate it via :meth:`add_rules` /
        :meth:`register_computed` (they take the write lock); either way
        the engine's program version moves, so no cached answer of the
        old program is served."""
        return self._engine

    def add_rules(self, rules) -> "ServiceExecutor":
        with self._lock.write_locked():
            self._engine.add_rules(rules)
        return self

    def register_computed(self, name: str, arity: int,
                          fn) -> "ServiceExecutor":
        with self._lock.write_locked():
            self._engine.register_computed(name, arity, fn)
        return self

    # -- query path ----------------------------------------------------------
    def execute_report(self, query: Union[str, Query],
                       options: Optional[ExecutionOptions] = None,
                       timeout: Optional[float] = None) -> ExecutionReport:
        """Evaluate a query on the calling thread; the one query path.

        In order: admission (:class:`ServiceOverloadedError` at once
        when ``max_in_flight`` queries are already waiting or running),
        a wait for one of ``max_workers`` evaluation slots, then the
        cached evaluation.  The deadline is ``timeout``, else
        ``options.timeout_s``, else the service default; it bounds the
        slot wait plus evaluation, and the fixpoint additionally checks
        it cooperatively at every iteration boundary.  An enabled
        ambient tracer records the run under the caller's open span.
        """
        options = options or ExecutionOptions()
        if timeout is None:
            timeout = (options.timeout_s if options.timeout_s is not None
                       else self.default_timeout)
        with self._admission:
            if self._closed:
                raise ServiceClosedError("executor is shut down")
            if self._in_flight >= self.max_in_flight:
                self.metrics.inc("queries.rejected")
                self._outcomes.labels(outcome="rejected").inc()
                self.events.emit("admission.reject",
                                 in_flight=self._in_flight,
                                 limit=self.max_in_flight)
                raise ServiceOverloadedError(
                    f"{self._in_flight} queries in flight "
                    f"(limit {self.max_in_flight}); retry with backoff")
            self._in_flight += 1
        try:
            deadline = (time.monotonic() + timeout) if timeout else None
            tracer = current_tracer()
            with tracer.span("service.queue_wait"):
                slot = self._slots.acquire(
                    timeout=None if deadline is None
                    else max(0.0, deadline - time.monotonic()))
            try:
                if not slot or (deadline is not None
                                and time.monotonic() > deadline):
                    self._count_timeout()
                    raise QueryTimeoutError("deadline expired while queued")
                return self._serve(query, deadline, options, tracer)
            finally:
                if slot:
                    self._slots.release()
        finally:
            with self._admission:
                self._in_flight -= 1
                if self._closed and not self._in_flight:
                    self._admission.notify_all()

    def execute(self, query: Union[str, Query],
                timeout: Optional[float] = None,
                options: Optional[ExecutionOptions] = None) -> AnswerSet:
        """:meth:`execute_report`, answers only."""
        return self.execute_report(query, options=options,
                                   timeout=timeout).answers

    def _count_timeout(self) -> None:
        self.metrics.inc("queries.timeout")
        self._outcomes.labels(outcome="timeout").inc()

    def _serve(self, query: Union[str, Query], deadline: Optional[float],
               options: ExecutionOptions, tracer: Any) -> ExecutionReport:
        started = time.perf_counter()
        try:
            lifted = lift(query)
            parsed = time.perf_counter() - started
            with tracer.span("service.lock_wait"):
                self._lock.acquire_read()
            try:
                key = self._cache.make_key(
                    self._engine.program_version, lifted.identity,
                    lifted.constants, self.db.epoch)
                cached = None
                # A profiled run skips the cache read (a hit has nothing
                # to profile) but still populates it for later queries.
                if not options.trace:
                    with tracer.span("service.cache") as span:
                        cached = self._cache.get(key)
                        span.annotate(
                            outcome="miss" if cached is None else "hit")
                if cached is None:
                    remaining = (max(0.0, deadline - time.monotonic())
                                 if deadline is not None else None)
                    report = self._engine.execute(
                        lifted, options.merged(timeout_s=remaining))
                    # The report covers the parse and lift done above.
                    report.stats.stages["parse"] += parsed
                    report.stats.elapsed_s += parsed
                    self._cache.put(key, report.answers)
                else:
                    answers = _relabel(cached, lifted.source)
                    report = ExecutionReport(
                        answers=answers, stats=cached.stats,
                        options=options, cached=True)
            finally:
                self._lock.release_read()
        except QueryTimeoutError:
            self._count_timeout()
            raise
        except Exception:
            self.metrics.inc("queries.errors")
            self._outcomes.labels(outcome="error").inc()
            raise
        elapsed = time.perf_counter() - started
        if deadline is not None and time.monotonic() > deadline:
            # The answer is valid and cached, but this caller asked for
            # it by a time that has passed; report the miss honestly.
            self._count_timeout()
            raise QueryTimeoutError(
                f"evaluation finished {elapsed:.3f}s in, past the deadline")
        self.metrics.inc("queries.served")
        self._outcomes.labels(outcome="served").inc()
        self.metrics.observe("queries.latency_seconds", elapsed)
        if self.slow_query_s is not None and elapsed >= self.slow_query_s:
            self._note_slow(query, lifted, report, elapsed)
        return report

    def _note_slow(self, query: Union[str, Query], lifted: Lifted,
                   report: ExecutionReport, elapsed: float) -> None:
        stats = report.stats
        self.events.emit(
            "slow_query",
            fingerprint=sha256(
                repr(lifted.identity).encode("utf-8")).hexdigest(),
            query=query if isinstance(query, str) else repr(query),
            elapsed_ms=round(elapsed * 1000.0, 3),
            rows=len(report.answers),
            cached=report.cached,
            iterations=stats.iterations,
            derived_facts=stats.derived_facts,
            stages={name: round(seconds * 1000.0, 3)
                    for name, seconds in stats.stages.items()})

    # -- linting -------------------------------------------------------------
    def lint(self, text: str) -> AnalysisResult:
        """Statically analyze a rule/query document against this service.

        The document is analyzed, not installed.  The service's database
        relations, computed predicates and already-installed rule heads
        all count as defined (closed world), so a clean result means the
        document would also load cleanly via :meth:`add_rules`.
        """
        with self._lock.read_locked():
            extra = {rule.head.predicate: rule.head.arity
                     for rule in self._engine.program.rules}
            computed = {name: arity for name, (arity, _)
                        in self._engine.computed.items()}
            edb = self.db.relation_names()
        return lint_text(text, edb=edb, computed=computed, extra=extra,
                         closed_world=True)

    # -- replication / session consistency -----------------------------------
    def applied_lsn(self) -> Optional[int]:
        """The LSN this server's state covers: the replica's applied
        LSN, the primary's WAL head, or ``None`` when LSN tokens are
        meaningless here (a plain in-memory service)."""
        replica = self.replica  # promotion may clear it meanwhile
        if replica is not None:
            return replica.applied_lsn
        if self.durability is not None:
            return self.durability.last_lsn
        return None

    def wait_for_lsn(self, lsn: Optional[int],
                     timeout_s: Optional[float] = None) -> bool:
        """Block (bounded) until this server's state covers *lsn*.

        The read-your-writes wait: a client that wrote at LSN *n* on
        the primary sends ``min_lsn = n`` with its reads, and a replica
        holds the read until replication catches up — or reports
        ``False`` so the caller can redirect to the primary.
        """
        if not lsn or lsn <= 0:
            return True
        timeout = self.lsn_wait_s if timeout_s is None else max(0.0, timeout_s)
        deadline = time.monotonic() + timeout
        with self._lsn_cond:
            while True:
                applied = self.applied_lsn()
                if applied is None:
                    return True
                if applied >= lsn:
                    return True
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    return False
                # Short slices double as a poll for states that advance
                # without a notify (the primary's own WAL head).
                self._lsn_cond.wait(min(remaining, 0.05))

    def _notify_applied(self) -> None:
        """Wake LSN-token waiters after replication applied records."""
        with self._lsn_cond:
            self._lsn_cond.notify_all()

    # -- following a primary -------------------------------------------------
    def replicate(self) -> int:
        """One follow step of a serving replica; returns mutations applied.

        The fetch — a network pull, or a whole snapshot when an LSN gap
        needs a resync — runs outside the writer lock, so reads keep
        being served meanwhile; only the apply and, after a resync, the
        engine rebind take it.  A no-op once :meth:`promote` ran.
        """
        with self._follow_lock:
            replica = self.replica
            if replica is None:
                return 0
            batch = replica.fetch()
            if not batch.records and batch.resync_db is None:
                # Nothing to apply; only the visibility watermark moves
                # (position bookkeeping has its own lock).
                return replica.ingest(batch)
            with self._lock.write_locked():
                if self.replica is not replica:
                    return 0  # promoted while this step fetched: drop it
                applied = replica.ingest(batch)
                if replica.db is not self.db:
                    self._rebind_locked(replica.db)
        self._notify_applied()
        return applied

    def start_following(self) -> "ServiceExecutor":
        """Step :meth:`replicate` on a background thread, in the loop of
        :meth:`Replica.follow` (every ``poll_interval_s``, backing off
        while the source is down), until :meth:`close` or
        :meth:`promote`."""
        assert self.replica is not None, "only a replica follows"
        self._follower = threading.Thread(
            target=self.replica.follow,
            args=(self._stop_following, self.poll_interval_s,
                  self.replicate),
            name="vidb-replica-follow", daemon=True)
        self._follower.start()
        return self

    def _rebind_locked(self, db: VideoDatabase) -> None:
        """Serve *db* from now on (caller holds the write lock).

        A resync replaces the replica's whole database object, so the
        engine (bound at construction) is rebuilt over the same program
        and the cache dropped — the epoch of a different object means
        nothing to the old entries.
        """
        computed = dict(self._engine.computed)
        engine = QueryEngine(db, **self._engine_options)
        engine.computed = computed
        engine.add_rules(self._engine.program)
        self.db = db
        self._engine = engine
        self._cache.clear()
        if self.stream_hub is not None:
            # A resync replaced the whole database object: follow it and
            # rebuild every fed state against the new object (standing
            # query views snapshot a database that no longer exists).
            self.stream_hub.rebind(db)
            if self.subscriptions is not None:
                self.subscriptions.rebind(self._engine)

    def promote(self, data_dir: Optional[Union[str, Path]] = None
                ) -> Dict[str, Any]:
        """Take over as primary in place; returns the promotion details.

        The sequence (``docs/CLUSTER.md`` has the runbook):

        1. drain: one last follow step picks up any committed tail still
           reachable — skipped when the last step failed (the primary is
           gone) or a background step is mid-fetch (it is the drain: it
           lands before the flip or is dropped), so a hung primary
           cannot hold promotion up;
        2. fence the old primary's data directory when this replica
           tails it through the filesystem, and root a new durable
           generation in *data_dir* (default ``promote_data_dir``) whose
           LSNs continue at ``applied_lsn + 1``
           (:func:`~vidb.durability.durable.reroot`);
        3. flip: writes accepted and journaled, the follower told to
           stop (:meth:`close` joins it).

        Steps 2–3 hold the writer lock, so a concurrent read sees either
        the replica or the finished primary.
        """
        replica = self.replica
        if replica is None:
            raise ClusterError(
                "this server is not a promotable replica "
                "(start it with 'vidb replicate --serve-port')")
        target = data_dir if data_dir is not None else self.promote_data_dir
        if target is None:
            raise ClusterError(
                "promotion needs a data directory for the new "
                "primary generation (data_dir)")
        drained = 0
        if replica.source_up and self._follow_lock.acquire(blocking=False):
            try:
                drained = self.replicate()
            except SOURCE_ERRORS:
                pass  # the primary is gone; promote what we have
            finally:
                self._follow_lock.release()
        with self._lock.write_locked():
            if self.replica is not replica:
                raise ClusterError("this server was already promoted")
            durable, details = reroot(
                self.db, replica.applied_lsn, target,
                old_dir=replica.primary_dir, event_log=self.events,
                drained=drained)
            if durable.db is not self.db:
                self._rebind_locked(durable.db)
            self.durability = durable
            self.replica = None
            self.read_only = False
        self._stop_following.set()
        for key in durable.stats():
            self.metrics.callback_gauge(
                key, lambda k=key: durable.stats()[k])
        self._notify_applied()
        return details

    # -- mutation path -------------------------------------------------------
    def mutate(self, fn: Callable[[VideoDatabase], Any]) -> Any:
        """Run ``fn(db)`` with exclusive (writer) access.

        ``fn`` runs inside an undo-log transaction: if it raises, every
        mutation it made is rolled back (and the epoch restored) before
        the exception propagates, and ``stream.aborted_segments``
        counts the rollback.
        """
        if self.read_only:
            raise ReadOnlyError(
                "this server is a read-only replica; "
                "send writes to the primary")
        with self._lock.write_locked():
            before = frozenset(self.db.relation_names())
            with self.db.transaction():
                try:
                    result = fn(self.db)
                except BaseException:
                    if self.stream_hub is not None:
                        self.metrics.inc("stream.aborted_segments")
                    raise
            if frozenset(self.db.relation_names()) != before:
                # The EDB schema changed (declare_relation, first fact of
                # a new relation, ...): drop the cached analysis so the
                # closed-world undefined-predicate verdicts — and the
                # cost estimates built on the old relation set — are
                # recomputed against the new schema.
                self._engine.invalidate_analysis()
        self.metrics.inc("writes.applied")
        return result

    # -- standing queries ----------------------------------------------------
    def subscribe(self, query: Union[str, Query], *,
                  filter: Optional[Dict[str, Any]] = None,
                  max_queue: Optional[int] = None,
                  session_id: Optional[str] = None,
                  detached: bool = False) -> Subscription:
        """Register a standing query (see :mod:`vidb.stream`).

        Runs under the read lock: writers are excluded while the
        subscription's view snapshots the database and activates, so
        its first notification is exactly the first commit after
        registration — nothing missed, nothing double-counted.
        """
        manager = self._require_streaming()
        with self._lock.read_locked():
            return manager.subscribe(
                query, self._engine, filter=filter, max_queue=max_queue,
                session_id=session_id, detached=detached)

    def unsubscribe(self, sub_id: str) -> bool:
        manager = self._require_streaming()
        return manager.unsubscribe(sub_id)

    def subscription(self, sub_id: str) -> Subscription:
        return self._require_streaming().get(sub_id)

    def describe_subscriptions(self) -> List[Dict[str, Any]]:
        if self.subscriptions is None:
            return []
        return self.subscriptions.describe()

    def _require_streaming(self) -> SubscriptionManager:
        if self.subscriptions is None:
            from vidb.errors import ServiceError

            raise ServiceError(
                "streaming is disabled on this server "
                "(started with streaming=False)")
        return self.subscriptions

    def apply_batch(self, fn: Callable[[VideoDatabase], int]) -> int:
        """Apply a multi-record batch atomically: one write-lock hold,
        one transaction, one committed delta on the mutation stream —
        so standing queries notify once per batch.  ``fn`` returns the
        number of records it applied; any failure rolls the whole batch
        back (subscribers see nothing from it)."""
        return self.mutate(fn)

    # -- sessions ------------------------------------------------------------
    def open_session(self) -> Session:
        if self._closed:
            raise ServiceClosedError("executor is shut down")
        session = Session(self)
        with self._sessions_lock:
            self._sessions[session.id] = session
        self.metrics.inc("sessions.opened")
        return session

    def _forget_session(self, session: Session) -> None:
        with self._sessions_lock:
            self._sessions.pop(session.id, None)

    def session_count(self) -> int:
        with self._sessions_lock:
            return len(self._sessions)

    def node_identity(self) -> Dict[str, Any]:
        """This process's identity as stamped onto trace segments:
        role (primary / replica / standalone), durable generation and
        current LSN position.  Derived live, so a promotion flips the
        role and generation of every segment recorded afterwards."""
        if self.replica is not None:
            role = "replica"
        elif self.durability is not None:
            role = "primary"
        else:
            role = "standalone"
        node: Dict[str, Any] = {"role": role}
        if self.durability is not None:
            node["generation"] = self.durability.generation
        lsn = self.applied_lsn()
        if lsn is not None:
            node["lsn"] = lsn
        return node

    # -- introspection / lifecycle -------------------------------------------
    def snapshot(self) -> Dict[str, Any]:
        """Metrics + cache + load state as one JSON-serializable dict.

        Cache occupancy, session count, in-flight load, the epoch and
        (when durable) WAL/snapshot/replica state are all registered as
        callback gauges, so the registry snapshot is complete on its
        own — the Prometheus exporter serves the same series.
        """
        return self.metrics.snapshot()

    def recent_events(self, limit: Optional[int] = None,
                      type: Optional[str] = None) -> List[Dict[str, Any]]:
        """Most-recent-first structured events (the ``events`` op)."""
        return self.events.recent(limit=limit, type=type)

    def readiness(self) -> Dict[str, bool]:
        """Named readiness checks for ``/readyz``: the executor accepts
        queries, (when durable) recovery has finished and the WAL is
        writable, and (over a replica) the source answered the last
        follow step."""
        checks = {"executor": not self._closed}
        if self.durability is not None:
            checks["recovery"] = True  # recovery completes in __init__
            checks["wal"] = self.durability.writable
        replica = self.replica
        if replica is not None:
            # A replica still serves with its source down (stale reads
            # beat no reads), but /readyz shows the degradation.
            checks["source"] = replica.source_up
        return checks

    def close(self) -> None:
        """Refuse new queries, stop following, and wait for the
        admitted queries to drain before the durable state closes."""
        with self._admission:
            self._closed = True
        self._stop_following.set()
        if self._follower is not None:
            self._follower.join(timeout=5)
        if self.subscriptions is not None:
            self.subscriptions.close()
        if self.stream_hub is not None:
            self.stream_hub.detach()
        with self._admission:
            while self._in_flight:
                self._admission.wait()
        self.flight_recorder.close()
        if self.durability is not None:
            self.durability.close()

    def __enter__(self) -> "ServiceExecutor":
        return self

    def __exit__(self, *exc) -> bool:
        self.close()
        return False

    def __repr__(self) -> str:
        return (f"ServiceExecutor({self.db.name!r}, "
                f"in_flight={self._in_flight}/{self.max_in_flight}, "
                f"cache={len(self._cache)}/{self._cache.capacity})")
