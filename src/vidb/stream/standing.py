"""Standing queries: continuous queries fired by committed deltas.

MavVStream-style situation monitoring over the paper's video model: a
client registers a query once and from then on receives the *new*
answers each committed transaction produces, instead of polling with
repeated evaluation.  Mechanically, a :class:`Subscription` compiles
its query with :meth:`vidb.query.engine.QueryEngine.compile`, as
``execute`` does — an anonymous rule deriving ``q__answer`` and the
demand rewrite of the program for it, so a bound goal maintains only
the facts its constants demand — but inline (a view reads no ⊕ overlay
and factors nothing), and materializes the result as an observer-fed
:class:`~vidb.query.incremental.MaterializedView`; the answer tuples
each committed delta derives are the incremental notification.

Delivery contract (the backpressure story, see docs/STREAMING.md):

* notifications are **ordered**: batches carry a per-subscription
  sequence number and the post-commit epoch, and arrive in commit
  order;
* queues are **bounded** (``max_queue`` batches): a slow consumer
  loses the *oldest* batches first, and the oldest surviving batch is
  marked ``lagged`` with the cumulative drop count — loss is always
  explicit, never silent;
* **aborted transactions notify nothing** — the database announces,
  and the hub delivers, only committed deltas;
* notifications are **new answers only**: when a deletion forces a
  view rebuild, answers that disappeared are not retracted over the
  wire (retraction notices are future work; the ``rebuilds`` counter
  exposes how often it happened).
"""

from __future__ import annotations

import itertools
import threading
import time
from typing import Any, Callable, Dict, List, Optional, Set, Tuple, Union

from vidb.errors import ServiceOverloadedError, SessionError
from vidb.query.ast import Query
from vidb.query.engine import ANSWER_PREDICATE, QueryEngine
from vidb.query.fixpoint import GroundTuple
from vidb.query.incremental import MaterializedView
from vidb.query.shape import lift
from vidb.stream.hub import CommittedDelta, StreamHub
from vidb.stream.views import apply_delta

_subscription_ids = itertools.count(1)

#: One notification batch as shipped to clients (JSON-ready).
Batch = Dict[str, Any]


class Subscription:
    """One standing query: a fed view plus a bounded notification queue."""

    def __init__(self, query: Union[str, Query], engine: QueryEngine,
                 *, filter: Optional[Dict[str, Any]] = None,
                 max_queue: int = 256,
                 session_id: Optional[str] = None,
                 detached: bool = False,
                 event_log: Optional[Any] = None):
        self.id = f"sub{next(_subscription_ids)}"
        self.text: str = query if isinstance(query, str) else repr(query)
        lifted = lift(query)
        # Subscribe-time safety check and streaming-safety analysis:
        # error-severity findings (VDB06x non-monotone operators, VDB006
        # unknown predicates, safety errors) raise here, *before* any
        # view is built, and the subscribe op ships the located
        # diagnostics to the client.  The classification (incremental
        # maintenance, deletion sensitivity, growth) is surfaced via
        # describe().
        analysis = engine.analyze_standing(lifted)
        self.diagnostics = analysis.diagnostics
        self.classification: Dict[str, Any] = dict(
            analysis.streaming[0]) if analysis.streaming else {}
        # Compiled like an ad-hoc query, inline: a view reads no ⊕
        # overlay and factors nothing.
        program, labels, demand = engine.compile(
            lifted, inline=True, name=f"standing-{self.id}")
        #: Answer column names (empty for a boolean query).
        self.variables: Tuple[str, ...] = tuple(
            v.name for v in lifted.source.answer_variables)
        self.filter = dict(filter or {})
        for name in self.filter:
            if name not in self.variables:
                raise SessionError(
                    f"subscription filter names unknown variable {name!r} "
                    f"(answer variables: {list(self.variables)})")
        if max_queue < 1:
            raise SessionError("max_queue must be at least 1")
        self.max_queue = max_queue
        self.session_id = session_id
        #: A detached subscription survives the session that created it.
        self.detached = detached
        self.created_at = time.time()
        # May raise EvaluationError (negation in the relevant rules);
        # the subscribe op surfaces that to the client.
        self.view = MaterializedView(
            engine.db, program, computed=engine.computed,
            max_objects=engine.max_objects, kernel=engine.kernel,
            labels=labels, guarded=demand.guarded if demand else ())
        self.view.seal(f"Subscription[{self.id}]")
        #: Answer rows already notified (new-answers-only dedup across
        #: rebuilds).
        self._known: Set[GroundTuple] = set(
            self.view.relation(ANSWER_PREDICATE))
        self._cond = threading.Condition()
        self._queue: List[Batch] = []
        self._next_seq = 1
        self.closed = False
        self.batches_emitted = 0
        self.rows_emitted = 0
        self.dropped_batches = 0
        self.dropped_rows = 0
        self.lag_events = 0
        #: Commit→notify latency of the most recent batch (see feed()).
        self.last_latency_ms: Optional[float] = None
        self._event_log = event_log

    # -- fed by the manager (hub thread, serialized) -------------------------
    def feed(self, delta: CommittedDelta) -> Optional[Batch]:
        """Apply one committed delta; queue + return the batch, if any."""
        if self.closed:
            return None
        derived = apply_delta(self.view, delta)
        if derived is None:
            # Non-monotone delta rebuilt the view; notify answers that
            # are new relative to everything already notified.
            rows = set(self.view.relation(ANSWER_PREDICATE)) - self._known
        else:
            rows = set(derived.get(ANSWER_PREDICATE, ())) - self._known
        if not rows:
            return None
        self._known.update(rows)
        if self.filter:
            rows = {row for row in rows if self._matches(row)}
            if not rows:
                return None
        rendered = sorted([str(value) for value in row] for row in rows)
        # Commit→notify latency: from the delta's commit timestamp to
        # the moment the batch is queued for the consumer.  Both ends
        # are perf_counter readings in the committing process (delivery
        # runs synchronously on the mutating thread), so the measure is
        # monotone and immune to wall-clock steps.
        latency_ms = max(0.0, (time.perf_counter() - delta.origin_pc) * 1000)
        lagged_event: Optional[Dict[str, Any]] = None
        with self._cond:
            if self.closed:
                return None
            batch: Batch = {"seq": self._next_seq, "epoch": delta.epoch,
                            "rows": rendered, "count": len(rendered),
                            "latency_ms": round(latency_ms, 3)}
            if delta.trace is not None:
                batch["trace"] = delta.trace
            self._next_seq += 1
            if len(self._queue) >= self.max_queue:
                dropped = self._queue.pop(0)
                self.dropped_batches += 1
                self.dropped_rows += dropped["count"]
                self.lag_events += 1
                if self._queue:
                    survivor = self._queue[0]
                else:
                    survivor = batch
                survivor["lagged"] = True
                survivor["dropped_batches"] = self.dropped_batches
                survivor["dropped_rows"] = self.dropped_rows
                lagged_event = {
                    "subscription": self.id,
                    "dropped_seq": dropped["seq"],
                    "seq_gap": survivor["seq"] - dropped["seq"],
                    "dropped_batches": self.dropped_batches,
                    "dropped_rows": self.dropped_rows,
                    "max_queue": self.max_queue,
                }
            self._queue.append(batch)
            self.batches_emitted += 1
            self.rows_emitted += len(rendered)
            self.last_latency_ms = batch["latency_ms"]
            self._cond.notify_all()
        if lagged_event is not None and self._event_log is not None:
            # Outside the condition lock: the event sink may do file IO.
            self._event_log.emit("subscription.lagged", **lagged_event)
        return batch

    def _matches(self, row: GroundTuple) -> bool:
        for name, wanted in self.filter.items():
            value = row[self.variables.index(name)]
            if str(value) != str(wanted):
                return False
        return True

    # -- consumed by clients --------------------------------------------------
    def poll(self, max_batches: Optional[int] = None,
             wait_s: Optional[float] = None) -> List[Batch]:
        """Drain queued batches, oldest first.

        Blocks up to ``wait_s`` seconds when the queue is empty (0 /
        ``None`` = return immediately).  Returns ``[]`` on timeout or
        when the subscription is closed.
        """
        deadline = (time.monotonic() + wait_s) if wait_s else None
        with self._cond:
            while not self._queue and not self.closed:
                if deadline is None:
                    return []
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    return []
                self._cond.wait(remaining)
            if max_batches is None or max_batches >= len(self._queue):
                drained, self._queue = self._queue, []
            else:
                drained = self._queue[:max_batches]
                del self._queue[:max_batches]
            return drained

    def queue_depth(self) -> int:
        with self._cond:
            return len(self._queue)

    def close(self) -> None:
        with self._cond:
            self.closed = True
            self._queue.clear()
            self._cond.notify_all()
        self.view.unseal()

    def describe(self) -> Dict[str, Any]:
        """JSON-ready status row (the ``subscriptions`` op / top panel)."""
        return {
            "id": self.id,
            "query": self.text,
            "session": self.session_id,
            "detached": self.detached,
            "filter": dict(self.filter),
            "seq": self._next_seq - 1,
            "queue_depth": self.queue_depth(),
            "max_queue": self.max_queue,
            "batches": self.batches_emitted,
            "rows": self.rows_emitted,
            "dropped_batches": self.dropped_batches,
            "dropped_rows": self.dropped_rows,
            "lag_events": self.lag_events,
            "last_latency_ms": self.last_latency_ms,
            "rebuilds": self.view.rebuilds,
            "closed": self.closed,
            "maintenance": self.classification.get("maintenance"),
            "deletion_sensitive":
                self.classification.get("deletion_sensitive"),
            "unbounded_growth": self.classification.get("unbounded_growth"),
        }

    def __repr__(self) -> str:
        return (f"Subscription({self.id}, {self.text!r}, "
                f"seq={self._next_seq - 1}, depth={self.queue_depth()})")


class SubscriptionManager:
    """All standing queries of one service: admission, fan-out, lifecycle.

    The manager is one hub consumer; each committed delta is fed to
    every live subscription's view in registration order, on the
    mutating thread.  ``subscribe`` must run while writers are excluded
    (the service executor calls it under the read lock) so the view's
    build snapshot and the subscription's activation are atomic with
    respect to commits — no delta is missed or double-applied.
    """

    def __init__(self, hub: StreamHub, *,
                 max_subscriptions: int = 64,
                 default_max_queue: int = 256,
                 on_notify: Optional[Callable[[Subscription, Batch],
                                              None]] = None,
                 event_log: Optional[Any] = None):
        self.hub = hub
        self.max_subscriptions = max_subscriptions
        self.default_max_queue = default_max_queue
        #: Structured sink for ``subscription.lagged`` drop events.
        self.event_log = event_log
        self._lock = threading.RLock()
        self._subs: Dict[str, Subscription] = {}
        #: Optional callback fired per queued batch (metrics/event hook).
        self.on_notify = on_notify
        self.subscriptions_opened = 0
        self.subscriptions_closed = 0
        self.notifications_total = 0
        self.notified_rows_total = 0
        #: Lag totals carried over from closed subscriptions, so the
        #: cumulative metric survives unsubscribes.
        self._retired_lag_events = 0
        hub.add_consumer(self._on_delta)

    # -- lifecycle ------------------------------------------------------------
    def subscribe(self, query: Union[str, Query], engine: QueryEngine, *,
                  filter: Optional[Dict[str, Any]] = None,
                  max_queue: Optional[int] = None,
                  session_id: Optional[str] = None,
                  detached: bool = False) -> Subscription:
        with self._lock:
            if len(self._subs) >= self.max_subscriptions:
                raise ServiceOverloadedError(
                    f"{len(self._subs)} standing queries registered "
                    f"(limit {self.max_subscriptions}); unsubscribe one "
                    f"or raise --max-subscriptions")
            self.hub.check_epoch()
            sub = Subscription(
                query, engine, filter=filter,
                max_queue=max_queue or self.default_max_queue,
                session_id=session_id, detached=detached,
                event_log=self.event_log)
            self._subs[sub.id] = sub
            self.subscriptions_opened += 1
            return sub

    def unsubscribe(self, sub_id: str) -> bool:
        with self._lock:
            sub = self._subs.pop(sub_id, None)
        if sub is None:
            return False
        sub.close()
        self.subscriptions_closed += 1
        self._retired_lag_events += sub.lag_events
        return True

    def get(self, sub_id: str) -> Subscription:
        with self._lock:
            sub = self._subs.get(sub_id)
        if sub is None:
            raise SessionError(f"no subscription {sub_id!r}")
        return sub

    def close_session(self, session_id: str) -> int:
        """Close the non-detached subscriptions a session owns."""
        with self._lock:
            doomed = [sid for sid, sub in self._subs.items()
                      if sub.session_id == session_id and not sub.detached]
        closed = 0
        for sid in doomed:
            if self.unsubscribe(sid):
                closed += 1
        return closed

    def rebind(self, engine: QueryEngine) -> None:
        """Rebuild every subscription's view against *engine*'s database
        (a replica resync swapped the object).  Already-notified rows
        are remembered, so clients only hear about genuinely new
        answers after the rebuild."""
        with self._lock:
            subs = list(self._subs.values())
        for sub in subs:
            sub.view.rebind(engine.db)

    def close(self) -> None:
        self.hub.remove_consumer(self._on_delta)
        with self._lock:
            doomed = list(self._subs)
        for sid in doomed:
            self.unsubscribe(sid)

    # -- fan-out --------------------------------------------------------------
    def _on_delta(self, delta: CommittedDelta) -> None:
        with self._lock:
            subs = list(self._subs.values())
        for sub in subs:
            batch = sub.feed(delta)
            if batch is not None:
                self.notifications_total += 1
                self.notified_rows_total += batch["count"]
                if self.on_notify is not None:
                    self.on_notify(sub, batch)

    # -- introspection --------------------------------------------------------
    def count(self) -> int:
        with self._lock:
            return len(self._subs)

    def total_queue_depth(self) -> int:
        with self._lock:
            return sum(sub.queue_depth() for sub in self._subs.values())

    def total_lag_events(self) -> int:
        with self._lock:
            return self._retired_lag_events + sum(
                sub.lag_events for sub in self._subs.values())

    def describe(self) -> List[Dict[str, Any]]:
        with self._lock:
            return [sub.describe()
                    for _, sub in sorted(self._subs.items())]

    def __repr__(self) -> str:
        return (f"SubscriptionManager({self.count()} subscriptions, "
                f"{self.notifications_total} notifications)")
