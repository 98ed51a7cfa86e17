"""The mutation-stream hub: observer events -> committed deltas.

A :class:`StreamHub` subscribes to a database's mutation-observer
stream — the same hook :class:`vidb.durability.DurableDatabase` journals
through — and turns the raw per-mutation event tuples into
:class:`CommittedDelta` batches with *transaction* granularity:

* events arriving inside a ``txn_begin`` / ``txn_commit`` window are
  buffered and delivered as **one** delta when the commit frame lands;
* events of an aborted transaction (``txn_abort``) are discarded
  wholesale — the rollback's inverse operations included — so a
  consumer never observes state that was not committed;
* events arriving outside any transaction are autocommit: each one is
  delivered immediately as a single-event delta.

Consumers (:class:`~vidb.stream.views.ViewRegistry`,
:class:`~vidb.stream.standing.SubscriptionManager`) register a callback
and receive every committed delta in commit order, on the mutating
thread, while that thread still holds whatever lock serialized the
mutation (the service executor's write lock, typically) — so consumers
see deltas strictly serialized and gap-free.

The hub also maintains an **epoch mirror**: every mutation event bumps
the database epoch by exactly one, so the hub can predict the epoch
and detect out-of-band writes (mutations applied while the observer
was detached, or a consumer resuming against a database that moved
underneath it).  :meth:`StreamHub.check_epoch` raises
:class:`~vidb.errors.EvaluationError` in the analyzer's ``VDB0xx``
diagnostic style on a mismatch instead of letting consumers silently
diverge.
"""

from __future__ import annotations

import threading
import time
from typing import Any, Callable, List, Optional, Tuple

from vidb.errors import EvaluationError
from vidb.obs.trace import current_tracer
from vidb.storage.database import VideoDatabase

#: One raw mutation-observer event (see
#: :meth:`vidb.storage.database.VideoDatabase.add_mutation_observer`).
MutationEvent = Tuple[Any, ...]

#: Event kinds that only ever *grow* the database — the ones semi-naive
#: delta maintenance can apply incrementally.
MONOTONE_EVENTS = frozenset({"add", "relate", "declare_relation"})

#: Event kinds that shrink or rewrite state; an incremental view must
#: rebuild from scratch after a committed delta containing one.
NON_MONOTONE_EVENTS = frozenset({"replace", "remove_object", "remove_fact"})

#: Transaction framing (no state change of their own).
TXN_EVENTS = frozenset({"txn_begin", "txn_commit", "txn_abort"})


class CommittedDelta:
    """One committed batch of mutation events, in application order."""

    __slots__ = ("events", "epoch", "pre_epoch", "origin_ts", "origin_pc",
                 "trace")

    def __init__(self, events: List[MutationEvent], epoch: int,
                 pre_epoch: int, origin_ts: Optional[float] = None,
                 origin_pc: Optional[float] = None,
                 trace: Optional[str] = None):
        #: The committed events, in the order they were applied.
        self.events = events
        #: The database epoch *after* this delta committed.
        self.epoch = epoch
        #: The database epoch *before* the first event of this delta.
        self.pre_epoch = pre_epoch
        #: Commit wall-clock time (``time.time()``) — for operators.
        self.origin_ts = time.time() if origin_ts is None else origin_ts
        #: Commit monotonic time (``perf_counter``) — the origin point
        #: the commit→notify latency histograms measure against.  Only
        #: meaningful inside the committing process.
        self.origin_pc = (time.perf_counter() if origin_pc is None
                          else origin_pc)
        #: Traceparent header of the mutating request, when the commit
        #: happened under a traced request (the ambient tracer's
        #: context, see :mod:`vidb.obs.trace`); notification batches
        #: carry it so a
        #: write can be joined to the notifications it caused.
        self.trace = trace

    @property
    def monotone(self) -> bool:
        """True when every event only grows the database (pure inserts),
        so incremental (semi-naive) maintenance is sound."""
        return all(event[0] in MONOTONE_EVENTS for event in self.events)

    def __len__(self) -> int:
        return len(self.events)

    def __repr__(self) -> str:
        kinds = [event[0] for event in self.events]
        return (f"CommittedDelta({len(self.events)} events {kinds!r}, "
                f"epoch {self.pre_epoch}->{self.epoch})")


def out_of_band_error(code: str, message: str) -> EvaluationError:
    """An :class:`EvaluationError` in the VDB diagnostic style."""
    return EvaluationError(f"{code} {message}")


class StreamHub:
    """Fan committed mutation deltas out to registered consumers.

    One hub serves one :class:`VideoDatabase`.  Thread-safety: events
    arrive serialized (the database requires external write
    serialization — the executor's write lock, or a single-writer
    embedding); consumer registration may happen from any thread and is
    guarded by the hub lock.  Consumer callbacks run on the mutating
    thread, synchronously at commit time, and must not mutate the
    database (the standard observer contract).
    """

    def __init__(self, db: VideoDatabase):
        self.db = db
        self._lock = threading.Lock()
        self._consumers: List[Callable[[CommittedDelta], None]] = []
        self._buffer: Optional[List[MutationEvent]] = None
        self._txn_pre_epoch = 0
        #: The epoch the hub believes the database is at.  Every
        #: observed mutation event bumps it by one (abort resyncs it),
        #: so a divergence from ``db.epoch`` means mutations happened
        #: that this hub never saw.
        self.mirror_epoch = db.epoch
        self.deltas_delivered = 0
        self.events_seen = 0
        self.aborted_segments = 0
        self._attached = False
        self.attach()

    # -- observer lifecycle -------------------------------------------------
    def attach(self) -> None:
        """(Re)subscribe to the database's mutation-observer stream."""
        if not self._attached:
            self.mirror_epoch = self.db.epoch
            self.db.add_mutation_observer(self._on_event)
            self._attached = True

    def detach(self) -> None:
        if self._attached:
            self.db.remove_mutation_observer(self._on_event)
            self._attached = False
            self._buffer = None

    def rebind(self, db: VideoDatabase) -> None:
        """Follow a whole-database swap (a replica resync): detach from
        the old object, attach to the new one, drop any open buffer."""
        self.detach()
        self.db = db
        self.attach()

    # -- consumers ----------------------------------------------------------
    def add_consumer(self, consumer: Callable[[CommittedDelta], None]) -> None:
        with self._lock:
            self._consumers.append(consumer)

    def remove_consumer(self,
                        consumer: Callable[[CommittedDelta], None]) -> None:
        with self._lock:
            try:
                self._consumers.remove(consumer)
            except ValueError:
                pass

    def consumer_count(self) -> int:
        with self._lock:
            return len(self._consumers)

    # -- the observer --------------------------------------------------------
    def _on_event(self, event: MutationEvent) -> None:
        kind = event[0]
        if kind == "txn_begin":
            # Epoch before the first event of the segment: the mirror,
            # which equals db.epoch unless out-of-band writes happened
            # (check_epoch will catch those at delivery time).
            self._txn_pre_epoch = self.mirror_epoch
            self._buffer = []
            return
        if kind == "txn_commit":
            buffered, self._buffer = self._buffer, None
            if buffered:
                self._deliver(CommittedDelta(buffered, self.mirror_epoch,
                                             self._txn_pre_epoch))
            return
        if kind == "txn_abort":
            # Drop the whole segment — forward mutations and the
            # rollback's inverse operations alike — and resync the
            # mirror to the restored epoch.
            self._buffer = None
            self.aborted_segments += 1
            self.mirror_epoch = self.db.epoch
            return
        self.events_seen += 1
        pre = self.mirror_epoch
        self.mirror_epoch += 1
        if self._buffer is not None:
            self._buffer.append(event)
            return
        # Autocommit: one mutation outside any transaction.
        self._deliver(CommittedDelta([event], self.mirror_epoch, pre))

    def _deliver(self, delta: CommittedDelta) -> None:
        if delta.trace is None:
            context = current_tracer().context
            if context is not None:
                delta.trace = context.to_header()
        self.deltas_delivered += 1
        with self._lock:
            consumers = tuple(self._consumers)
        for consumer in consumers:
            consumer(delta)

    # -- the out-of-band guard ----------------------------------------------
    def check_epoch(self) -> None:
        """Verify the hub observed every mutation of its database.

        The epoch mirror advances in lockstep with observed events; a
        mismatch against the live ``db.epoch`` means writes were applied
        while the observer was not listening — an observer-fed consumer
        would silently diverge, so this raises instead.
        """
        if self.mirror_epoch != self.db.epoch:
            raise out_of_band_error(
                "VDB051",
                f"out-of-band write detected: database {self.db.name!r} is "
                f"at epoch {self.db.epoch} but the stream hub observed "
                f"epoch {self.mirror_epoch}; mutations were applied while "
                f"the observer was detached — rebuild the registered views "
                f"(ViewRegistry.refresh) before trusting them")

    def __repr__(self) -> str:
        return (f"StreamHub({self.db.name!r}, "
                f"{self.consumer_count()} consumers, "
                f"{self.deltas_delivered} deltas, "
                f"mirror epoch {self.mirror_epoch})")
