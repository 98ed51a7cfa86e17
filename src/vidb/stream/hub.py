"""The mutation-stream hub: committed change sets -> stream consumers.

A :class:`StreamHub` subscribes to a database's mutation-observer
stream — the same hook :class:`vidb.durability.DurableDatabase` journals
through.  The database announces each commit once, as one
:class:`CommittedDelta` (a transaction's mutations together, an
autocommit mutation alone; a rollback announces nothing), so the hub
has no transaction handling of its own: it fans each delta out as it
arrives.

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
from typing import Callable, List

from vidb.errors import EvaluationError
from vidb.obs.trace import current_tracer
from vidb.storage.database import VideoDatabase
from vidb.storage.transactions import CommittedDelta


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
        #: The epoch the hub believes the database is at.  Every
        #: observed mutation event bumps it by one, so a divergence
        #: from ``db.epoch`` means mutations happened that this hub
        #: never saw.
        self.mirror_epoch = db.epoch
        self.deltas_delivered = 0
        self.events_seen = 0
        self._attached = False
        self.attach()

    # -- observer lifecycle -------------------------------------------------
    def attach(self) -> None:
        """(Re)subscribe to the database's mutation-observer stream."""
        if not self._attached:
            self.mirror_epoch = self.db.epoch
            self.db.add_mutation_observer(self._deliver)
            self._attached = True

    def detach(self) -> None:
        if self._attached:
            self.db.remove_mutation_observer(self._deliver)
            self._attached = False

    def rebind(self, db: VideoDatabase) -> None:
        """Follow a whole-database swap (a replica resync): detach from
        the old object, attach to the new one."""
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
    def _deliver(self, delta: CommittedDelta) -> None:
        self.events_seen += len(delta)
        self.mirror_epoch += len(delta)
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
                f"(ViewRegistry.refresh_all) before trusting them")

    def __repr__(self) -> str:
        return (f"StreamHub({self.db.name!r}, "
                f"{self.consumer_count()} consumers, "
                f"{self.deltas_delivered} deltas, "
                f"mirror epoch {self.mirror_epoch})")
