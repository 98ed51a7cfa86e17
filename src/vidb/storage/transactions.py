"""Undo-log transactions and the committed change sets they announce.

The paper motivates a database substrate for video partly by the classical
database services — "persistence, transactions, concurrency control,
recovery".  vidb provides single-writer transactions with full rollback:
every mutating operation appends its inverse to a journal; on exception
(or explicit :meth:`Transaction.rollback`) the journal is replayed in
reverse.

Usage::

    with db.transaction():
        db.new_entity("o1", name="Reporter")
        db.relate("in", o1, gi1)
        ...                       # raising here rolls everything back

The transaction is also the database's one commit boundary: a commit
announces its mutations to the mutation observers as one
:class:`CommittedDelta`; a rollback, or a transaction that changed
nothing, announces nothing.  A mutation outside any transaction is a
change set of one.
"""

from __future__ import annotations

import time
from typing import TYPE_CHECKING, Any, List, Optional, Tuple

from vidb.errors import TransactionError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from vidb.storage.database import VideoDatabase

#: One mutation event: ``("add", obj)``, ``("relate", fact)``, ... (see
#: :meth:`vidb.storage.database.VideoDatabase.add_mutation_observer`).
MutationEvent = Tuple[Any, ...]

#: Event kinds that only ever *grow* the database — the ones semi-naive
#: delta maintenance can apply incrementally.
MONOTONE_EVENTS = frozenset({"add", "relate", "declare_relation"})

#: Event kinds that shrink or rewrite state; an incremental view must
#: rebuild from scratch after a committed delta containing one.
NON_MONOTONE_EVENTS = frozenset({"replace", "remove_object", "remove_fact"})


class CommittedDelta:
    """One committed change set: its mutation events, in application
    order, and the database epochs around it."""

    __slots__ = ("events", "epoch", "pre_epoch", "origin_pc", "trace")

    def __init__(self, events: List[MutationEvent], epoch: int,
                 pre_epoch: int):
        #: The committed events, in the order they were applied.
        self.events = events
        #: The database epoch *after* this delta committed.
        self.epoch = epoch
        #: The database epoch *before* the first event of this delta.
        self.pre_epoch = pre_epoch
        #: Commit monotonic time (``perf_counter``) — the origin point
        #: the commit→notify latency histograms measure against.  Only
        #: meaningful inside the committing process.
        self.origin_pc = time.perf_counter()
        #: Traceparent header of the mutating request, when the commit
        #: happened under a traced request (the stream hub stamps it,
        #: see :mod:`vidb.obs.trace`); notification batches carry it so
        #: a write can be joined to the notifications it caused.
        self.trace: Optional[str] = None

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


class Transaction:
    """A context manager recording inverse operations for rollback."""

    def __init__(self, db: "VideoDatabase"):
        self._db = db
        self._journal: Optional[List[Tuple]] = None
        self._closed = False
        self._nested = False
        self._epoch_snapshot: Optional[int] = None

    # -- context protocol ---------------------------------------------------
    def __enter__(self) -> "Transaction":
        if self._closed:
            raise TransactionError("transaction object cannot be reused")
        if self._db._journal is not None:
            # Nested transaction: piggyback on the outer journal.  Inner
            # commits are no-ops; an inner rollback raises, because partial
            # undo of a shared journal would corrupt the outer scope.
            self._nested = True
            return self
        self._journal = []
        self._db._journal = self._journal
        self._db._changes = []
        self._epoch_snapshot = self._db._epoch
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        if self._nested:
            return False
        if not self._closed:
            # An explicit commit()/rollback() inside the block already
            # settled the transaction; otherwise settle it now.
            if exc_type is not None:
                self.rollback()
            else:
                self.commit()
        return False  # never swallow exceptions

    # -- explicit control -------------------------------------------------------
    def commit(self) -> None:
        if self._nested:
            return
        if self._closed:
            raise TransactionError("transaction already closed")
        db = self._db
        changes = db._changes
        db._journal = db._changes = None
        self._journal = None
        self._closed = True
        if changes:
            db._announce(changes)

    def rollback(self) -> None:
        if self._nested:
            raise TransactionError("cannot roll back a nested transaction")
        if self._closed:
            raise TransactionError("transaction already closed")
        db = self._db
        journal = self._journal or []
        self._journal = None
        self._closed = True
        # The undo operations journal into throwaway lists: they are
        # neither re-journaled nor announced to observers.
        db._journal, db._changes = [], []
        try:
            for entry in reversed(journal):
                self._undo(entry)
        finally:
            db._journal = db._changes = None
        # The undo replay bumped the epoch once per inverse operation;
        # the state now equals the snapshot state, so restore the
        # snapshot epoch too (same state <=> same epoch).
        if self._epoch_snapshot is not None:
            db._epoch = self._epoch_snapshot

    # -- undo interpreter -----------------------------------------------------
    def _undo(self, entry: Tuple) -> None:
        db = self._db
        op = entry[0]
        if op == "remove_object":
            db.remove_object(entry[1])
        elif op == "remove_fact":
            db.remove_fact(entry[1])
        elif op == "restore_object":
            db.replace(entry[1])
        elif op == "restore_removed":
            db.add(entry[1])
        elif op == "restore_fact":
            db.relate(entry[1])
        else:  # pragma: no cover - journal entries are produced locally
            raise TransactionError(f"unknown journal entry {entry!r}")
