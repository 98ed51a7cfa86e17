"""Log-shipping read replicas.

A replica bootstraps from the primary's newest snapshot, then *tails*
the WAL and applies committed records to a local copy.  Two transports
ship the log:

:class:`FileWalSource`
    reads the primary's data directory straight off the (shared)
    filesystem — byte-offset tailing, with rotation detection when the
    primary checkpoints and truncates the log;
:class:`ServerWalSource`
    pulls over the JSON-lines wire protocol's ``wal`` op from a running
    ``vidb serve --data-dir`` primary, receiving a full snapshot when
    it has fallen behind the latest checkpoint (resync).

Each ``commit`` frame holds one whole primary commit and applies inside
one transaction, exactly as in crash recovery, so a replica never
exposes a half-applied transaction — its state is always some committed
prefix of the primary's history — and observers of the replica's
database (its stream hub) see each primary commit as one change set.

One step is :meth:`Replica.fetch` (all source I/O, including the
snapshot refetch that closes an LSN gap) followed by
:meth:`Replica.ingest` (the apply, which does no I/O); :meth:`Replica.poll`
runs both.  :meth:`Replica.follow` is the one follow loop: ``vidb
replicate`` runs it over :meth:`~Replica.poll`, and a serving replica
(:class:`~vidb.service.executor.ServiceExecutor` over a ``Replica``)
over a step that takes its writer lock for the apply only.  A failing
source does not end the loop: it backs off and reports
``replica.source_down`` / ``replica.source_up``.  :attr:`Replica.lag_lsn`
counts the log records (commits) the replica still trails by.
"""

from __future__ import annotations

import threading
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Union

from vidb.errors import (
    DurabilityError,
    ReplicationError,
    VidbError,
    WalCorruptionError,
)
from vidb.obs import current_tracer
from vidb.obs.events import EventLog, get_event_log
from vidb.storage.database import VideoDatabase
from vidb.storage.persistence import PersistenceError, database_from_dict

from vidb.durability.records import apply_record
from vidb.durability.snapshot import list_snapshots, load_snapshot, wal_path
from vidb.durability.wal import WalRecord, head_lsn, read_wal


#: What a failing source raises: the log is unreadable or refused
#: (:class:`ReplicationError`, a corrupt frame), or the primary or the
#: network is gone.  The follow loop outlives these.
SOURCE_ERRORS = (DurabilityError, OSError)


class ShipBatch:
    """One fetch from a WAL source."""

    __slots__ = ("records", "last_lsn", "resync_db", "resync_lsn")

    def __init__(self, records: List[WalRecord], last_lsn: int,
                 resync_db: Optional[VideoDatabase] = None,
                 resync_lsn: int = 0):
        self.records = records
        #: Highest LSN the source has made visible (lag denominator).
        self.last_lsn = last_lsn
        #: When set, the follower must replace its state with this
        #: database (covering ``resync_lsn``) before applying records.
        self.resync_db = resync_db
        self.resync_lsn = resync_lsn


class FileWalSource:
    """Tail a primary's data directory through the filesystem."""

    def __init__(self, data_dir: Union[str, Path]):
        self.data_dir = Path(data_dir)
        if not self.data_dir.is_dir():
            raise ReplicationError(f"no such data directory: {self.data_dir}")
        self._offset = 0
        self._head_lsn: Optional[int] = None

    def bootstrap(self) -> ShipBatch:
        """The newest snapshot as a resync batch (empty dir → nothing)."""
        snapshots = list_snapshots(self.data_dir)
        if not snapshots:
            return ShipBatch([], 0)
        _, path = snapshots[0]
        db, lsn = load_snapshot(path)
        return ShipBatch([], lsn, resync_db=db, resync_lsn=lsn)

    def fetch(self, after_lsn: int) -> ShipBatch:
        path = wal_path(self.data_dir)
        if not path.exists():
            return ShipBatch([], after_lsn)
        head = head_lsn(path)
        if self._offset and (path.stat().st_size < self._offset
                             or head != self._head_lsn):
            # Shrunk, or a different first frame: the primary
            # checkpointed and truncated under us — our byte offset
            # points into a younger log generation.  Rewind.
            return self._resync(after_lsn)
        try:
            scan = read_wal(path, self._offset)
        except WalCorruptionError:
            if self._offset:
                return self._resync(after_lsn)
            raise
        records = [r for r in scan.records if r.lsn > after_lsn]
        if records and records[0].lsn > after_lsn + 1:
            # LSNs are contiguous in the stream, so a gap means frames
            # between our position and the log head were truncated away
            # by a checkpoint — only a snapshot can close it.
            return self._resync(after_lsn)
        self._offset = scan.offset
        if head is not None:
            self._head_lsn = head
        last = max(after_lsn, scan.last_lsn)
        return ShipBatch(records, last)

    def _resync(self, after_lsn: int) -> ShipBatch:
        self._offset = 0
        snapshots = list_snapshots(self.data_dir)
        base_lsn, base_db = 0, None
        if snapshots:
            lsn, snap = snapshots[0]
            if lsn > after_lsn:
                # We genuinely missed truncated records; reload wholesale.
                base_db, base_lsn = load_snapshot(snap)[0], lsn
        scan = read_wal(wal_path(self.data_dir))
        self._offset = scan.offset
        self._head_lsn = scan.records[0].lsn if scan.records else None
        floor = base_lsn if base_db is not None else after_lsn
        records = [r for r in scan.records if r.lsn > floor]
        last = max(floor, scan.last_lsn)
        if base_db is not None:
            return ShipBatch(records, last, resync_db=base_db,
                             resync_lsn=base_lsn)
        return ShipBatch(records, last)


class ServerWalSource:
    """Pull the log from a running server's ``wal`` op."""

    def __init__(self, client):
        self._client = client

    def bootstrap(self) -> ShipBatch:
        return self.fetch(-1)  # "before everything": forces a resync reply

    def fetch(self, after_lsn: int) -> ShipBatch:
        try:
            reply = self._client.request("wal", after=max(-1, after_lsn))
        except VidbError as error:
            # The primary answered, but not with log (not durable,
            # closed, shutting down, a failed snapshot or WAL read, a
            # connection that died after a retry).
            raise ReplicationError(f"primary refused the wal pull: {error}"
                                   ) from error
        records = [WalRecord.from_dict(r) for r in reply.get("records", [])]
        last = reply.get("last_lsn", after_lsn)
        if reply.get("resync"):
            try:
                db = database_from_dict(reply["snapshot"])
            except (KeyError, PersistenceError) as error:
                raise ReplicationError(
                    f"primary sent an unusable resync snapshot: {error}"
                ) from error
            return ShipBatch(records, last, resync_db=db,
                             resync_lsn=reply.get("snapshot_lsn", 0))
        return ShipBatch(records, last)


def _gap(batch: ShipBatch, position: int) -> bool:
    """True when *batch* cannot apply on top of *position*: its records
    start past the next LSN and no snapshot comes with them."""
    return (batch.resync_db is None and bool(batch.records)
            and batch.records[0].lsn > position + 1)


class Replica:
    """A follower applying a primary's committed WAL records locally."""

    def __init__(self, source, *, name: str = "video",
                 event_log: Optional[EventLog] = None):
        self._source = source
        self.events = event_log if event_log is not None else get_event_log()
        self._db = VideoDatabase(name)
        self._position = 0       # last LSN consumed from the stream
        self._visible = 0        # last LSN the source has shown us
        #: Guards the LSN counters so the serving tier (router probes,
        #: session-consistency waits) can read ``applied_lsn``/``lag_lsn``
        #: from any thread while the follow loop advances them.  The
        #: database itself is protected separately (a serving replica's
        #: writer lock); this lock only covers the position bookkeeping.
        self._state_lock = threading.Lock()
        #: Mutations applied from the primary's log.
        self.records_applied = 0
        self.polls = 0
        self.resyncs = 0
        #: Whether the last step of :meth:`follow` reached the source
        #: (``/readyz`` of a serving replica reports it).
        self.source_up = True
        self.ingest(self._close_gap(source.bootstrap(), 0))

    # -- construction helpers ---------------------------------------------
    @classmethod
    def from_data_dir(cls, data_dir: Union[str, Path], *,
                      name: str = "video",
                      event_log: Optional[EventLog] = None) -> "Replica":
        return cls(FileWalSource(data_dir), name=name, event_log=event_log)

    @classmethod
    def from_client(cls, client, *, name: str = "video",
                    event_log: Optional[EventLog] = None) -> "Replica":
        return cls(ServerWalSource(client), name=name, event_log=event_log)

    # -- one step ------------------------------------------------------------
    def poll(self) -> int:
        """Fetch and apply whatever the primary has shipped; returns the
        number of mutations applied."""
        with current_tracer().span("replica.poll") as span:
            applied = self.ingest(self.fetch())
            span.annotate(applied=applied, lag=self.lag_lsn)
        return applied

    def fetch(self) -> ShipBatch:
        """Pull the next batch without applying it: every source read of
        a step happens here, so :meth:`ingest` never waits on I/O."""
        self.polls += 1
        position = self.applied_lsn
        return self._close_gap(self._source.fetch(position), position)

    def _close_gap(self, batch: ShipBatch, position: int) -> ShipBatch:
        """*batch*, or a snapshot resync in its place when an LSN gap
        separates it from *position*: the records in between were
        truncated away by a checkpoint, and applying past them would
        silently diverge."""
        if not _gap(batch, position):
            return batch
        self.events.emit("replica.gap", position=position,
                         next_lsn=batch.records[0].lsn)
        batch = self._source.fetch(-1)
        if _gap(batch, position):
            raise ReplicationError(
                f"source shipped records starting at LSN "
                f"{batch.records[0].lsn} but the replica holds "
                f"{position} and no snapshot closes the gap")
        return batch

    def ingest(self, batch: ShipBatch) -> int:
        """Apply a batch from :meth:`fetch`; returns mutations applied."""
        if _gap(batch, self._position):
            raise ReplicationError(
                f"batch starts at LSN {batch.records[0].lsn} but the "
                f"replica holds {self._position}; fetch() closes gaps")
        before = self.records_applied
        if batch.resync_db is not None:
            self._db = batch.resync_db
            with self._state_lock:
                self._position = batch.resync_lsn
            self.resyncs += 1
            self.events.emit("replica.resync", lsn=batch.resync_lsn,
                             records=len(batch.records))
        for record in batch.records:
            if record.lsn <= self._position:
                continue
            self.records_applied += apply_record(self._db, record)
            with self._state_lock:
                self._position = record.lsn
        with self._state_lock:
            self._visible = max(self._visible, batch.last_lsn,
                                self._position)
        return self.records_applied - before

    # -- the follow loop -----------------------------------------------------
    def follow(self, stop: threading.Event, interval_s: float,
               step: Optional[Callable[[], Any]] = None) -> None:
        """Run *step* (default :meth:`poll`) every *interval_s* seconds
        until *stop* is set.

        A source error (:data:`SOURCE_ERRORS`) does not end the loop:
        the replica keeps the state it has, the wait doubles up to 5 s,
        ``replica.source_down`` is emitted once, and
        ``replica.source_up`` once a step succeeds again.
        """
        step = step or self.poll
        backoff = interval_s
        while not stop.is_set():
            try:
                step()
            except SOURCE_ERRORS as error:
                if stop.is_set():
                    break  # stopped mid-step (promotion, close)
                if self.source_up:
                    self.events.emit("replica.source_down", error=str(error),
                                     applied_lsn=self.applied_lsn)
                self.source_up = False
                backoff = min(5.0, backoff * 2)
            else:
                if not self.source_up:
                    self.events.emit("replica.source_up",
                                     applied_lsn=self.applied_lsn)
                self.source_up = True
                backoff = interval_s
            stop.wait(backoff)

    # -- introspection -----------------------------------------------------
    @property
    def db(self) -> VideoDatabase:
        """The replica's local database (read it, don't mutate it)."""
        return self._db

    @property
    def primary_dir(self) -> Optional[Path]:
        """The primary's data directory when this replica tails it
        through the filesystem (promotion fences it), else ``None``."""
        return getattr(self._source, "data_dir", None)

    @property
    def applied_lsn(self) -> int:
        """Last LSN applied locally (thread-safe)."""
        with self._state_lock:
            return self._position

    @property
    def visible_lsn(self) -> int:
        """Last LSN the source has made visible (thread-safe)."""
        with self._state_lock:
            return self._visible

    @property
    def lag_lsn(self) -> int:
        """LSNs the replica still trails the primary by, as data: the
        router's balance signal and the session-consistency wait both
        read it (thread-safe)."""
        with self._state_lock:
            return max(0, self._visible - self._position)

    def stats(self) -> Dict[str, Any]:
        with self._state_lock:
            position, visible = self._position, self._visible
        return {
            "replica.applied_lsn": position,
            "replica.visible_lsn": visible,
            "replica.lag": max(0, visible - position),
            "replica.lag_lsn": max(0, visible - position),
            "replica.records_applied": self.records_applied,
            "replica.polls": self.polls,
            "replica.resyncs": self.resyncs,
        }

    def __repr__(self) -> str:
        return (f"Replica(applied_lsn={self.applied_lsn}, "
                f"lag={self.lag_lsn}, resyncs={self.resyncs})")
