"""The durable database: a live :class:`VideoDatabase` bound to a WAL.

``DurableDatabase(data_dir)`` recovers whatever the directory holds
(latest valid snapshot + WAL tail), then journals every subsequent
commit — a transaction, or one mutation outside any — as one
self-committing ``commit`` frame through a
:class:`~vidb.durability.wal.WalWriter`.  A rolled-back transaction
journals nothing.  Periodic checkpoints install
a fresh snapshot atomically and truncate the WAL, bounding both
recovery time and disk growth.

The wrapper *delegates* reads: ``durable.entities()``,
``durable.epoch``, ``durable.transaction()`` and friends all reach the
inner database, so it can stand in for a plain ``VideoDatabase`` in
most code.  The service layer unwraps it (``ServiceExecutor`` detects a
``DurableDatabase`` and serves queries off ``.db`` directly) while
surfacing :meth:`stats` in its metrics snapshot.

Single-writer discipline is assumed — the service executor's write lock
already serializes mutations; an internal lock additionally keeps
checkpoints and log shipping consistent with concurrent appends.
"""

from __future__ import annotations

import json
import threading
from pathlib import Path
from typing import Any, Dict, Optional, Tuple, Union

from vidb.errors import ClusterError, DurabilityError
from vidb.obs import current_tracer
from vidb.obs.events import EventLog, get_event_log
from vidb.storage.database import VideoDatabase
from vidb.storage.transactions import CommittedDelta

from vidb.durability.records import CHECKPOINT, COMMIT, encode_commit
from vidb.durability.recovery import RecoveryResult, recover
from vidb.durability.snapshot import (
    list_snapshots,
    prune_snapshots,
    wal_path,
    write_snapshot,
)
from vidb.durability.wal import (
    check_fence,
    head_lsn,
    read_wal,
    WalWriter,
    write_fence,
)


class DurableDatabase:
    """A recovered, WAL-journaled video database rooted in a directory."""

    def __init__(self, data_dir: Union[str, Path], *,
                 seed: Optional[VideoDatabase] = None,
                 fsync: str = "interval",
                 fsync_interval_s: float = 0.1,
                 checkpoint_every: int = 1000,
                 keep_snapshots: int = 2,
                 name: str = "video",
                 tracer=None,
                 event_log: Optional[EventLog] = None,
                 start_lsn: Optional[int] = None):
        self.data_dir = Path(data_dir)
        self.data_dir.mkdir(parents=True, exist_ok=True)
        # A fenced directory belongs to a superseded primary generation;
        # accepting writes here again would fork history (split brain).
        check_fence(self.data_dir)
        self._lock = threading.RLock()
        self.events = event_log if event_log is not None else get_event_log()
        self.checkpoint_every = max(1, checkpoint_every)
        self.keep_snapshots = max(1, keep_snapshots)
        self.recovery: RecoveryResult = recover(
            self.data_dir, default_name=name, tracer=tracer)
        self.events.emit("recovery",
                         data_dir=str(self.data_dir),
                         snapshot_lsn=self.recovery.snapshot_lsn,
                         replayed=self.recovery.replayed,
                         torn_tail=self.recovery.torn)
        self.seeded = False
        if seed is not None and self.recovery.empty:
            # A fresh directory primed from an existing database: the
            # seed state becomes the initial snapshot (recovered state
            # always wins over the seed otherwise).
            self.recovery.db = seed
            self.seeded = True
        self._db = self.recovery.db
        if start_lsn is not None and not self.recovery.empty:
            raise DurabilityError(
                f"start_lsn is only valid for a fresh data directory; "
                f"{self.data_dir} already holds LSNs up to "
                f"{self.recovery.last_lsn}")
        self._writer = WalWriter(
            wal_path(self.data_dir), fsync=fsync,
            fsync_interval_s=fsync_interval_s,
            # ``start_lsn`` continues another directory's LSN sequence —
            # promotion seeds the new primary generation with it so the
            # new WAL's head LSN exceeds everything the old one shipped.
            next_lsn=(start_lsn if start_lsn is not None
                      else self.recovery.last_lsn + 1),
            # Cut off a torn tail before appending: new frames after the
            # fragment would turn a tolerated torn *end* into mid-log
            # corruption the next recovery refuses to replay past.
            truncate_to=self.recovery.wal_offset)
        #: Mutations journaled since the last checkpoint (what
        #: ``checkpoint_every`` counts).
        self._mutations_since_checkpoint = self.recovery.replayed
        self._snapshot_lsn = self.recovery.snapshot_lsn
        self._snapshots_taken = 0
        self._ships = 0
        self._follower_lag = 0
        self._closed = False
        if self.seeded or not list_snapshots(self.data_dir):
            # Every data directory keeps at least one snapshot so
            # replicas (and recovery) always have a base to load.
            self.checkpoint()
        self._db.add_mutation_observer(self._on_commit)

    # -- identity ----------------------------------------------------------
    @property
    def db(self) -> VideoDatabase:
        """The live, in-memory database this directory persists."""
        return self._db

    @property
    def last_lsn(self) -> int:
        return self._writer.last_lsn

    @property
    def snapshot_lsn(self) -> int:
        """LSN covered by the most recent installed snapshot."""
        return self._snapshot_lsn

    @property
    def generation(self) -> int:
        """The log-generation marker: the head LSN of the current WAL.

        Strictly monotonic LSNs make the first frame of each truncation
        identify the log generation; promotion continues the sequence,
        so a higher generation always means a newer primary.
        """
        head = head_lsn(wal_path(self.data_dir))
        return head if head is not None else 0

    def __getattr__(self, name: str) -> Any:
        # Reads (entities(), facts(), epoch, transaction(), ...) reach
        # the inner database, so the wrapper is drop-in for most code.
        try:
            db = object.__getattribute__(self, "_db")
        except AttributeError:
            raise AttributeError(name) from None
        return getattr(db, name)

    # -- journaling --------------------------------------------------------
    def _on_commit(self, delta: CommittedDelta) -> None:
        with self._lock:
            if self._closed:
                raise DurabilityError(
                    f"durable database {self.data_dir} is closed; "
                    f"refusing to lose a mutation")
            self._writer.append(COMMIT, encode_commit(delta.events))
            self._mutations_since_checkpoint += len(delta)
            if self._mutations_since_checkpoint >= self.checkpoint_every:
                self.checkpoint()

    def sync(self) -> None:
        """Force buffered WAL frames to stable storage."""
        with self._lock:
            self._writer.sync()

    # -- checkpointing -----------------------------------------------------
    def checkpoint(self) -> Path:
        """Install a snapshot of the current state and truncate the WAL."""
        with self._lock:
            if self._db.in_transaction:
                raise DurabilityError(
                    "cannot checkpoint inside an open transaction")
            if self._closed:
                raise DurabilityError("durable database is closed")
            # A primary fenced while running must stop journaling: the
            # next checkpoint (reached from the mutation path) is where
            # a live-but-superseded primary finds out.
            check_fence(self.data_dir)
            with current_tracer().span("durability.checkpoint") as span:
                self._writer.sync()
                lsn = self._writer.last_lsn
                bytes_before = self.wal_size_bytes()
                path = write_snapshot(self._db, self.data_dir, lsn)
                self._writer.truncate()
                # The first frame of the fresh log names its base, so a
                # bare WAL is self-describing.
                self._writer.append(CHECKPOINT, {"snapshot_lsn": lsn})
                self._writer.sync()
                prune_snapshots(self.data_dir, keep=self.keep_snapshots)
                self._snapshot_lsn = lsn
                self._snapshots_taken += 1
                self._mutations_since_checkpoint = 0
                span.annotate(lsn=lsn, epoch=self._db.epoch)
            self.events.emit("checkpoint", lsn=lsn, epoch=self._db.epoch,
                             snapshot=path.name)
            self.events.emit("wal.rotate", lsn=lsn,
                             bytes_truncated=bytes_before)
            return path

    # -- log shipping ------------------------------------------------------
    def ship(self, after_lsn: int = 0,
             limit: Optional[int] = None) -> Dict[str, Any]:
        """Records for a follower holding everything up to *after_lsn*.

        When the follower is behind the latest checkpoint (its records
        were truncated away) the reply instead carries the newest
        on-disk snapshot under ``"snapshot"`` plus the records after it
        — a full resync.  Disk-based, so it needs no query lock, but it
        holds the durability lock throughout: a concurrent checkpoint
        could otherwise install a snapshot and truncate the WAL between
        the LSN capture and the scan, shipping records with a silent
        gap past the new checkpoint.
        """
        with self._lock:
            if self._closed:
                raise DurabilityError("durable database is closed")
            # A fenced primary must stop shipping: followers move to the
            # new generation instead of tailing superseded history.
            check_fence(self.data_dir)
            # Ship only durable records.  A merely-flushed tail can be
            # lost in a crash, after which the writer reuses those LSNs
            # for different mutations — a follower that applied the
            # originals would skip the replacements and diverge.
            self._writer.sync()
            self._ships += 1
            snapshot_lsn = self._snapshot_lsn
            last = self._writer.last_lsn
            # The primary's view of follower lag: how far behind the
            # most recent pull was (a callback gauge on the exporter).
            self._follower_lag = max(0, last - max(0, after_lsn))
            reply: Dict[str, Any] = {"last_lsn": last,
                                     "snapshot_lsn": snapshot_lsn,
                                     "generation": self.generation}
            base = after_lsn
            if after_lsn < snapshot_lsn:
                snapshots = list_snapshots(self.data_dir)
                if not snapshots:  # pragma: no cover - checkpoint guarantees one
                    raise DurabilityError("no snapshot available for resync")
                lsn, path = snapshots[0]
                reply["snapshot"] = json.loads(path.read_text(encoding="utf-8"))
                reply["resync"] = True
                base = lsn
            scan = read_wal(wal_path(self.data_dir))
            records = [r.as_dict() for r in scan.records if r.lsn > base]
            if limit is not None:
                records = records[:max(0, limit)]
            reply["records"] = records
            return reply

    # -- introspection -----------------------------------------------------
    def wal_size_bytes(self) -> int:
        """The on-disk size of the current WAL generation."""
        try:
            return wal_path(self.data_dir).stat().st_size
        except OSError:
            return 0

    @property
    def writable(self) -> bool:
        """Whether mutations can still be journaled (readiness check)."""
        return not self._closed

    def stats(self) -> Dict[str, Any]:
        """Flat, JSON-ready durability counters (service metrics merge
        these under their dotted names)."""
        with self._lock:
            return {
                "wal.last_lsn": self._writer.last_lsn,
                "wal.records": self._writer.records_written,
                "wal.bytes": self._writer.bytes_written,
                "wal.size_bytes": self.wal_size_bytes(),
                "wal.syncs": self._writer.sync_count,
                "wal.since_checkpoint": self._mutations_since_checkpoint,
                "wal.ships": self._ships,
                "snapshots.taken": self._snapshots_taken,
                "snapshots.lsn": self._snapshot_lsn,
                "recovery.replayed": self.recovery.replayed,
                "recovery.torn_tail": int(self.recovery.torn),
                "replica.lag": self._follower_lag,
            }

    # -- lifecycle ---------------------------------------------------------
    def close(self, checkpoint: bool = False) -> None:
        with self._lock:
            if self._closed:
                return
            if checkpoint and not self._db.in_transaction:
                self.checkpoint()
            self._db.remove_mutation_observer(self._on_commit)
            self._writer.close()
            self._closed = True

    def __enter__(self) -> "DurableDatabase":
        return self

    def __exit__(self, *exc) -> bool:
        self.close()
        return False

    def __repr__(self) -> str:
        return (f"DurableDatabase({str(self.data_dir)!r}, "
                f"last_lsn={self._writer.last_lsn}, "
                f"snapshot_lsn={self._snapshot_lsn})")


def reroot(db: VideoDatabase, lsn: int, data_dir: Union[str, Path], *,
           old_dir: Optional[Union[str, Path]] = None,
           must_fence: bool = False,
           event_log: Optional[EventLog] = None,
           **facts: Any) -> Tuple[DurableDatabase, Dict[str, Any]]:
    """Promotion's one step: continue *db* — the history up to *lsn* —
    as a new primary generation rooted in *data_dir*.

    *old_dir*, the superseded primary's data directory when it is
    reachable from here, is fenced first (a ``fence.json`` marker), so a
    surviving or restarted old primary refuses writes.  A fence that
    cannot be written raises :class:`ClusterError` before anything is
    seeded when *must_fence* is set (offline promotion, which has just
    read that directory), and is otherwise reported as ``fenced:
    False`` (online promotion, whose old disk may be gone).  The new WAL
    continues at ``lsn + 1``, so its head LSN — the new generation —
    supersedes everything the old generation journaled.  Returns the
    new durable database and the promotion details (with *facts*),
    which are also emitted as the ``failover.promoted`` event.
    """
    target = Path(data_dir)
    fenced = False
    if old_dir is not None:
        if target.resolve() == Path(old_dir).resolve():
            raise ClusterError(
                "the new primary needs its own data directory; "
                f"{target} is the old primary's (it gets fenced)")
        try:
            write_fence(old_dir, at_lsn=lsn,
                        generation=head_lsn(wal_path(old_dir)) or 0,
                        promoted_to=str(target))
            fenced = True
        except OSError as error:
            if must_fence:
                raise ClusterError(
                    f"cannot fence the old primary's data directory "
                    f"{old_dir}: {error}") from error
    events = event_log if event_log is not None else get_event_log()
    durable = DurableDatabase(target, seed=db, start_lsn=lsn + 1,
                              event_log=events)
    details = {"promoted": True, "lsn": lsn,
               "generation": durable.generation, "fenced": fenced,
               **facts, "data_dir": str(target)}
    events.emit("failover.promoted", **details)
    return durable, details
