"""Crash recovery: latest valid snapshot + committed WAL tail.

The contract the fault-injection tests pin down:

* A **torn final frame** (crash mid-append) is silently dropped —
  everything before it replays normally.
* A **corrupt frame mid-log** raises
  :class:`~vidb.errors.WalCorruptionError`; recovery never replays past
  damage.
* A **missing or unreadable snapshot** falls back to the next older
  snapshot, and finally to an empty database replayed from LSN 0; an
  unreadable snapshot is never half-loaded.
* **Transaction atomicity**: each ``commit`` frame holds one whole
  committed change set and applies as one transaction.  A rolled-back
  transaction never reaches the log, and a crash mid-transaction
  leaves nothing of it there, so the log holds only committed history.

Recovery is observable: it opens ``recover`` / ``recover.snapshot`` /
``recover.replay`` spans on the ambient :mod:`vidb.obs` tracer.
"""

from __future__ import annotations

from pathlib import Path
from typing import List, Optional, Tuple, Union

from vidb.errors import SnapshotError
from vidb.obs import current_tracer
from vidb.storage.database import VideoDatabase

from vidb.durability.records import apply_record
from vidb.durability.snapshot import list_snapshots, load_snapshot, wal_path
from vidb.durability.wal import WalRecord, read_wal


class RecoveryResult:
    """What recovery reconstructed, and how."""

    __slots__ = ("db", "snapshot_path", "snapshot_lsn", "last_lsn",
                 "replayed", "torn", "skipped_snapshots", "wal_offset")

    def __init__(self, db: VideoDatabase, snapshot_path: Optional[Path],
                 snapshot_lsn: int, last_lsn: int, replayed: int,
                 torn: bool,
                 skipped_snapshots: List[Tuple[Path, str]],
                 wal_offset: int):
        self.db = db
        self.snapshot_path = snapshot_path
        self.snapshot_lsn = snapshot_lsn
        #: Highest LSN seen in the WAL; the writer must continue from
        #: ``last_lsn + 1``.
        self.last_lsn = last_lsn
        #: Mutations replayed from the WAL tail.
        self.replayed = replayed
        self.torn = torn
        self.skipped_snapshots = skipped_snapshots
        self.wal_offset = wal_offset

    @property
    def empty(self) -> bool:
        """True when the data directory held no state at all."""
        return (self.snapshot_path is None and self.last_lsn == 0
                and not self.torn)

    def summary(self) -> dict:
        return {
            "snapshot": str(self.snapshot_path) if self.snapshot_path else None,
            "snapshot_lsn": self.snapshot_lsn,
            "last_lsn": self.last_lsn,
            "replayed": self.replayed,
            "torn_tail": self.torn,
            "skipped_snapshots": len(self.skipped_snapshots),
        }

    def __repr__(self) -> str:
        return (f"RecoveryResult(snapshot_lsn={self.snapshot_lsn}, "
                f"last_lsn={self.last_lsn}, replayed={self.replayed}, "
                f"torn={self.torn})")


def replay_records(db: VideoDatabase, records: List[WalRecord],
                   after_lsn: int = 0) -> int:
    """Apply the records with LSN > *after_lsn*, one commit at a time;
    returns the number of mutations applied."""
    return sum(apply_record(db, record) for record in records
               if record.lsn > after_lsn)


def _load_latest_snapshot(data_dir: Union[str, Path], default_name: str
                          ) -> Tuple[VideoDatabase, int, Optional[Path],
                                     List[Tuple[Path, str]]]:
    skipped: List[Tuple[Path, str]] = []
    for _lsn, path in list_snapshots(data_dir):
        try:
            db, covered = load_snapshot(path)
            return db, covered, path, skipped
        except SnapshotError as error:
            skipped.append((path, str(error)))
    return VideoDatabase(default_name), 0, None, skipped


def recover(data_dir: Union[str, Path], *,
            default_name: str = "video",
            tracer=None) -> RecoveryResult:
    """Reconstruct the database a data directory describes.

    Raises :class:`~vidb.errors.WalCorruptionError` on mid-log damage
    and :class:`~vidb.errors.RecoveryError` when an intact, committed
    record fails to apply — never returns silently-wrong state.
    """
    tracer = tracer or current_tracer()
    data_dir = Path(data_dir)
    with tracer.span("recover", data_dir=str(data_dir)) as span:
        with tracer.span("recover.snapshot") as snap_span:
            db, snapshot_lsn, snapshot_file, skipped = _load_latest_snapshot(
                data_dir, default_name)
            snap_span.annotate(snapshot_lsn=snapshot_lsn,
                               skipped=len(skipped))
        with tracer.span("recover.replay") as replay_span:
            scan = read_wal(wal_path(data_dir))
            applied = replay_records(db, scan.records,
                                     after_lsn=snapshot_lsn)
            replay_span.annotate(records=len(scan.records), applied=applied,
                                 torn=scan.torn)
        last_lsn = max(snapshot_lsn, scan.last_lsn)
        span.annotate(last_lsn=last_lsn, epoch=db.epoch)
    return RecoveryResult(db, snapshot_file, snapshot_lsn, last_lsn,
                          applied, scan.torn, skipped,
                          scan.offset)
