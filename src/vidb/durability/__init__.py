"""vidb.durability — write-ahead logging, snapshots, recovery, replicas.

The robustness layer under the serving system (see
``docs/DURABILITY.md``):

* :mod:`vidb.durability.wal` — length-prefixed, CRC32-checksummed JSON
  frames with monotonic LSNs and configurable fsync policy;
* :mod:`vidb.durability.records` — typed mutation records and their
  replay semantics;
* :mod:`vidb.durability.snapshot` — atomic temp-file+rename snapshot
  installs and WAL truncation;
* :mod:`vidb.durability.recovery` — latest-valid-snapshot + committed
  WAL tail reconstruction, tolerant of a torn final record;
* :mod:`vidb.durability.durable` — :class:`DurableDatabase`, the live
  database journaling every commit as one WAL frame;
* :mod:`vidb.durability.replica` — log-shipping read replicas over the
  filesystem or the wire protocol.
"""

from vidb.durability.durable import DurableDatabase
from vidb.durability.recovery import RecoveryResult, recover, replay_records
from vidb.durability.records import apply_record
from vidb.durability.replica import (
    FileWalSource,
    Replica,
    ServerWalSource,
    ShipBatch,
)
from vidb.durability.snapshot import (
    list_snapshots,
    load_snapshot,
    prune_snapshots,
    snapshot_path,
    wal_path,
    write_snapshot,
)
from vidb.durability.wal import (
    FSYNC_POLICIES,
    WalReadResult,
    WalRecord,
    WalWriter,
    check_fence,
    fence_path,
    head_lsn,
    read_fence,
    read_wal,
    write_fence,
)

__all__ = [
    "DurableDatabase",
    "FSYNC_POLICIES",
    "FileWalSource",
    "RecoveryResult",
    "Replica",
    "ServerWalSource",
    "ShipBatch",
    "WalReadResult",
    "WalRecord",
    "WalWriter",
    "apply_record",
    "check_fence",
    "fence_path",
    "head_lsn",
    "list_snapshots",
    "read_fence",
    "write_fence",
    "load_snapshot",
    "prune_snapshots",
    "read_wal",
    "recover",
    "replay_records",
    "snapshot_path",
    "wal_path",
    "write_snapshot",
]
