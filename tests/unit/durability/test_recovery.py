"""Unit tests for crash recovery: snapshot choice, replay, fault injection."""

import json

import pytest

from vidb.durability.durable import DurableDatabase
from vidb.durability.records import (
    CHECKPOINT,
    COMMIT,
    encode_commit,
)
from vidb.durability.recovery import recover, replay_records
from vidb.durability.snapshot import snapshot_path, wal_path, write_snapshot
from vidb.durability.wal import WalRecord, WalWriter
from vidb.errors import RecoveryError, WalCorruptionError
from vidb.model.objects import EntityObject
from vidb.model.oid import Oid
from vidb.storage.database import VideoDatabase


def add_entity(oid, **attrs):
    return ("add", EntityObject(Oid.entity(oid), attrs))


def commit_record(lsn, *events):
    return WalRecord(lsn, COMMIT, encode_commit(events))


def entity_record(lsn, oid, **attrs):
    return commit_record(lsn, add_entity(oid, **attrs))


def append_entity(writer, oid, **attrs):
    return writer.append(COMMIT, encode_commit([add_entity(oid, **attrs)]))


class TestReplay:
    def test_bare_records_apply(self):
        db = VideoDatabase("r")
        applied = replay_records(
            db, [entity_record(1, "a"), entity_record(2, "b")])
        assert applied == 2
        assert db.stats()["entities"] == 2

    def test_after_lsn_skips_covered_records(self):
        db = VideoDatabase("r")
        applied = replay_records(
            db, [entity_record(1, "a"), entity_record(2, "b")], after_lsn=1)
        assert applied == 1
        assert db.get(Oid.entity("a")) is None

    def test_committed_transaction_applies_atomically(self):
        db = VideoDatabase("r")
        deltas = []
        db.add_mutation_observer(deltas.append)
        records = [commit_record(1, add_entity("a"), add_entity("b"))]
        assert replay_records(db, records) == 2
        assert db.stats()["entities"] == 2
        # the frame replays as one transaction: one change set
        assert [len(delta) for delta in deltas] == [2]

    def test_failing_commit_applies_nothing(self):
        db = VideoDatabase("r")
        # the second mutation duplicates the first oid
        records = [commit_record(1, add_entity("a"), add_entity("a"))]
        with pytest.raises(RecoveryError, match=r"lsn=1 \(add\)"):
            replay_records(db, records)
        assert db.get(Oid.entity("a")) is None
        assert db.epoch == 0

    def test_unterminated_transaction_is_void(self, tmp_path):
        # a crash mid-transaction: none of its mutations reached the log
        with DurableDatabase(tmp_path, fsync="never") as durable:
            durable.db.new_entity("a")
            with durable.db.transaction():
                durable.db.new_entity("b")
                crashed = recover(tmp_path)
        assert crashed.replayed == 1
        assert crashed.db.get(Oid.entity("a")) is not None
        assert crashed.db.get(Oid.entity("b")) is None

    def test_checkpoint_records_are_skipped(self):
        db = VideoDatabase("r")
        records = [WalRecord(1, CHECKPOINT, {"snapshot_lsn": 0}),
                   entity_record(2, "a")]
        applied = replay_records(db, records)
        assert applied == 1

    def test_unknown_record_type_raises(self):
        # txn_begin: the older begin/commit/abort log layout has no reader
        for kind in ("explode", "txn_begin"):
            with pytest.raises(RecoveryError,
                               match=f"lsn=1 has unknown type '{kind}'"):
                replay_records(VideoDatabase("r"), [WalRecord(1, kind)])

    def test_unknown_mutation_type_raises(self):
        record = WalRecord(1, COMMIT, {"mutations": [["explode", {}]]})
        with pytest.raises(RecoveryError, match="explode"):
            replay_records(VideoDatabase("r"), [record])

    def test_unapplicable_record_raises(self):
        # removing an object that does not exist must not pass silently
        record = WalRecord(1, COMMIT, {"mutations": [[
            "remove_object",
            {"oid": {"$oid": {"kind": "entity", "parts": ["ghost"]}}}]]})
        with pytest.raises(RecoveryError):
            replay_records(VideoDatabase("r"), [record])


class TestRecover:
    def test_empty_directory_recovers_empty(self, tmp_path):
        result = recover(tmp_path, default_name="fresh")
        assert result.empty
        assert result.db.name == "fresh"
        assert result.db.epoch == 0

    def test_snapshot_plus_tail(self, tmp_path):
        db = VideoDatabase("r")
        db.new_entity("a", name="Ana")
        write_snapshot(db, tmp_path, 2)
        with WalWriter(wal_path(tmp_path), fsync="never", next_lsn=1) as w:
            append_entity(w, "covered")      # lsn 1: already in the snapshot
            append_entity(w, "covered2")     # lsn 2: already in the snapshot
            append_entity(w, "tail", name="Tail")  # lsn 3: must replay
        result = recover(tmp_path)
        assert result.snapshot_lsn == 2
        assert result.replayed == 1
        assert result.last_lsn == 3
        assert result.db.entity("tail")["name"] == "Tail"
        assert result.db.get(Oid.entity("covered")) is None

    def test_torn_tail_is_dropped(self, tmp_path):
        with WalWriter(wal_path(tmp_path), fsync="never") as w:
            append_entity(w, "a")
        with wal_path(tmp_path).open("ab") as f:
            f.write(b"\x00\x00\x00")
        result = recover(tmp_path)
        assert result.torn
        assert result.replayed == 1
        assert not result.empty

    def test_midlog_corruption_raises(self, tmp_path):
        with WalWriter(wal_path(tmp_path), fsync="never") as w:
            append_entity(w, "a")
            append_entity(w, "b")
        blob = bytearray(wal_path(tmp_path).read_bytes())
        blob[10] ^= 0xFF  # inside the first frame, second frame intact
        wal_path(tmp_path).write_bytes(bytes(blob))
        with pytest.raises(WalCorruptionError):
            recover(tmp_path)

    def test_corrupt_newest_snapshot_falls_back(self, tmp_path):
        db = VideoDatabase("r")
        db.new_entity("old", name="Old")
        write_snapshot(db, tmp_path, 1)
        snapshot_path(tmp_path, 9).write_text("{broken", encoding="utf-8")
        result = recover(tmp_path)
        assert result.snapshot_lsn == 1
        assert len(result.skipped_snapshots) == 1
        assert result.db.entity("old")["name"] == "Old"

    def test_all_snapshots_corrupt_replays_from_zero(self, tmp_path):
        snapshot_path(tmp_path, 5).write_text("{broken", encoding="utf-8")
        with WalWriter(wal_path(tmp_path), fsync="never") as w:
            append_entity(w, "a")
        result = recover(tmp_path)
        assert result.snapshot_path is None
        assert result.replayed == 1
        assert len(result.skipped_snapshots) == 1

    def test_summary_shape(self, tmp_path):
        summary = recover(tmp_path).summary()
        assert summary == {"snapshot": None, "snapshot_lsn": 0,
                           "last_lsn": 0, "replayed": 0,
                           "torn_tail": False, "skipped_snapshots": 0}
        json.dumps(summary)  # must stay JSON-serializable for the CLI
