"""Unit tests for DurableDatabase: journaling, checkpoints, shipping."""

import pytest

from vidb.durability.durable import DurableDatabase
from vidb.durability.recovery import recover
from vidb.durability.snapshot import list_snapshots, wal_path
from vidb.errors import DurabilityError
from vidb.model.oid import Oid
from vidb.storage.database import VideoDatabase


def seed_db():
    db = VideoDatabase("seed")
    db.new_entity("a", name="Ana")
    db.new_interval("g1", entities=["a"], duration=[(0, 10)])
    return db


def assert_same_state(left, right):
    assert left.stats() == right.stats()
    assert left.epoch == right.epoch
    assert set(left.entities()) == set(right.entities())
    assert set(left.intervals()) == set(right.intervals())
    assert left.facts() == right.facts()


class TestJournaling:
    def test_reopen_reproduces_state_and_epoch(self, tmp_path):
        with DurableDatabase(tmp_path, seed=seed_db(), fsync="never") as d:
            d.db.new_entity("b", name="Ben")
            d.db.relate("in", d.db.entity("b"), d.db.interval("g1"))
            d.db.set_attribute("a", "name", "Ana2")
            d.db.remove_object(Oid.entity("b"))
            primary = d.db
        result = recover(tmp_path)
        assert_same_state(primary, result.db)

    def test_committed_transaction_survives(self, tmp_path):
        with DurableDatabase(tmp_path, seed=seed_db(), fsync="never") as d:
            with d.db.transaction():
                d.db.new_entity("t1")
                d.db.new_entity("t2")
            primary = d.db
        recovered = recover(tmp_path).db
        assert_same_state(primary, recovered)
        assert recovered.stats()["entities"] == 3

    def test_rolled_back_transaction_is_void(self, tmp_path):
        with DurableDatabase(tmp_path, seed=seed_db(), fsync="never") as d:
            with pytest.raises(RuntimeError):
                with d.db.transaction():
                    d.db.new_entity("ghost")
                    d.db.set_attribute("a", "name", "Zoe")
                    raise RuntimeError("boom")
            primary = d.db
        result = recover(tmp_path)
        assert result.replayed == 0  # the rollback journaled nothing
        assert_same_state(primary, result.db)
        assert result.db.get(Oid.entity("ghost")) is None
        assert result.db.entity("a")["name"] == "Ana"

    def test_failed_commit_append_keeps_later_writes(self, tmp_path):
        # The WAL append fails while a transaction commits.  The error
        # reaches the committing caller, and every later acknowledged
        # autocommit write still recovers: the failed commit must not
        # leave a half-open transaction in the log that swallows them.
        with DurableDatabase(tmp_path, seed=seed_db(), fsync="never") as d:
            append = d._writer.append
            armed = []

            def failing_append(type_, data):
                if armed:
                    armed.clear()
                    raise OSError("disk full")
                return append(type_, data)

            d._writer.append = failing_append
            with pytest.raises(OSError, match="disk full"):
                with d.db.transaction():
                    d.db.new_entity("o1")
                    armed.append(True)  # the next append is the commit's
            d.db.new_entity("o2")
            d.db.set_attribute("a", "name", "Ana2")
        recovered = recover(tmp_path).db
        assert recovered.get(Oid.entity("o2")) is not None
        assert recovered.entity("a")["name"] == "Ana2"
        assert recovered.get(Oid.entity("o1")) is None  # never journaled

    def test_append_after_torn_tail_stays_recoverable(self, tmp_path):
        # recover → append → recover: the torn fragment must be cut off
        # before new frames land, otherwise the second recovery sees a
        # corrupt frame mid-log and refuses to start.
        with DurableDatabase(tmp_path, seed=seed_db(), fsync="never") as d:
            d.db.new_entity("before-crash")
        with wal_path(tmp_path).open("ab") as f:
            f.write(b"\x00\x00\x00\x99TORN")  # crash mid-append
        with DurableDatabase(tmp_path, fsync="never") as d:
            assert d.recovery.torn
            d.db.new_entity("after-crash")
            primary = d.db
        result = recover(tmp_path)
        assert not result.torn
        assert_same_state(primary, result.db)
        assert result.db.get(Oid.entity("before-crash")) is not None
        assert result.db.get(Oid.entity("after-crash")) is not None

    def test_mutation_after_close_raises(self, tmp_path):
        d = DurableDatabase(tmp_path, fsync="never")
        db = d.db
        d.close()
        db.new_entity("fine-after-detach")  # observer was removed: allowed
        d2 = DurableDatabase(tmp_path, fsync="never")
        d2._closed = True  # simulate a race: observer fires after close
        with pytest.raises(DurabilityError):
            d2.db.new_entity("lost")


class TestOneFramePerCommit:
    def test_autocommit_write_is_one_frame(self, tmp_path):
        with DurableDatabase(tmp_path, fsync="never") as d:
            before = d.stats()["wal.records"]
            d.db.new_entity("o1")
            assert d.stats()["wal.records"] == before + 1

    def test_transaction_is_one_frame(self, tmp_path):
        with DurableDatabase(tmp_path, fsync="never") as d:
            before = d.stats()["wal.records"]
            with d.db.transaction():
                for i in range(3):
                    d.db.new_entity(f"o{i}")
            stats = d.stats()
            assert stats["wal.records"] == before + 1
            assert stats["wal.since_checkpoint"] == 3  # mutations

    def test_rolled_back_and_empty_transactions_append_nothing(
            self, tmp_path):
        with DurableDatabase(tmp_path, seed=seed_db(), fsync="never") as d:
            before = d.stats()["wal.records"]
            with pytest.raises(RuntimeError):
                with d.db.transaction():
                    d.db.new_entity("ghost")
                    raise RuntimeError("boom")
            with d.db.transaction():
                pass
            assert d.stats()["wal.records"] == before

    def test_service_write_and_batch_are_one_frame_each(self, tmp_path):
        from vidb.service.executor import ServiceExecutor
        from vidb.service.server import ServiceClient, VideoServer

        durable = DurableDatabase(tmp_path, fsync="never")
        service = ServiceExecutor(durable, max_workers=1)
        server = VideoServer(service).start_background()
        try:
            with ServiceClient(*server.address) as client:
                before = client.metrics()["wal.records"]
                client.insert_entity("o0")
                assert client.metrics()["wal.records"] == before + 1
                client.batch([{"op": "insert_entity", "oid": f"o{i}",
                               "attributes": {}} for i in range(1, 51)])
                assert client.metrics()["wal.records"] == before + 2
        finally:
            server.shutdown()
            service.close()
            durable.close()
        assert recover(tmp_path).db.stats()["entities"] == 51


class TestSeeding:
    def test_seed_populates_fresh_directory(self, tmp_path):
        with DurableDatabase(tmp_path, seed=seed_db(), fsync="never") as d:
            assert d.seeded
            assert d.db.stats()["entities"] == 1
        assert list_snapshots(tmp_path)  # initial snapshot installed

    def test_recovered_state_beats_seed(self, tmp_path):
        with DurableDatabase(tmp_path, seed=seed_db(), fsync="never") as d:
            d.db.new_entity("kept")
        other = VideoDatabase("other")
        with DurableDatabase(tmp_path, seed=other, fsync="never") as d:
            assert not d.seeded
            assert d.db.get(Oid.entity("kept")) is not None

    def test_fresh_directory_without_seed_is_empty(self, tmp_path):
        with DurableDatabase(tmp_path, name="blank", fsync="never") as d:
            assert d.db.name == "blank"
            assert d.db.epoch == 0


class TestCheckpoints:
    def test_auto_checkpoint_truncates_wal(self, tmp_path):
        with DurableDatabase(tmp_path, fsync="never",
                             checkpoint_every=3) as d:
            for i in range(7):
                d.db.new_entity(f"o{i}")
            assert d.stats()["snapshots.taken"] >= 2
            assert d.stats()["wal.since_checkpoint"] < 3
        recovered = recover(tmp_path).db
        assert recovered.stats()["entities"] == 7

    def test_no_checkpoint_inside_transaction(self, tmp_path):
        with DurableDatabase(tmp_path, fsync="never",
                             checkpoint_every=2) as d:
            taken = d.stats()["snapshots.taken"]
            with d.db.transaction():
                for i in range(10):  # would trip checkpoint_every mid-txn
                    d.db.new_entity(f"o{i}")
                assert d.stats()["snapshots.taken"] == taken
                with pytest.raises(DurabilityError):
                    d.checkpoint()
            # the commit that passed the count checkpointed after itself
            assert d.stats()["snapshots.taken"] == taken + 1
            assert d.snapshot_lsn == d.last_lsn - 1  # + the checkpoint frame
            d.checkpoint()  # fine once committed
        assert recover(tmp_path).db.stats()["entities"] == 10

    def test_checkpoint_prunes_old_snapshots(self, tmp_path):
        with DurableDatabase(tmp_path, fsync="never",
                             keep_snapshots=2) as d:
            for i in range(4):
                d.db.new_entity(f"o{i}")
                d.checkpoint()
            assert len(list_snapshots(tmp_path)) <= 2


class TestShipping:
    def test_up_to_date_follower_gets_nothing(self, tmp_path):
        with DurableDatabase(tmp_path, seed=seed_db(), fsync="never") as d:
            reply = d.ship(after_lsn=d.last_lsn)
            assert reply["records"] == []
            assert "snapshot" not in reply

    def test_stale_follower_gets_resync(self, tmp_path):
        with DurableDatabase(tmp_path, seed=seed_db(), fsync="never") as d:
            d.db.new_entity("x")
            d.checkpoint()
            reply = d.ship(after_lsn=-1)
            assert reply["resync"] is True
            assert reply["snapshot"]["wal_lsn"] == d.snapshot_lsn

    def test_ship_fsyncs_before_exposing_records(self, tmp_path):
        # A follower must only ever see durable LSNs: a flushed-but-lost
        # tail would be reassigned to different mutations after a crash.
        with DurableDatabase(tmp_path, fsync="never") as d:
            d.db.new_entity("x")
            before = d.stats()["wal.syncs"]
            d.ship(after_lsn=d.snapshot_lsn)
            assert d.stats()["wal.syncs"] == before + 1

    def test_limit_caps_records(self, tmp_path):
        with DurableDatabase(tmp_path, fsync="never") as d:
            for i in range(5):
                d.db.new_entity(f"o{i}")
            reply = d.ship(after_lsn=d.snapshot_lsn, limit=2)
            assert len(reply["records"]) == 2


class TestWrapper:
    def test_reads_delegate_to_inner_database(self, tmp_path):
        with DurableDatabase(tmp_path, seed=seed_db(), fsync="never") as d:
            assert d.entity("a")["name"] == "Ana"
            assert d.epoch == d.db.epoch
            assert d.stats()["wal.last_lsn"] == d.last_lsn  # stats NOT delegated

    def test_stats_keys(self, tmp_path):
        with DurableDatabase(tmp_path, fsync="never") as d:
            stats = d.stats()
        for key in ("wal.last_lsn", "wal.records", "wal.bytes", "wal.syncs",
                    "wal.since_checkpoint", "wal.ships", "snapshots.taken",
                    "snapshots.lsn", "recovery.replayed",
                    "recovery.torn_tail"):
            assert key in stats

    def test_close_with_checkpoint(self, tmp_path):
        d = DurableDatabase(tmp_path, fsync="never")
        d.db.new_entity("x")
        d.close(checkpoint=True)
        assert wal_path(tmp_path).stat().st_size > 0  # checkpoint frame
        result = recover(tmp_path)
        assert result.replayed == 0  # everything inside the snapshot
        assert result.db.stats()["entities"] == 1
