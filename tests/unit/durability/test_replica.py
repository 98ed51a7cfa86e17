"""Unit tests for log-shipping replicas (file and server transports)."""

import pytest

from vidb.durability.durable import DurableDatabase
from vidb.durability.records import COMMIT, encode_commit
from vidb.durability.replica import Replica, ShipBatch
from vidb.durability.wal import WalRecord
from vidb.errors import ReplicationError
from vidb.model.oid import Oid
from vidb.storage.database import VideoDatabase


def seed_db():
    db = VideoDatabase("seed")
    db.new_entity("a", name="Ana")
    db.new_interval("g1", entities=["a"], duration=[(0, 10)])
    return db


def assert_converged(replica, primary):
    assert replica.lag_lsn == 0
    assert replica.db.stats() == primary.db.stats()
    assert replica.db.epoch == primary.db.epoch
    assert set(replica.db.entities()) == set(primary.db.entities())
    assert replica.db.facts() == primary.db.facts()


@pytest.fixture
def primary(tmp_path):
    with DurableDatabase(tmp_path / "data", seed=seed_db(),
                         fsync="never") as d:
        yield d


class TestFileReplica:
    def test_missing_directory_rejected(self, tmp_path):
        with pytest.raises(ReplicationError):
            Replica.from_data_dir(tmp_path / "nope")

    def test_bootstrap_loads_snapshot(self, primary):
        replica = Replica.from_data_dir(primary.data_dir)
        assert replica.db.entity("a")["name"] == "Ana"
        assert replica.resyncs == 1

    def test_tailing_converges(self, primary):
        replica = Replica.from_data_dir(primary.data_dir)
        primary.db.new_entity("b", name="Ben")
        primary.db.relate("in", primary.db.entity("b"),
                          primary.db.interval("g1"))
        replica.poll()
        assert_converged(replica, primary)
        # idempotent: nothing new applied on a quiet log
        assert replica.poll() == 0
        assert replica.lag_lsn == 0

    def test_rotation_triggers_resync_only_when_behind(self, primary):
        replica = Replica.from_data_dir(primary.data_dir)
        primary.db.new_entity("b")
        replica.poll()
        position = replica.applied_lsn
        primary.checkpoint()               # truncates the WAL under us
        primary.db.new_entity("c")
        replica.poll()
        assert_converged(replica, primary)
        # the replica had everything up to the checkpoint already, so it
        # should have rewound its offset, not reloaded the snapshot
        assert replica.resyncs == 1
        assert replica.applied_lsn > position

    def test_rotation_resync_when_records_were_truncated(self, primary):
        replica = Replica.from_data_dir(primary.data_dir)
        primary.db.new_entity("b")
        primary.checkpoint()               # replica never saw lsn of "b"
        primary.db.new_entity("c")
        replica.poll()
        assert_converged(replica, primary)
        assert replica.resyncs == 2        # bootstrap + genuine resync

    def test_aborted_transactions_never_surface(self, primary):
        replica = Replica.from_data_dir(primary.data_dir)
        with pytest.raises(RuntimeError):
            with primary.db.transaction():
                primary.db.new_entity("ghost")
                raise RuntimeError("boom")
        with primary.db.transaction():
            primary.db.new_entity("real")
        replica.poll()
        assert_converged(replica, primary)
        assert replica.db.get(Oid.entity("ghost")) is None
        assert replica.records_applied == 1  # "real" only

    def test_primary_commit_is_one_delta_on_the_replica(self, primary):
        from vidb.stream.hub import CommittedDelta, StreamHub

        replica = Replica.from_data_dir(primary.data_dir)
        deltas = []
        StreamHub(replica.db).add_consumer(deltas.append)
        pre_epoch = primary.db.epoch
        with primary.db.transaction():
            primary.db.new_entity("b")
            primary.db.new_entity("c")
            primary.db.relate("in", primary.db.entity("b"),
                              primary.db.interval("g1"))
        replica.poll()
        assert_converged(replica, primary)
        [delta] = deltas
        assert isinstance(delta, CommittedDelta)
        assert [event[0] for event in delta.events] == \
            ["add", "add", "relate"]
        assert (delta.pre_epoch, delta.epoch) == \
            (pre_epoch, primary.db.epoch)

    def test_stats_shape(self, primary):
        replica = Replica.from_data_dir(primary.data_dir)
        stats = replica.stats()
        for key in ("replica.applied_lsn", "replica.visible_lsn",
                    "replica.lag", "replica.records_applied",
                    "replica.polls",
                    "replica.resyncs"):
            assert key in stats


def _rel(lsn, name):
    return WalRecord(lsn, COMMIT, encode_commit([("declare_relation", name)]))


class GappySource:
    """Ships a batch with an LSN gap; serves a resync on ``fetch(-1)``.

    Models the race the durability lock now prevents on the primary: a
    checkpoint truncating records between the follower's position and
    the shipped batch.  The replica must notice the gap and force a
    resync rather than silently skip the truncated records.
    """

    def __init__(self):
        self.resync_requests = 0

    def bootstrap(self):
        return ShipBatch([_rel(1, "r1")], 1)

    def fetch(self, after_lsn):
        if after_lsn == -1:
            self.resync_requests += 1
            db = VideoDatabase("snap")
            db.declare_relation("r1")
            db.declare_relation("r2")  # the record the gap would skip
            return ShipBatch([_rel(4, "r3")], 4, resync_db=db, resync_lsn=3)
        return ShipBatch([_rel(4, "r3")], 4)  # gap: follower holds LSN 1


class StubbornGapSource(GappySource):
    def fetch(self, after_lsn):  # never closes the gap, even on resync
        return ShipBatch([_rel(4, "r3")], 4)


class TestGapDetection:
    def test_lsn_gap_forces_resync(self):
        source = GappySource()
        replica = Replica(source)
        assert replica.applied_lsn == 1
        replica.poll()
        assert source.resync_requests == 1
        assert replica.resyncs == 1
        assert replica.applied_lsn == 4
        assert replica.lag_lsn == 0
        # the truncated record arrived via the snapshot, not skipped
        assert replica.db.relation_names() >= {"r1", "r2", "r3"}

    def test_unclosable_gap_raises(self):
        replica = Replica(StubbornGapSource())
        with pytest.raises(ReplicationError):
            replica.poll()


class TestServerReplica:
    @pytest.fixture
    def served(self, tmp_path):
        from vidb.service.executor import ServiceExecutor
        from vidb.service.server import ServiceClient, VideoServer

        durable = DurableDatabase(tmp_path / "data", seed=seed_db(),
                                  fsync="never")
        service = ServiceExecutor(durable, max_workers=2)
        server = VideoServer(service).start_background()
        client = ServiceClient(*server.address)
        try:
            yield durable, client
        finally:
            client.close()
            server.shutdown()
            service.close()

    def test_bootstrap_and_tail_over_the_wire(self, served):
        durable, client = served
        client.insert_entity("b", name="Ben")
        replica = Replica.from_client(client)
        assert replica.resyncs == 1        # bootstrap is a forced resync
        client.insert_entity("c", name="Cy")
        replica.poll()
        assert replica.lag_lsn == 0
        assert replica.db.entity("c")["name"] == "Cy"
        assert replica.db.stats() == durable.db.stats()
        assert replica.db.epoch == durable.db.epoch

    def test_follower_behind_checkpoint_gets_snapshot(self, served):
        durable, client = served
        replica = Replica.from_client(client)
        client.insert_entity("b")
        durable.checkpoint()
        client.insert_entity("c")
        replica.poll()
        assert replica.lag_lsn == 0
        assert replica.db.get(Oid.entity("b")) is not None
        assert replica.db.get(Oid.entity("c")) is not None

    def test_wal_op_requires_durable_service(self, tmp_path):
        from vidb.errors import ServiceError
        from vidb.service.executor import ServiceExecutor
        from vidb.service.server import ServiceClient, VideoServer

        service = ServiceExecutor(seed_db(), max_workers=2)
        server = VideoServer(service).start_background()
        client = ServiceClient(*server.address)
        try:
            with pytest.raises(ServiceError):
                client.wal(after=0)
        finally:
            client.close()
            server.shutdown()
            service.close()
