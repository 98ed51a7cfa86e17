"""Unit tests for the serving replica (read tier + in-place promotion)."""

import pytest

from vidb.cluster import ReplicaServer
from vidb.durability import DurableDatabase, read_fence
from vidb.errors import (
    ClusterError,
    FencedError,
    ReadOnlyError,
    ReplicaLagError,
)
from vidb.service.server import ServiceClient
from vidb.storage.database import VideoDatabase


def seed_db():
    db = VideoDatabase("seed")
    db.new_entity("a", name="Ana")
    db.new_interval("g1", entities=["a"], duration=[(0, 10)])
    return db


@pytest.fixture
def primary(tmp_path):
    with DurableDatabase(tmp_path / "data", seed=seed_db(),
                         fsync="never") as d:
        yield d


@pytest.fixture
def replica_server(tmp_path, primary):
    # No poll thread: tests drive replication explicitly via poll_once().
    server = ReplicaServer.from_data_dir(
        primary.data_dir, lsn_wait_s=0.05,
        promote_data_dir=tmp_path / "promoted")
    server.server.start_background()
    yield server
    server.close()


def client_for(server):
    host, port = server.address
    return ServiceClient(host, port)


class TestServing:
    def test_serves_reads_from_bootstrap_state(self, replica_server):
        with client_for(replica_server) as client:
            reply = client.query("?- object(O).")
            assert reply["count"] == 1

    def test_rejects_writes_with_read_only(self, replica_server):
        with client_for(replica_server) as client:
            with pytest.raises(ReadOnlyError):
                client.insert_entity("b")

    def test_reports_position_via_wal_op(self, primary, replica_server):
        primary.db.new_entity("b")
        replica_server.poll_once()
        with client_for(replica_server) as client:
            reply = client.wal()
        assert reply["role"] == "replica"
        assert reply["read_only"] is True
        assert reply["applied_lsn"] == primary.last_lsn
        assert reply["lag_lsn"] == 0

    def test_info_reports_replica_role(self, replica_server):
        with client_for(replica_server) as client:
            info = client.info()
        assert info["role"] == "replica"
        assert info["read_only"] is True
        assert "lsn" in info

    def test_replication_visible_to_queries(self, primary, replica_server):
        primary.db.new_entity("b", name="Ben")
        applied = replica_server.poll_once()
        assert applied >= 1
        with client_for(replica_server) as client:
            assert client.query("?- object(O).")["count"] == 2

    def test_standing_query_gets_one_batch_per_primary_commit(
            self, primary, replica_server):
        sub = replica_server.service.subscribe("?- object(O).")
        with primary.db.transaction():
            for oid in ("b", "c", "d"):
                primary.db.new_entity(oid)
        replica_server.poll_once()
        [batch] = sub.poll()
        assert batch["rows"] == [["b"], ["c"], ["d"]]
        assert batch["epoch"] == primary.db.epoch

    def test_readiness_includes_source(self, replica_server):
        checks = replica_server.readiness()
        assert checks["executor"] is True
        assert checks["replica"] is True
        assert checks["source"] is True

    def test_metrics_include_lag_gauges(self, replica_server):
        snapshot = replica_server.service.snapshot()
        assert "replica.lag_lsn" in snapshot
        assert "replica.applied_lsn" in snapshot


class TestSessionConsistency:
    def test_read_at_applied_lsn_serves(self, primary, replica_server):
        primary.db.new_entity("b")
        replica_server.poll_once()
        with client_for(replica_server) as client:
            reply = client.query("?- object(O).",
                                 min_lsn=primary.last_lsn)
            assert reply["count"] == 2

    def test_read_beyond_applied_lsn_fails_lagging(self, primary,
                                                   replica_server):
        primary.db.new_entity("b")  # journaled but not yet polled
        with client_for(replica_server) as client:
            with pytest.raises(ReplicaLagError):
                client.query("?- object(O).",
                             min_lsn=primary.last_lsn, wait_s=0.01)

    def test_wait_succeeds_once_caught_up(self, primary, replica_server):
        primary.db.new_entity("b")
        token = primary.last_lsn
        replica_server.poll_once()
        with client_for(replica_server) as client:
            assert client.query("?- object(O).",
                                min_lsn=token)["count"] == 2

    def test_bad_min_lsn_is_protocol_error(self, replica_server):
        from vidb.errors import ProtocolError

        with client_for(replica_server) as client:
            with pytest.raises(ProtocolError):
                client.request("query", query="?- object(O).",
                               min_lsn="nope")


class TestResyncRebind:
    def test_checkpoint_truncation_forces_resync_and_rebind(
            self, tmp_path, primary):
        server = ReplicaServer.from_data_dir(
            primary.data_dir, promote_data_dir=tmp_path / "promoted")
        server.server.start_background()
        try:
            server.poll_once()
            old_db = server.service.db
            # Enough traffic to checkpoint twice: the records between
            # the replica's position and the new log head are gone.
            for index in range(6):
                primary.db.new_entity(f"bulk{index}")
            primary.checkpoint()
            primary.db.new_entity("after")
            server.poll_once()
            assert server.replica.resyncs >= 1 or server.replica.lag() == 0
            # The executor must serve the *new* database object.
            assert server.service.db is server.replica.db
            if server.replica.resyncs > 1:
                assert server.service.db is not old_db
            with client_for(server) as client:
                count = client.query("?- object(O).")["count"]
            assert count == len(list(primary.db.entities()))
        finally:
            server.close()


class TestPromotion:
    def test_promote_flips_to_writable_primary(self, tmp_path, primary,
                                               replica_server):
        primary.db.new_entity("b")
        replica_server.poll_once()
        old_last = primary.last_lsn
        result = replica_server.promote()
        assert result["promoted"] is True
        assert result["lsn"] == old_last
        assert result["generation"] > old_last
        assert result["fenced"] is True
        with client_for(replica_server) as client:
            reply = client.insert_entity("c")
            assert reply["head_lsn"] > old_last
            info = client.info()
        assert info["role"] == "primary"
        assert info["read_only"] is False

    def test_promote_fences_the_old_generation(self, tmp_path, primary,
                                               replica_server):
        replica_server.promote()
        marker = read_fence(primary.data_dir)
        assert marker is not None and marker["fenced"] is True
        # A restarted old primary refuses the directory outright.
        primary.close()
        with pytest.raises(FencedError):
            DurableDatabase(primary.data_dir)

    def test_live_fenced_primary_fails_at_checkpoint(self, tmp_path):
        with DurableDatabase(tmp_path / "data", seed=seed_db(),
                             fsync="never", checkpoint_every=1) as live:
            server = ReplicaServer.from_data_dir(
                live.data_dir, promote_data_dir=tmp_path / "promoted")
            server.server.start_background()
            try:
                server.poll_once()
                server.promote()
                # checkpoint_every=1: the next mutation reaches the
                # checkpoint path, which re-checks the fence.
                with pytest.raises(FencedError):
                    live.db.new_entity("zombie")
            finally:
                server.close()

    def test_promoted_lsns_continue_the_sequence(self, primary,
                                                 replica_server):
        primary.db.new_entity("b")
        replica_server.poll_once()
        applied = replica_server.replica.applied_lsn
        replica_server.promote()
        durable = replica_server.service.durability
        assert durable is not None
        assert durable.last_lsn >= applied + 1
        assert durable.generation == applied + 1

    def test_double_promotion_rejected(self, replica_server):
        replica_server.promote()
        with pytest.raises(ClusterError):
            replica_server.promote()

    def test_promotion_into_source_dir_rejected(self, primary,
                                                replica_server):
        with pytest.raises(ClusterError):
            replica_server.promote(data_dir=primary.data_dir)

    def test_promotion_needs_a_target_dir(self, primary):
        server = ReplicaServer.from_data_dir(primary.data_dir)
        server.server.start_background()
        try:
            with pytest.raises(ClusterError):
                server.promote()
        finally:
            server.close()

    def test_promote_op_over_the_wire(self, tmp_path, primary,
                                      replica_server):
        with client_for(replica_server) as client:
            reply = client.promote(
                data_dir=str(tmp_path / "wire-promoted"))
            assert reply["promoted"] is True
            assert client.insert_entity("c")["ok"] is True

    def test_promote_op_rejected_on_plain_server(self, tmp_path):
        from vidb.service import ServiceExecutor, VideoServer

        with ServiceExecutor(seed_db()) as service:
            with VideoServer(service) as server:
                server.start_background()
                host, port = server.address
                with ServiceClient(host, port) as client:
                    with pytest.raises(ClusterError):
                        client.promote()

    def test_old_history_can_rejoin_as_replica(self, tmp_path, primary,
                                               replica_server):
        """The stale generation re-enters the cluster as a follower of
        the new primary (its own directory stays fenced)."""
        primary.db.new_entity("b")
        replica_server.poll_once()
        replica_server.promote()
        new_dir = replica_server.service.durability.data_dir
        from vidb.durability import Replica

        follower = Replica.from_data_dir(new_dir)
        assert follower.applied_lsn >= replica_server.replica.applied_lsn
        assert set(follower.db.entities()) == set(
            replica_server.service.db.entities())
