"""Unit tests for failover promotion: election, offline path, fencing."""

import pytest

from vidb.cli import main as vidb_main
from vidb.cluster import ClusterRouter, Promoter, promote_data_dir
from vidb.durability import DurableDatabase, Replica, read_fence
from vidb.errors import ClusterError, FencedError
from vidb.model.oid import Oid
from vidb.service import ServiceClient, ServiceExecutor, VideoServer
from vidb.storage.database import VideoDatabase

from tests.serving import close_replica, serve_replica


def seed_db():
    db = VideoDatabase("seed")
    db.new_entity("a", name="Ana")
    db.new_interval("g1", entities=["a"], duration=[(0, 10)])
    return db


@pytest.fixture
def primary(tmp_path):
    durable = DurableDatabase(tmp_path / "data", seed=seed_db(),
                              fsync="never")
    service = ServiceExecutor(durable)
    server = VideoServer(service).start_background()
    yield server
    server.shutdown()
    service.close()


def make_replica(primary, tmp_path, name):
    return serve_replica(primary.service.durability.data_dir,
                         promote_data_dir=tmp_path / f"promoted-{name}")


class TestElection:
    def test_picks_the_highest_applied_lsn(self, primary, tmp_path):
        behind = make_replica(primary, tmp_path, "behind")
        ahead = make_replica(primary, tmp_path, "ahead")
        try:
            primary.service.db.new_entity("b")
            ahead.service.replicate()  # only this one catches up
            promoter = Promoter([behind.address, ahead.address])
            winner, candidates = promoter.pick()
            assert winner == ahead.address
            by_address = {c["address"]: c for c in candidates}
            ahost, aport = ahead.address
            bhost, bport = behind.address
            assert (by_address[f"{ahost}:{aport}"]["applied_lsn"]
                    > by_address[f"{bhost}:{bport}"]["applied_lsn"])
        finally:
            close_replica(behind)
            close_replica(ahead)

    def test_no_reachable_candidate_raises(self, primary, tmp_path):
        replica = make_replica(primary, tmp_path, "r1")
        address = replica.address
        close_replica(replica)
        promoter = Promoter([address], connect_timeout=0.2)
        with pytest.raises(ClusterError):
            promoter.pick()

    def test_no_candidates_at_all_rejected(self):
        with pytest.raises(ClusterError):
            Promoter([])


class TestOnlinePromotion:
    def test_promote_and_repoint(self, primary, tmp_path):
        replica = make_replica(primary, tmp_path, "r1")
        router = ClusterRouter(primary.address,
                               [replica.address],
                               probe_interval_s=0.05).start()
        try:
            host, port = router.address
            with ServiceClient(host, port) as client:
                client.insert_entity("b")
            replica.service.replicate()
            promoter = Promoter([replica.address])
            result = promoter.promote(router=router.address)
            assert result.winner == replica.address
            assert result.details["promoted"] is True
            rhost, rport = replica.address
            assert router.primary == (rhost, rport)
            # Writes through the router now land on the promoted node.
            with ServiceClient(host, port) as client:
                client.insert_entity("c")
            assert replica.service.db.get(Oid.entity("c")) is not None
        finally:
            router.close()
            close_replica(replica)


class TestOfflinePromotion:
    def test_recovers_fences_and_reroots(self, tmp_path):
        old_dir = tmp_path / "old"
        with DurableDatabase(old_dir, seed=seed_db(), fsync="never") as d:
            d.db.new_entity("b")
            last = d.last_lsn
        new_dir = tmp_path / "new"
        result = promote_data_dir(old_dir, new_dir)
        assert result.winner is None
        assert result.details["lsn"] == last
        assert result.details["generation"] == last + 1
        marker = read_fence(old_dir)
        assert marker is not None and marker["promoted_to"] == str(new_dir)
        # The old generation refuses to serve again...
        with pytest.raises(FencedError):
            DurableDatabase(old_dir)
        # ...while the new one carries the full committed history.
        with DurableDatabase(new_dir) as promoted:
            assert promoted.db.get(Oid.entity("b")) is not None
            assert promoted.last_lsn >= last + 1

    def test_unwritable_fence_refuses_to_promote(self, tmp_path, capsys):
        """Offline promotion has just read the old directory, so a fence
        it cannot write there is a failure, not ``fenced: false``: an
        unfenced old primary would accept writes beside the new one."""
        old_dir, new_dir = tmp_path / "old", tmp_path / "new"
        with DurableDatabase(old_dir, seed=seed_db(), fsync="never") as d:
            d.db.new_entity("b")
        # The fence's temp file cannot be created (a directory is in
        # its place), whatever the process's privileges.
        (old_dir / "fence.json.tmp").mkdir()
        with pytest.raises(ClusterError, match="cannot fence"):
            promote_data_dir(old_dir, new_dir)
        assert not new_dir.exists()  # nothing seeded
        assert vidb_main(["promote", "--offline", str(old_dir),
                          "--data-dir", str(new_dir)]) == 1
        assert "cannot fence" in capsys.readouterr().err
        assert not new_dir.exists()
        assert read_fence(old_dir) is None
        with DurableDatabase(old_dir) as reopened:  # still the primary's
            assert reopened.db.get(Oid.entity("b")) is not None

    def test_same_directory_rejected(self, tmp_path):
        with pytest.raises(ClusterError):
            promote_data_dir(tmp_path / "d", tmp_path / "d")

    def test_new_generation_feeds_replicas(self, tmp_path):
        old_dir, new_dir = tmp_path / "old", tmp_path / "new"
        with DurableDatabase(old_dir, seed=seed_db(), fsync="never") as d:
            d.db.new_entity("b")
        promote_data_dir(old_dir, new_dir)
        follower = Replica.from_data_dir(new_dir)
        assert follower.db.get(Oid.entity("b")) is not None
        assert follower.lag_lsn == 0
