"""Unit tests for the serving replica: a read-only ``ServiceExecutor``
over a ``Replica`` (read tier, following, in-place promotion)."""

import os
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from vidb.cli import main as vidb_main
from vidb.durability import DurableDatabase, Replica, read_fence
from vidb.durability.records import COMMIT, encode_commit
from vidb.durability.replica import ShipBatch
from vidb.durability.wal import WalRecord
from vidb.errors import (
    ClusterError,
    FencedError,
    ReadOnlyError,
    ReplicaLagError,
    VidbError,
)
from vidb.obs.events import EventLog
from vidb.service import ServiceExecutor, VideoServer
from vidb.service.server import ServiceClient
from vidb.storage.database import VideoDatabase

from tests.serving import close_replica, serve_replica


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
    # No follower thread: tests step replication via replicate().
    server = serve_replica(primary.data_dir, lsn_wait_s=0.05,
                           promote_data_dir=tmp_path / "promoted")
    yield server
    close_replica(server)


def client_for(server):
    host, port = server.address
    return ServiceClient(host, port)


def wait_until(predicate, timeout_s=5.0):
    deadline = time.monotonic() + timeout_s
    while not predicate():
        if time.monotonic() > deadline:
            return False
        time.sleep(0.005)
    return True


class TestServing:
    def test_serves_reads_from_bootstrap_state(self, replica_server):
        with client_for(replica_server) as client:
            reply = client.query("?- object(O).")
            assert reply["count"] == 1

    def test_rejects_writes_with_read_only(self, replica_server):
        assert replica_server.service.read_only is True
        with client_for(replica_server) as client:
            with pytest.raises(ReadOnlyError):
                client.insert_entity("b")

    def test_reports_position_via_wal_op(self, primary, replica_server):
        primary.db.new_entity("b")
        replica_server.service.replicate()
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
        applied = replica_server.service.replicate()
        assert applied >= 1
        with client_for(replica_server) as client:
            assert client.query("?- object(O).")["count"] == 2

    def test_standing_query_gets_one_batch_per_primary_commit(
            self, primary, replica_server):
        sub = replica_server.service.subscribe("?- object(O).")
        with primary.db.transaction():
            for oid in ("b", "c", "d"):
                primary.db.new_entity(oid)
        replica_server.service.replicate()
        [batch] = sub.poll()
        assert batch["rows"] == [["b"], ["c"], ["d"]]
        assert batch["epoch"] == primary.db.epoch

    def test_readiness_reports_the_source(self, replica_server):
        checks = replica_server.service.readiness()
        assert checks == {"executor": True, "source": True}

    def test_metrics_include_lag_gauges(self, replica_server):
        snapshot = replica_server.service.snapshot()
        assert "replica.lag_lsn" in snapshot
        assert "replica.applied_lsn" in snapshot


class TestSessionConsistency:
    def test_read_at_applied_lsn_serves(self, primary, replica_server):
        primary.db.new_entity("b")
        replica_server.service.replicate()
        with client_for(replica_server) as client:
            reply = client.query("?- object(O).",
                                 min_lsn=primary.last_lsn)
            assert reply["count"] == 2

    def test_read_beyond_applied_lsn_fails_lagging(self, primary,
                                                   replica_server):
        primary.db.new_entity("b")  # journaled but not yet followed
        with client_for(replica_server) as client:
            with pytest.raises(ReplicaLagError):
                client.query("?- object(O).",
                             min_lsn=primary.last_lsn, wait_s=0.01)

    def test_wait_succeeds_once_caught_up(self, primary, replica_server):
        primary.db.new_entity("b")
        token = primary.last_lsn
        replica_server.service.replicate()
        with client_for(replica_server) as client:
            assert client.query("?- object(O).",
                                min_lsn=token)["count"] == 2

    def test_token_read_waits_for_the_background_follower(
            self, primary, replica_server):
        replica_server.service.poll_interval_s = 0.01
        replica_server.service.start_following()
        primary.db.new_entity("b")
        with client_for(replica_server) as client:
            assert client.query("?- object(O).",
                                min_lsn=primary.last_lsn,
                                wait_s=5.0)["count"] == 2

    def test_bad_min_lsn_is_protocol_error(self, replica_server):
        from vidb.errors import ProtocolError

        with client_for(replica_server) as client:
            with pytest.raises(ProtocolError):
                client.request("query", query="?- object(O).",
                               min_lsn="nope")


class TestResyncRebind:
    def test_checkpoint_truncation_forces_resync_and_rebind(
            self, tmp_path, primary):
        server = serve_replica(primary.data_dir,
                               promote_data_dir=tmp_path / "promoted")
        service = server.service
        try:
            service.replicate()
            old_db = service.db
            # Enough traffic to checkpoint twice: the records between
            # the replica's position and the new log head are gone.
            for index in range(6):
                primary.db.new_entity(f"bulk{index}")
            primary.checkpoint()
            primary.db.new_entity("after")
            service.replicate()
            assert service.replica.resyncs >= 1 or service.replica.lag_lsn == 0
            # The executor must serve the *new* database object.
            assert service.db is service.replica.db
            if service.replica.resyncs > 1:
                assert service.db is not old_db
            with client_for(server) as client:
                count = client.query("?- object(O).")["count"]
            assert count == len(list(primary.db.entities()))
        finally:
            close_replica(server)


def _rel(lsn, name):
    return WalRecord(lsn, COMMIT, encode_commit([("declare_relation", name)]))


class SlowGapSource:
    """Ships a batch with an LSN gap, then serves the ``fetch(-1)``
    resync only once the test releases it."""

    def __init__(self):
        self.resyncing = threading.Event()
        self.release = threading.Event()

    def bootstrap(self):
        return ShipBatch([_rel(1, "r1")], 1)

    def fetch(self, after_lsn):
        if after_lsn == -1:
            self.resyncing.set()
            self.release.wait(10)
            db = VideoDatabase("snap")
            db.declare_relation("r1")
            db.declare_relation("r2")  # the record the gap would skip
            return ShipBatch([_rel(4, "r3")], 4, resync_db=db, resync_lsn=3)
        return ShipBatch([_rel(4, "r3")], 4)  # gap: follower holds LSN 1


class FlakySource:
    """Serves the commits in ``records``; raises ``OSError`` while
    ``down`` is set, as a dead primary or a dropped network does."""

    def __init__(self):
        self.records = []
        self.down = False

    def bootstrap(self):
        return ShipBatch([], 0)

    def fetch(self, after_lsn):
        if self.down:
            raise OSError("primary unreachable")
        records = [r for r in self.records if r.lsn > after_lsn]
        return ShipBatch(records, max([after_lsn] + [r.lsn for r in records]))


def _cli(*args):
    """``vidb`` in a child process, stdout and stderr piped."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(Path(vidb_main.__code__.co_filename).resolve().parents[1]),
         env.get("PYTHONPATH", "")])
    return subprocess.Popen([sys.executable, "-m", "vidb.cli", *args],
                            env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True)


class RefusingClient:
    """A ``wal`` client whose primary answers one pull with a plain
    error reply (a closed durable database), then serves again."""

    def __init__(self):
        self.records = []
        self.refusals = 1

    def request(self, op, after):
        if after >= 0 and self.refusals:
            self.refusals -= 1
            raise VidbError("durable database is closed")
        records = [r.as_dict() for r in self.records if r.lsn > after]
        return {"records": records,
                "last_lsn": max([after, 0] + [r.lsn for r in self.records])}


class HangingSource(FlakySource):
    """Hangs inside ``fetch`` once ``hang`` is set — a primary that
    stopped answering without closing the connection — until the test
    releases it."""

    def __init__(self):
        super().__init__()
        self.hang = False
        self.hanging = threading.Event()
        self.release = threading.Event()

    def fetch(self, after_lsn):
        if self.hang:
            self.hanging.set()
            self.release.wait(30)
        return super().fetch(after_lsn)


class TestFollowing:
    def test_gap_refetch_runs_outside_the_writer_lock(self):
        source = SlowGapSource()
        with ServiceExecutor(Replica(source)) as service:
            step = threading.Thread(target=service.replicate)
            step.start()
            assert source.resyncing.wait(5)
            finished = threading.Event()

            def read():
                service.execute("?- object(O).")
                finished.set()

            reader = threading.Thread(target=read, daemon=True)
            reader.start()
            probe = {"reader_finished_during_fetch": finished.wait(2.0)}
            source.release.set()
            step.join(5)
            reader.join(5)
            assert probe == {"reader_finished_during_fetch": True}
            assert service.replica.resyncs == 1
            assert service.replica.applied_lsn == 4
            assert service.db is service.replica.db
            assert service.db.relation_names() >= {"r1", "r2", "r3"}

    def test_follow_loop_survives_source_loss(self):
        source = FlakySource()
        log = EventLog()
        replica = Replica(source, event_log=log)
        with ServiceExecutor(replica, event_log=log,
                             poll_interval_s=0.01) as service:
            service.start_following()
            source.records.append(_rel(1, "r1"))
            assert wait_until(lambda: replica.applied_lsn == 1)
            source.down = True
            assert wait_until(lambda: not replica.source_up)
            assert service.readiness()["source"] is False
            source.records.append(_rel(2, "r2"))
            source.down = False
            assert wait_until(lambda: replica.applied_lsn == 2)
            assert service.readiness()["source"] is True
            assert "r2" in service.db.relation_names()
        transitions = [event["type"] for event in reversed(log.recent())
                       if event["type"].startswith("replica.source_")]
        assert transitions == ["replica.source_down", "replica.source_up"]

    def test_follower_survives_an_error_reply(self):
        """An error reply that is not a service error (the primary's
        durable database closed, a failed log read) is a source error
        too: the follower reports it and keeps following."""
        client = RefusingClient()
        log = EventLog()
        replica = Replica.from_client(client, event_log=log)
        with ServiceExecutor(replica, event_log=log,
                             poll_interval_s=0.01) as service:
            service.start_following()
            client.records.append(_rel(1, "r1"))
            assert wait_until(lambda: replica.applied_lsn == 1)
            assert service._follower.is_alive()
            assert service.readiness()["source"] is True
        transitions = [event["type"] for event in reversed(log.recent())
                       if event["type"].startswith("replica.source_")]
        assert transitions == ["replica.source_down", "replica.source_up"]

    def test_passive_replicate_reports_source_loss_on_stderr(
            self, tmp_path):
        durable = DurableDatabase(tmp_path / "data", seed=seed_db(),
                                  fsync="never")
        service = ServiceExecutor(durable)
        server = VideoServer(service).start_background()
        host, port = server.address
        follower = _cli("replicate", "--server", f"{host}:{port}",
                        "--interval", "0.05")
        watchdog = threading.Timer(20, follower.kill)  # never hang
        watchdog.start()
        try:
            assert follower.stdout.readline().startswith("applied ")
            server.shutdown()
            service.close()
            events = []
            while not any("replica.source_down" in e for e in events):
                line = follower.stderr.readline()
                assert line, f"stderr ended without source_down: {events}"
                events.append(line)
            assert follower.poll() is None  # still following
        finally:
            watchdog.cancel()
            follower.kill()
            follower.communicate(timeout=10)
            server.shutdown()
            service.close()

    def test_serving_replica_over_the_wire(self, primary):
        """``vidb replicate --server H:P --serve-port``: a serving
        replica tailing a running primary's ``wal`` op."""
        service = ServiceExecutor(primary)
        server = VideoServer(service).start_background()
        host, port = server.address
        replica = _cli("replicate", "--server", f"{host}:{port}",
                       "--serve-port", "0", "--interval", "0.05")
        watchdog = threading.Timer(20, replica.kill)  # never hang
        watchdog.start()
        try:
            banner = replica.stdout.readline()
            assert banner.startswith("replica serving reads on "), \
                replica.communicate()
            rport = int(banner.split()[4].rpartition(":")[2])
            service.mutate(lambda db: db.new_entity("b"))
            with ServiceClient("127.0.0.1", rport) as client:
                assert wait_until(lambda: client.wal()["applied_lsn"]
                                  == primary.last_lsn)
                assert client.query("?- object(O).")["count"] == 2
        finally:
            watchdog.cancel()
            replica.kill()
            replica.communicate(timeout=10)
            server.shutdown()
            service.close()

    def test_close_stops_the_follower(self, primary):
        server = serve_replica(primary.data_dir, poll_interval_s=0.01)
        service = server.service
        service.start_following()
        primary.db.new_entity("b")
        assert wait_until(
            lambda: service.replica.applied_lsn == primary.last_lsn)
        follower = service._follower
        close_replica(server)
        assert not follower.is_alive()

    def test_once_exits_1_on_a_source_error(self, tmp_path, capsys):
        with ServiceExecutor(seed_db()) as service:  # not durable
            with VideoServer(service) as server:
                server.start_background()
                host, port = server.address
                assert vidb_main(["replicate", "--server",
                                  f"{host}:{port}", "--once"]) == 1
        assert "not durable" in capsys.readouterr().err
        assert vidb_main(["replicate", "--server", f"{host}:{port}",
                          "--once"]) == 1  # nothing listens any more


class TestPromotion:
    def test_promote_flips_to_writable_primary(self, tmp_path, primary,
                                               replica_server):
        primary.db.new_entity("b")
        replica_server.service.replicate()
        old_last = primary.last_lsn
        result = replica_server.service.promote()
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
        replica_server.service.promote()
        marker = read_fence(primary.data_dir)
        assert marker is not None and marker["fenced"] is True
        # A restarted old primary refuses the directory outright.
        primary.close()
        with pytest.raises(FencedError):
            DurableDatabase(primary.data_dir)

    def test_live_fenced_primary_fails_at_checkpoint(self, tmp_path):
        with DurableDatabase(tmp_path / "data", seed=seed_db(),
                             fsync="never", checkpoint_every=1) as live:
            server = serve_replica(live.data_dir,
                                   promote_data_dir=tmp_path / "promoted")
            try:
                server.service.replicate()
                server.service.promote()
                # checkpoint_every=1: the next mutation reaches the
                # checkpoint path, which re-checks the fence.
                with pytest.raises(FencedError):
                    live.db.new_entity("zombie")
            finally:
                close_replica(server)

    def test_promoted_lsns_continue_the_sequence(self, primary,
                                                 replica_server):
        service = replica_server.service
        primary.db.new_entity("b")
        service.replicate()
        applied = service.replica.applied_lsn
        service.promote()
        durable = service.durability
        assert durable is not None
        assert durable.last_lsn >= applied + 1
        assert durable.generation == applied + 1

    def test_double_promotion_rejected(self, replica_server):
        replica_server.service.promote()
        with pytest.raises(ClusterError):
            replica_server.service.promote()

    def test_promotion_into_source_dir_rejected(self, primary,
                                                replica_server):
        service = replica_server.service
        with pytest.raises(ClusterError):
            service.promote(data_dir=primary.data_dir)
        # Still a following replica.
        assert service.read_only is True
        primary.db.new_entity("b")
        assert service.replicate() == 1

    def test_promotion_needs_a_target_dir(self, primary):
        server = serve_replica(primary.data_dir)
        try:
            with pytest.raises(ClusterError):
                server.service.promote()
        finally:
            close_replica(server)

    def test_promotion_stops_the_follower(self, tmp_path, primary):
        server = serve_replica(primary.data_dir, poll_interval_s=0.01,
                               promote_data_dir=tmp_path / "promoted")
        try:
            service = server.service
            service.start_following()
            follower = service._follower
            service.promote()
            assert service.replica is None
            assert wait_until(lambda: not follower.is_alive())
        finally:
            close_replica(server)

    def test_hung_source_does_not_hold_promotion_up(self, tmp_path):
        """A primary that hangs instead of refusing connections: the
        follower's in-flight fetch neither delays promotion past the
        promoter's 5 s reply timeout nor lands after the flip."""
        source = HangingSource()
        source.records.append(_rel(1, "r1"))
        with ServiceExecutor(Replica(source), poll_interval_s=0.01,
                             promote_data_dir=tmp_path / "new") as service:
            service.start_following()
            assert wait_until(lambda: service.replica.applied_lsn == 1)
            source.hang = True
            assert source.hanging.wait(5)
            source.records.append(_rel(2, "r2"))
            started = time.monotonic()
            details = service.promote()
            elapsed = time.monotonic() - started
            source.release.set()
            assert elapsed < 2.0
            assert details["lsn"] == 1 and details["drained"] == 0
            follower = service._follower
            assert wait_until(lambda: not follower.is_alive())
            # The fetch that was in flight is dropped, not applied over
            # the new generation.
            assert "r2" not in service.db.relation_names()
            assert service.durability.last_lsn == 2  # the generation

    def test_promote_op_over_the_wire(self, tmp_path, primary,
                                      replica_server):
        with client_for(replica_server) as client:
            reply = client.promote(
                data_dir=str(tmp_path / "wire-promoted"))
            assert reply["promoted"] is True
            assert client.insert_entity("c")["ok"] is True

    def test_promote_op_rejected_on_plain_server(self, tmp_path):
        with ServiceExecutor(seed_db()) as service:
            with VideoServer(service) as server:
                server.start_background()
                host, port = server.address
                with ServiceClient(host, port) as client:
                    with pytest.raises(ClusterError,
                                       match="not a promotable replica"):
                        client.promote()

    def test_old_history_can_rejoin_as_replica(self, tmp_path, primary,
                                               replica_server):
        """The stale generation re-enters the cluster as a follower of
        the new primary (its own directory stays fenced)."""
        service = replica_server.service
        primary.db.new_entity("b")
        service.replicate()
        applied = service.replica.applied_lsn
        service.promote()
        new_dir = service.durability.data_dir

        follower = Replica.from_data_dir(new_dir)
        assert follower.applied_lsn >= applied
        assert set(follower.db.entities()) == set(service.db.entities())
