"""Cluster end-to-end: routing, session consistency, kill-the-primary.

The headline contract of ``vidb.cluster``:

* a client writing through the router and immediately reading with its
  session LSN token **never sees stale data**, no matter which replica
  serves the read;
* after SIGKILL of the primary, ``vidb promote`` elects the
  furthest-ahead replica, fences the old generation, repoints the
  router, and **no committed (acknowledged) write is lost**.

The primary runs as a real ``vidb serve --data-dir --fsync always``
subprocess so SIGKILL means SIGKILL; replicas and the router run
in-process for determinism and speed.
"""

import os
import signal
import socket
import subprocess
import sys
import time
from pathlib import Path

import pytest

from vidb.cli import main as vidb_main
from vidb.cluster import ClusterRouter
from vidb.durability import DurableDatabase
from vidb.errors import ClusterError, FencedError
from vidb.model.oid import Oid
from vidb.obs.trace import TraceContext, assemble_trace
from vidb.service.server import ServiceClient

from tests.serving import close_replica, serve_replica

SRC_DIR = str(Path(__file__).resolve().parents[2] / "src")


@pytest.fixture
def free_port():
    with socket.socket() as s:
        s.bind(("127.0.0.1", 0))
        return s.getsockname()[1]


def start_node(port, *cli_args):
    """Run ``vidb <cli_args>`` as a subprocess; wait until *port* accepts."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC_DIR + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.Popen(
        [sys.executable, "-m", "vidb.cli", *map(str, cli_args)],
        env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    deadline = time.time() + 20
    while time.time() < deadline:
        if proc.poll() is not None:
            raise RuntimeError(f"vidb {cli_args[0]} exited before accepting")
        try:
            socket.create_connection(("127.0.0.1", port),
                                     timeout=0.5).close()
            return proc
        except OSError:
            time.sleep(0.1)
    proc.kill()
    raise RuntimeError(f"vidb {cli_args[0]} never came up")


def start_primary(data_dir, port, *extra):
    return start_node(port, "serve", *extra, "--data-dir", data_dir,
                      "--fsync", "always", "--port", port)


class TestClusterEndToEnd:
    def test_failover_preserves_acknowledged_writes(self, tmp_path,
                                                    free_port):
        data_dir = tmp_path / "primary"
        proc = start_primary(data_dir, free_port)
        replicas, router = [], None
        try:
            replicas = [
                serve_replica(
                    data_dir, poll_interval_s=0.05, lsn_wait_s=2.0,
                    promote_data_dir=tmp_path / f"promoted-{index}")
                for index in range(2)
            ]
            for replica in replicas:
                replica.service.start_following()
            router = ClusterRouter(
                ("127.0.0.1", free_port),
                [r.address for r in replicas],
                probe_interval_s=0.1).start()
            host, port = router.address

            # -- session consistency under live replication ------------
            acknowledged = []
            with ServiceClient(host, port) as client:
                for index in range(8):
                    reply = client.insert_entity(f"o{index}", seq=index)
                    acknowledged.append(reply["head_lsn"])
                    assert client.session_lsn == reply["head_lsn"]
                    # Immediate read-your-writes: the LSN token makes a
                    # lagging replica wait or the router fall back —
                    # stale answers are a failure either way.
                    count = client.query("?- object(O).")["count"]
                    assert count == index + 1, (
                        f"stale read after write {index}")
                topology = client.request("cluster")
            assert len(topology["replicas"]) == 2

            # -- kill the primary --------------------------------------
            os.kill(proc.pid, signal.SIGKILL)
            proc.wait(timeout=10)
            # Give the replicas a beat to notice the source died.
            time.sleep(0.3)

            with ServiceClient(host, port) as client:
                with pytest.raises(ClusterError):
                    client.insert_entity("while-down")

            # -- promote via the CLI, repointing the router ------------
            candidates = []
            for replica in replicas:
                rhost, rport = replica.address
                candidates += ["--replica", f"{rhost}:{rport}"]
            exit_code = vidb_main(
                ["promote", *candidates,
                 "--router", f"{host}:{port}"])
            assert exit_code == 0

            promoted = [r for r in replicas if r.service.replica is None]
            assert len(promoted) == 1
            winner = promoted[0]

            # The old generation is fenced on disk.
            with pytest.raises(FencedError):
                DurableDatabase(data_dir)

            # -- writes resume through the router; nothing was lost ----
            with ServiceClient(host, port) as client:
                reply = client.insert_entity("resumed")
                assert reply["head_lsn"] > max(acknowledged)
                count = client.query("?- object(O).")["count"]
            assert count == 9  # 8 acknowledged + 1 resumed
            for index in range(8):
                assert winner.service.db.entity(f"o{index}")["seq"] == index
        finally:
            if router is not None:
                router.close()
            for replica in replicas:
                close_replica(replica)
            if proc.poll() is None:
                os.kill(proc.pid, signal.SIGKILL)
                proc.wait(timeout=10)

    def test_traced_reads_survive_failover_with_new_generation(
            self, tmp_path, free_port):
        """Distributed traces stay whole across a failover: a traced
        session-consistent read after SIGKILL + promote assembles into
        one tree (no orphaned segments) whose serving node identity
        carries the *new* primary generation."""
        data_dir = tmp_path / "primary"
        proc = start_primary(data_dir, free_port)
        replicas, router = [], None
        try:
            replicas = [
                serve_replica(
                    data_dir, poll_interval_s=0.05, lsn_wait_s=2.0,
                    promote_data_dir=tmp_path / f"promoted-{index}")
                for index in range(2)
            ]
            for replica in replicas:
                replica.service.start_following()
            router = ClusterRouter(
                ("127.0.0.1", free_port),
                [r.address for r in replicas],
                probe_interval_s=0.1).start()
            host, port = router.address

            # -- a traced read pair before the failover ----------------
            before = TraceContext.new(sampled=True)
            with ServiceClient(host, port,
                               trace_context=before) as client:
                client.insert_entity("pre-failover")
                assert client.query("?- object(O).")["count"] == 1
                segments = client.trace(id=before.trace_id)["segments"]
            assert segments, "sampled request left no trace segments"
            old_generations = {
                s["node"].get("generation") for s in segments
                if s["node"].get("role") in ("primary", "replica")
            }

            # -- SIGKILL + promote -------------------------------------
            os.kill(proc.pid, signal.SIGKILL)
            proc.wait(timeout=10)
            time.sleep(0.3)
            candidates = []
            for replica in replicas:
                rhost, rport = replica.address
                candidates += ["--replica", f"{rhost}:{rport}"]
            assert vidb_main(["promote", *candidates,
                              "--router", f"{host}:{port}"]) == 0
            winner = next(r for r in replicas if r.service.replica is None)
            new_generation = winner.service.durability.generation
            assert new_generation not in old_generations

            # -- a traced read pair after the failover -----------------
            after = TraceContext.new(sampled=True)
            with ServiceClient(host, port, trace_context=after) as client:
                client.insert_entity("post-failover")
                assert client.query("?- object(O).")["count"] == 2
                segments = client.trace(id=after.trace_id)["segments"]

            # One tree, rooted at the client's span: nothing orphaned.
            roots = assemble_trace(segments)
            assert roots, "post-failover trace is empty"
            assert all(root["parent_span_id"] == after.span_id
                       for root in roots), (
                "a segment was orphaned from the client root")
            # The new generation is stamped on the serving node(s).
            served_by = {
                (s["node"].get("role"), s["node"].get("generation"))
                for s in segments if s["node"].get("role") != "router"
            }
            assert ("primary", new_generation) in served_by
        finally:
            if router is not None:
                router.close()
            for replica in replicas:
                close_replica(replica)
            if proc.poll() is None:
                os.kill(proc.pid, signal.SIGKILL)
                proc.wait(timeout=10)

    def test_cli_replica_loads_the_program_its_primary_serves(
            self, tmp_path):
        """``vidb replicate --serve-port`` takes the engine flags of
        ``vidb serve``: a rule-defined predicate answers the same
        whichever node the router's round robin picks."""
        ports = []
        for _ in range(2):
            with socket.socket() as s:
                s.bind(("127.0.0.1", 0))
                ports.append(s.getsockname()[1])
        snapshot = tmp_path / "rope.json"
        assert vidb_main(["demo", "--out", str(snapshot)]) == 0
        data_dir = tmp_path / "primary"
        query = "?- contains(V, O)."
        procs, router = [], None
        try:
            procs.append(start_primary(data_dir, ports[0], snapshot,
                                       "--stdlib"))
            procs.append(start_node(
                ports[1], "replicate", data_dir, "--serve-port", ports[1],
                "--interval", "0.05", "--stdlib"))
            router = ClusterRouter(("127.0.0.1", ports[0]),
                                   [("127.0.0.1", ports[1])]).start()
            with ServiceClient("127.0.0.1", ports[0]) as direct:
                expected = sorted(direct.query(query)["rows"])
            assert expected, "the stdlib rule derived nothing"
            with ServiceClient(*router.address) as client:
                for _ in range(4):
                    assert sorted(client.query(query)["rows"]) == expected
            reads = router.metrics.snapshot()
            assert reads[f"router_reads_total{{replica=127.0.0.1:"
                         f"{ports[1]}}}"] == 4
        finally:
            if router is not None:
                router.close()
            for proc in procs:
                proc.kill()
                proc.wait(timeout=10)

    def test_lsn_token_read_times_out_to_primary(self, tmp_path,
                                                 free_port):
        """A replica that stops replicating cannot serve token reads;
        the router must transparently re-serve them from the primary."""
        data_dir = tmp_path / "primary"
        proc = start_primary(data_dir, free_port)
        replica, router = None, None
        try:
            replica = serve_replica(  # serving, never following
                data_dir, lsn_wait_s=0.05,
                promote_data_dir=tmp_path / "promoted")
            router = ClusterRouter(
                ("127.0.0.1", free_port), [replica.address],
                probe_interval_s=0.1).start()
            host, port = router.address
            with ServiceClient(host, port) as client:
                client.insert_entity("fresh")
                assert client.session_lsn > 0
                reply = client.query("?- object(O).")
                assert reply["count"] == 1
            snapshot = router.metrics.snapshot()
            assert snapshot["router.fallbacks"] >= 1
        finally:
            if router is not None:
                router.close()
            if replica is not None:
                close_replica(replica)
            if proc.poll() is None:
                os.kill(proc.pid, signal.SIGKILL)
                proc.wait(timeout=10)

    def test_promotion_after_wal_gap_resyncs_first(self, tmp_path):
        """A replica that missed truncated WAL records (checkpoint gap)
        must resync from a snapshot before it can be promoted — and the
        promoted state must carry the full history."""
        data_dir = tmp_path / "primary"
        durable = DurableDatabase(data_dir, fsync="never",
                                  checkpoint_every=4)
        replica = None
        try:
            durable.db.new_entity("seed")
            replica = serve_replica(
                data_dir, promote_data_dir=tmp_path / "promoted")
            follower = replica.service.replica
            replica.service.replicate()
            # Enough writes to checkpoint at least twice: the records
            # between the replica's position and the head are gone.
            for index in range(10):
                durable.db.new_entity(f"bulk{index}")
            durable.checkpoint()
            durable.close()
            result = replica.service.promote()
            assert result["promoted"] is True
            assert follower.resyncs >= 1
            stats = replica.service.db.stats()
            assert stats["entities"] == 11  # seed + 10 bulk, none skipped
        finally:
            if replica is not None:
                close_replica(replica)

    def test_stale_primary_rejoins_as_replica(self, tmp_path):
        """A fenced old primary cannot serve, but its machine rejoins
        the cluster as a follower of the new generation."""
        data_dir = tmp_path / "primary"
        durable = DurableDatabase(data_dir, fsync="never")
        durable.db.new_entity("a")
        replica = serve_replica(
            data_dir, promote_data_dir=tmp_path / "promoted")
        try:
            replica.service.replicate()
            durable.close()
            replica.service.promote()
            # The old directory is fenced...
            with pytest.raises(FencedError):
                DurableDatabase(data_dir)
            # ...so the old host follows the new primary instead.
            rejoined = serve_replica(replica.service.durability.data_dir)
            try:
                rejoined.service.replicate()
                host, port = replica.address
                with ServiceClient(host, port) as client:
                    client.insert_entity("post-failover")
                rejoined.service.replicate()
                assert rejoined.service.replica.db.entity(
                    "post-failover") is not None
                assert rejoined.service.replica.lag_lsn == 0
            finally:
                close_replica(rejoined)
        finally:
            close_replica(replica)

    def test_wire_follower_reconnects_to_a_restarted_primary(
            self, tmp_path, free_port):
        """A follower pulling over the wire fails its steps while the
        primary is down, then reaches the restarted primary again on
        the same client (which reconnects instead of writing into the
        socket the dead primary left it)."""
        from vidb.durability import Replica
        from vidb.durability.replica import SOURCE_ERRORS

        data_dir = tmp_path / "primary"
        proc = start_primary(data_dir, free_port)
        try:
            with ServiceClient("127.0.0.1", free_port) as source:
                source.insert_entity("before")
                replica = Replica.from_client(source)
                os.kill(proc.pid, signal.SIGKILL)
                proc.wait(timeout=10)
                for _ in range(2):
                    with pytest.raises(SOURCE_ERRORS):
                        replica.poll()
                proc = start_primary(data_dir, free_port)
                with ServiceClient("127.0.0.1", free_port) as writer:
                    writer.insert_entity("after")
                replica.poll()
                assert replica.db.get(Oid.entity("after")) is not None
                assert replica.lag_lsn == 0
        finally:
            if proc.poll() is None:
                os.kill(proc.pid, signal.SIGKILL)
                proc.wait(timeout=10)
