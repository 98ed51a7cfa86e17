"""Unit tests for the cluster router (balancing, health, failover)."""

import pytest

from vidb.cluster import ClusterRouter
from vidb.durability import DurableDatabase
from vidb.errors import ClusterError, ProtocolError
from vidb.model.oid import Oid
from vidb.obs.trace import TraceContext, assemble_trace
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


def make_replica(primary, tmp_path, name, lsn_wait_s=0.05):
    """A serving replica driven manually (no follower thread)."""
    return serve_replica(primary.service.durability.data_dir,
                         lsn_wait_s=lsn_wait_s,
                         promote_data_dir=tmp_path / f"promoted-{name}")


def make_router(primary, replicas, **options):
    options.setdefault("probe_interval_s", 0.05)
    router = ClusterRouter(primary.address,
                           [r.address for r in replicas], **options)
    return router.start()


class TestRouting:
    def test_writes_reach_the_primary(self, primary, tmp_path):
        replica = make_replica(primary, tmp_path, "r1")
        router = make_router(primary, [replica])
        try:
            host, port = router.address
            with ServiceClient(host, port) as client:
                reply = client.insert_entity("b")
                assert reply["ok"] and "head_lsn" in reply
            assert primary.service.db.get(Oid.entity("b")) is not None
        finally:
            router.close()
            close_replica(replica)

    def test_reads_balance_across_replicas(self, primary, tmp_path):
        replicas = [make_replica(primary, tmp_path, f"r{i}")
                    for i in range(2)]
        for replica in replicas:
            replica.service.replicate()
        router = make_router(primary, replicas)
        try:
            host, port = router.address
            with ServiceClient(host, port) as client:
                for __ in range(4):
                    assert client.query("?- object(O).")["count"] == 1
            snapshot = router.metrics.snapshot()
            for replica in replicas:
                rhost, rport = replica.address
                key = f"router_reads_total{{replica={rhost}:{rport}}}"
                assert snapshot.get(key, 0) >= 1
            assert snapshot["router.reads_balanced"] == 4
        finally:
            router.close()
            for replica in replicas:
                close_replica(replica)

    def test_no_replicas_serves_reads_from_primary(self, primary):
        router = make_router(primary, [])
        try:
            host, port = router.address
            with ServiceClient(host, port) as client:
                assert client.query("?- object(O).")["count"] == 1
            snapshot = router.metrics.snapshot()
            assert snapshot.get(
                "router_reads_total{replica=primary}", 0) == 1
        finally:
            router.close()

    def test_session_state_sticks_to_the_primary(self, primary, tmp_path):
        replica = make_replica(primary, tmp_path, "r1")
        replica.service.replicate()
        router = make_router(primary, [replica])
        try:
            host, port = router.address
            with ServiceClient(host, port) as client:
                client.prepare("byname", "?- object(O).")
                assert client.execute("byname")["count"] == 1
        finally:
            router.close()
            close_replica(replica)

    def test_listen_is_refused_and_the_connection_survives(self, primary):
        """``listen`` takes over its connection; forwarded, the pushes
        would answer the client's *next* requests on the routed one."""
        router = make_router(primary, [])
        try:
            host, port = router.address
            phost, pport = primary.address
            with ServiceClient(host, port) as client:
                sub = client.subscribe("?- object(O).")
                with pytest.raises(ClusterError, match=f"{phost}:{pport}"):
                    next(client.listen(sub["id"]))
                client.insert_entity("b")  # a commit the listener would get
                assert client.ping() is True
                # The subscription itself routes fine: poll drains it.
                [batch] = client.poll(sub["id"], wait_s=2.0)["batches"]
                assert batch["rows"] == [["b"]]
        finally:
            router.close()

    def test_unknown_op_passes_through_backend_error(self, primary):
        router = make_router(primary, [])
        try:
            host, port = router.address
            with ServiceClient(host, port) as client:
                with pytest.raises(ProtocolError):
                    client.request("frobnicate")
        finally:
            router.close()


class TestConsistencyFallback:
    def test_lagging_replica_read_falls_back_to_primary(self, primary,
                                                        tmp_path):
        replica = make_replica(primary, tmp_path, "r1", lsn_wait_s=0.05)
        replica.service.replicate()
        router = make_router(primary, [replica])
        try:
            host, port = router.address
            with ServiceClient(host, port) as client:
                client.insert_entity("b")  # replica never polls this
                # The client's session token outruns the replica: the
                # router must re-serve the read from the primary, not
                # surface the lagging error or stale data.
                reply = client.query("?- object(O).")
                assert reply["count"] == 2
            snapshot = router.metrics.snapshot()
            assert snapshot["router.fallbacks"] >= 1
            assert snapshot.get(
                "router_reads_total{replica=primary}", 0) >= 1
        finally:
            router.close()
            close_replica(replica)


class TestHealth:
    def test_dead_replica_is_marked_down_and_skipped(self, primary,
                                                     tmp_path):
        replica = make_replica(primary, tmp_path, "r1")
        replica.service.replicate()
        router = make_router(primary, [replica])
        try:
            assert len(router.healthy_replicas()) == 1
            close_replica(replica)
            host, port = router.address
            with ServiceClient(host, port) as client:
                # Served despite the dead replica (fallback path).
                assert client.query("?- object(O).")["count"] == 1
            router.probe()
            assert router.healthy_replicas() == []
            events = [e["type"] for e in router.events.recent()]
            assert "router.replica_down" in events
        finally:
            router.close()

    def test_lag_cap_removes_replica_from_pool(self, primary, tmp_path):
        replica = make_replica(primary, tmp_path, "r1")
        replica.service.replicate()
        router = make_router(primary, [replica], max_lag_lsn=0)
        try:
            assert len(router.healthy_replicas()) == 1
            from vidb.durability.replica import ShipBatch

            # Visible watermark advances with nothing applied: lag > 0.
            replica.service.replica.ingest(
                ShipBatch([], replica.service.replica.applied_lsn + 3))
            router.probe()
            assert router.healthy_replicas() == []
        finally:
            router.close()
            close_replica(replica)

    def test_topology_reports_state(self, primary, tmp_path):
        replica = make_replica(primary, tmp_path, "r1")
        replica.service.replicate()
        router = make_router(primary, [replica])
        try:
            host, port = router.address
            with ServiceClient(host, port) as client:
                topology = client.request("cluster")
            phost, pport = primary.address
            assert topology["primary"] == f"{phost}:{pport}"
            assert len(topology["replicas"]) == 1
            assert topology["replicas"][0]["healthy"] is True
        finally:
            router.close()
            close_replica(replica)


class TestFailover:
    def test_dead_primary_surfaces_cluster_error(self, tmp_path):
        durable = DurableDatabase(tmp_path / "data", seed=seed_db(),
                                  fsync="never")
        service = ServiceExecutor(durable)
        server = VideoServer(service).start_background()
        router = ClusterRouter(server.address, []).start()
        try:
            address = server.address
            server.shutdown()
            service.close()
            host, port = router.address
            with ServiceClient(host, port) as client:
                with pytest.raises(ClusterError):
                    client.insert_entity("b")
            assert router.primary == address
        finally:
            router.close()

    def test_repoint_moves_writes_to_new_primary(self, primary, tmp_path):
        replica = make_replica(primary, tmp_path, "r1")
        replica.service.replicate()
        router = make_router(primary, [replica])
        try:
            host, port = router.address
            with ServiceClient(host, port) as client:
                client.insert_entity("before")
                replica.service.replicate()
                replica.service.promote()
                rhost, rport = replica.address
                client.request("repoint", host=rhost, port=rport)
                reply = client.insert_entity("after")
                assert reply["ok"] is True
            # The write landed on the promoted replica, not the old
            # primary; the promoted node left the read pool.
            assert replica.service.db.get(Oid.entity("after")) is not None
            assert primary.service.db.get(Oid.entity("after")) is None
            assert router.healthy_replicas() == []
            events = [e["type"] for e in router.events.recent()]
            assert "failover.repoint" in events
        finally:
            router.close()
            close_replica(replica)

    def test_repoint_validates_fields(self, primary):
        router = make_router(primary, [])
        try:
            host, port = router.address
            with ServiceClient(host, port) as client:
                with pytest.raises(ProtocolError):
                    client.request("repoint", host=1, port="x")
        finally:
            router.close()


class TestClusterTelemetry:
    def test_scrape_feeds_cluster_health(self, primary, tmp_path):
        replica = make_replica(primary, tmp_path, "r1")
        replica.service.replicate()
        router = make_router(primary, [replica], scrape_interval_s=30.0)
        try:
            # start() already ran one synchronous scrape pass.
            host, port = router.address
            with ServiceClient(host, port) as client:
                health = client.cluster_health()
            assert health["router"] == f"{host}:{port}"
            assert health["rollups"]["nodes"] == 2
            assert health["rollups"]["nodes_up"] == 2
            roles = {row["role"] for row in health["nodes"]}
            assert roles == {"primary", "replica"}
            assert all(row["up"] for row in health["nodes"])
        finally:
            router.close()
            close_replica(replica)

    def test_dead_member_marked_down_keeps_last_snapshot(self, primary,
                                                         tmp_path):
        replica = make_replica(primary, tmp_path, "r1")
        replica.service.replicate()
        router = make_router(primary, [replica], scrape_interval_s=30.0)
        try:
            rhost, rport = replica.address
            close_replica(replica)
            router.scrape()
            health = router.cluster_health()
            assert health["rollups"]["nodes_up"] == 1
            down = next(row for row in health["nodes"]
                        if row["node"] == f"{rhost}:{rport}")
            assert down["up"] is False and "error" in down
        finally:
            router.close()

    def test_fleet_exposition_labels_every_member(self, primary, tmp_path):
        replica = make_replica(primary, tmp_path, "r1")
        replica.service.replicate()
        router = make_router(primary, [replica], scrape_interval_s=30.0)
        try:
            text = router.fleet_exposition()
            phost, pport = primary.address
            rhost, rport = replica.address
            assert (f'vidb_cluster_node_up{{node="{phost}:{pport}",'
                    'role="primary"} 1') in text
            assert (f'vidb_cluster_node_up{{node="{rhost}:{rport}",'
                    'role="replica"} 1') in text
            assert "vidb_cluster_nodes_up 2" in text
        finally:
            router.close()
            close_replica(replica)

    def test_traced_query_assembles_across_processes(self, primary,
                                                     tmp_path):
        replica = make_replica(primary, tmp_path, "r1")
        replica.service.replicate()
        router = make_router(primary, [replica], scrape_interval_s=30.0)
        try:
            host, port = router.address
            context = TraceContext.new(sampled=True)
            with ServiceClient(host, port,
                               trace_context=context) as client:
                assert client.query("?- object(O).")["count"] == 1
                segments = client.trace(id=context.trace_id)["segments"]
                rows = client.traces()
            # Router + serving backend each contributed a segment...
            roles = {s["node"]["role"] for s in segments}
            assert "router" in roles
            assert roles & {"replica", "primary"}
            # ...and they assemble into one tree under the client span.
            roots = assemble_trace(segments)
            assert len(roots) == 1
            assert roots[0]["parent_span_id"] == context.span_id
            assert roots[0]["node"]["role"] == "router"
            assert roots[0]["children"], "backend segment not parented"
            # The fleet-wide summary list merges to one row per trace.
            assert [r["trace_id"] for r in rows] == [context.trace_id]
        finally:
            router.close()
            close_replica(replica)

    def test_unsampled_requests_leave_no_segments(self, primary):
        router = make_router(primary, [], scrape_interval_s=30.0)
        try:
            host, port = router.address
            with ServiceClient(host, port) as client:
                client.query("?- object(O).")
                assert client.traces() == []
            assert len(router.flight_recorder) == 0
        finally:
            router.close()
