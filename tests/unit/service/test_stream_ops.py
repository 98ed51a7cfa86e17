"""Wire-protocol tests for the streaming ops: subscribe / poll /
unsubscribe / batch / listen / subscriptions, plus lifecycle rules."""

import threading
import time

import pytest

from vidb.errors import (
    ModelError,
    ProtocolError,
    ServiceError,
    SessionError,
    StandingQueryError,
)
from vidb.service.executor import ServiceExecutor
from vidb.service.server import ServiceClient, VideoServer
from vidb.storage.database import VideoDatabase


def empty_db():
    db = VideoDatabase("stream-ops")
    db.declare_relation("appears")
    return db


@pytest.fixture
def server():
    service = ServiceExecutor(empty_db(), max_workers=2)
    with service, VideoServer(service, port=0) as srv:
        srv.start_background()
        yield srv


@pytest.fixture
def client(server):
    host, port = server.address
    with ServiceClient(host, port) as c:
        yield c


def seed_objects(client, count=3):
    ops = []
    for i in range(1, count + 1):
        ops.append({"op": "insert_entity", "oid": f"o{i}", "attributes": {}})
        ops.append({"op": "insert_interval", "oid": f"gi{i}",
                    "entities": [f"o{i}"], "duration": [[i * 10, i * 10 + 5]]})
    return client.batch(ops)


class TestBatchOp:
    def test_batch_applies_atomically(self, client):
        reply = seed_objects(client)
        assert reply["applied"] == 6
        info = client.info()
        assert info["stats"]["entities"] == 3
        assert info["stats"]["intervals"] == 3

    def test_failing_batch_rolls_back_everything(self, client):
        epoch = client.info()["epoch"]
        with pytest.raises(ModelError):
            client.batch([
                {"op": "insert_entity", "oid": "o9", "attributes": {}},
                {"op": "insert_entity", "oid": "o9", "attributes": {}},
            ])
        info = client.info()
        assert info["epoch"] == epoch
        assert info["stats"]["entities"] == 0

    def test_declare_relation_sub_op(self, client):
        client.batch([{"op": "declare_relation", "name": "meets"}])
        client.declare_relation("follows")  # the standalone op too

    def test_unknown_sub_op_rejected(self, client):
        with pytest.raises(ProtocolError, match="unknown sub-op"):
            client.batch([{"op": "emancipate", "oid": "o1"}])


class TestSubscribeOverTheWire:
    def test_subscribe_poll_unsubscribe(self, client):
        seed_objects(client)
        sub = client.subscribe("?- appears(O, G).")
        assert sub["variables"] == ["O", "G"]
        client.relate("appears", "o1", "gi1")
        reply = client.poll(sub["id"], wait_s=2.0)
        [batch] = reply["batches"]
        assert batch["seq"] == 1
        assert batch["rows"] == [["o1", "gi1"]]
        assert reply["pending"] == 0
        assert client.unsubscribe(sub["id"]) is True
        assert client.unsubscribe(sub["id"]) is False

    def test_one_batch_per_commit(self, client):
        seed_objects(client)
        sub = client.subscribe("?- appears(O, G).")
        client.batch([
            {"op": "relate", "relation": "appears", "args": ["o1", "gi1"]},
            {"op": "relate", "relation": "appears", "args": ["o2", "gi2"]},
        ])
        client.relate("appears", "o3", "gi3")
        reply = client.poll(sub["id"], wait_s=2.0)
        assert [b["count"] for b in reply["batches"]] == [2, 1]
        assert [b["seq"] for b in reply["batches"]] == [1, 2]

    def test_aborted_batch_notifies_nothing(self, client):
        seed_objects(client)
        sub = client.subscribe("?- appears(O, G).")
        with pytest.raises(ModelError):
            client.batch([
                {"op": "relate", "relation": "appears",
                 "args": ["o1", "gi1"]},
                {"op": "insert_entity", "oid": "o1", "attributes": {}},
            ])
        assert client.poll(sub["id"])["batches"] == []
        # the rollback is counted where it happens, in the executor
        assert client.metrics()["stream.aborted_segments"] == 1

    def test_filter_over_the_wire(self, client):
        seed_objects(client)
        sub = client.subscribe("?- appears(O, G).", filter={"O": "o2"})
        client.batch([
            {"op": "relate", "relation": "appears", "args": ["o1", "gi1"]},
            {"op": "relate", "relation": "appears", "args": ["o2", "gi2"]},
        ])
        [batch] = client.poll(sub["id"], wait_s=2.0)["batches"]
        assert batch["rows"] == [["o2", "gi2"]]

    def test_poll_unknown_subscription(self, client):
        with pytest.raises(SessionError, match="no subscription"):
            client.poll("sub12345")

    def test_subscriptions_listing(self, client):
        sub = client.subscribe("?- appears(O, G).")
        listing = client.subscriptions()
        assert [entry["id"] for entry in listing] == [sub["id"]]
        assert listing[0]["query"] == "?- appears(O, G)."

    def test_bad_filter_shape_rejected(self, client):
        with pytest.raises(ProtocolError):
            client.request("subscribe", query="?- appears(O, G).",
                           filter=["not", "a", "dict"])


class TestSubscribeAnalysis:
    """Subscribe-time streaming-safety analysis over the wire."""

    NEGATED = "?- interval(G), object(O), not appears(O, G)."

    def test_non_monotone_query_rejected_with_diagnostics(self, client):
        with pytest.raises(StandingQueryError) as exc:
            client.subscribe(self.NEGATED)
        diagnostics = exc.value.diagnostics
        assert diagnostics, "rejection must carry located diagnostics"
        codes = [d["code"] for d in diagnostics]
        assert "VDB060" in codes
        located = [d for d in diagnostics if d["code"] == "VDB060"][0]
        assert located["severity"] == "error"
        assert located["span"]["line"] >= 1  # span survives the wire

    def test_rejection_registers_no_subscription(self, client):
        with pytest.raises(StandingQueryError):
            client.subscribe(self.NEGATED)
        assert client.subscriptions() == []

    def test_accepted_subscription_reports_classification(self, client):
        sub = client.subscribe("?- appears(O, G).")
        assert sub["maintenance"] == "incremental"
        [entry] = client.subscriptions()
        assert entry["maintenance"] == "incremental"
        assert entry["deletion_sensitive"] is False

    def test_deletion_sensitive_join_warns_but_subscribes(self, client):
        sub = client.subscribe("?- appears(O, G), appears(O, H).")
        codes = [d["code"] for d in sub.get("diagnostics", ())]
        assert "VDB062" in codes
        [entry] = client.subscriptions()
        assert entry["deletion_sensitive"] is True


class TestSchemaInvalidation:
    """declare_relation must invalidate the engine's cached analysis."""

    def test_unknown_relation_then_declared(self, client):
        from vidb.errors import QueryError

        with pytest.raises(QueryError):
            client.query("?- meets(G, H).")
        client.declare_relation("meets")
        reply = client.query("?- meets(G, H).")
        assert reply["count"] == 0  # declared, empty: runs clean now

    def test_subscribe_after_declare(self, client):
        from vidb.errors import QueryError

        with pytest.raises(QueryError):
            client.subscribe("?- follows(A, B).")
        client.declare_relation("follows")
        sub = client.subscribe("?- follows(A, B).")
        assert sub["variables"] == ["A", "B"]


class TestSessionLifecycle:
    def test_connection_close_removes_subscription(self, server, client):
        host, port = server.address
        with ServiceClient(host, port) as other:
            other.subscribe("?- appears(O, G).")
            assert len(client.subscriptions()) == 1
        # Session teardown runs in the server's connection thread after
        # the socket closes; give it a moment to land.
        deadline = time.monotonic() + 5.0
        while client.subscriptions() and time.monotonic() < deadline:
            time.sleep(0.02)
        assert client.subscriptions() == []

    def test_detached_subscription_survives(self, server, client):
        host, port = server.address
        with ServiceClient(host, port) as other:
            sub = other.subscribe("?- appears(O, G).", detach=True)
        listing = client.subscriptions()
        assert [entry["id"] for entry in listing] == [sub["id"]]
        assert client.unsubscribe(sub["id"]) is True


class TestPushMode:
    def test_listen_streams_batches(self, server, client):
        seed_objects(client)
        sub = client.subscribe("?- appears(O, G).", detach=True)
        host, port = server.address
        received = []
        ready = threading.Event()

        def listener():
            with ServiceClient(host, port) as pusher:
                iterator = pusher.listen(sub["id"])
                ready.set()
                for batch in iterator:
                    received.append(batch)
                    if len(received) == 2:
                        return

        thread = threading.Thread(target=listener, daemon=True)
        thread.start()
        assert ready.wait(5.0)
        client.relate("appears", "o1", "gi1")
        client.relate("appears", "o2", "gi2")
        thread.join(10.0)
        assert not thread.is_alive()
        assert [b["seq"] for b in received] == [1, 2]
        assert received[0]["push"] is True
        assert received[0]["rows"] == [["o1", "gi1"]]

    def test_listen_ends_when_unsubscribed(self, server, client):
        sub = client.subscribe("?- appears(O, G).", detach=True)
        host, port = server.address
        done = threading.Event()

        def listener():
            with ServiceClient(host, port) as pusher:
                for _ in pusher.listen(sub["id"]):
                    pass
            done.set()

        thread = threading.Thread(target=listener, daemon=True)
        thread.start()
        import time
        time.sleep(0.3)  # let the listener enter push mode
        client.unsubscribe(sub["id"])
        assert done.wait(10.0)


class TestStreamingMetricsAndConfig:
    def test_stream_metric_families(self, client):
        seed_objects(client)
        sub = client.subscribe("?- appears(O, G).")
        client.relate("appears", "o1", "gi1")
        metrics = client.metrics()
        assert metrics["stream.subscriptions"] == 1
        assert metrics["stream.notifications"] == 1
        key = "stream_notifications_total{subscription=%s}" % sub["id"]
        assert metrics[key] == 1

    def test_streaming_disabled(self):
        service = ServiceExecutor(empty_db(), max_workers=1, streaming=False)
        with service, VideoServer(service, port=0) as srv:
            srv.start_background()
            host, port = srv.address
            with ServiceClient(host, port) as c:
                with pytest.raises(ServiceError, match="disabled"):
                    c.subscribe("?- appears(O, G).")
                c.ping()  # everything else still works

    def test_admission_limit_over_the_wire(self):
        service = ServiceExecutor(empty_db(), max_workers=1,
                                  max_subscriptions=1)
        with service, VideoServer(service, port=0) as srv:
            srv.start_background()
            host, port = srv.address
            with ServiceClient(host, port) as c:
                c.subscribe("?- appears(O, G).")
                with pytest.raises(ServiceError):
                    c.subscribe("?- appears(O, G).")
