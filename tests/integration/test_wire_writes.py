"""Writes over the wire say what the library says: typed values and
retraction, end to end through a durable primary, its recovery, a
following replica, a standing query and the router."""

import pytest

from vidb.cluster import ClusterRouter
from vidb.durability import DurableDatabase, recover
from vidb.errors import ReadOnlyError
from vidb.model.oid import Oid
from vidb.query.engine import QueryEngine
from vidb.service import ServiceClient, ServiceExecutor, VideoServer
from vidb.storage.database import VideoDatabase
from vidb.storage.persistence import database_to_dict

from tests.serving import close_replica, serve_replica

PARTNER_JOIN = "?- object(O), object(P), O.partner = P."


def tagged(name, kind="entity"):
    return {"$oid": {"kind": kind, "parts": [name]}}


def comparable(db):
    data = database_to_dict(db)
    del data["name"]
    return data


class TestWireMatchesLibrary:
    def test_partner_join(self):
        library = VideoDatabase("library")
        library.new_entity("o2")
        library.new_entity("o1", partner=Oid.entity("o2"))
        expected = sorted([str(value) for value in row] for row in
                          QueryEngine(library).query(PARTNER_JOIN).rows())
        assert len(expected) == 1
        with ServiceExecutor(VideoDatabase("wire")) as service, \
                VideoServer(service, port=0) as server:
            server.start_background()
            with ServiceClient(*server.address) as client:
                client.insert_entity("o2")
                client.request("insert_entity", oid="o1",
                               attributes={"partner": tagged("o2")})
                assert sorted(client.query(PARTNER_JOIN)["rows"]) == expected
            assert comparable(service.db)["entities"] == \
                comparable(library)["entities"]

    def test_plain_strings_keep_their_meaning(self):
        with ServiceExecutor(VideoDatabase("wire")) as service:
            with VideoServer(service, port=0) as server:
                server.start_background()
                with ServiceClient(*server.address) as client:
                    client.insert_entity("o1", partner="o2", note="")
                    client.insert_entity("o2")
                    client.relate("near", "o1", "o2", "nobody", "")
            [fact] = service.db.facts("near")
            assert service.db.entity("o1")["partner"] == "o2"
            assert fact.args == (Oid.entity("o1"), Oid.entity("o2"),
                                 "nobody", "")


@pytest.fixture
def cluster(tmp_path):
    """A durable primary with a standing query's relation, a serving
    replica following it and a router in front of both."""
    seed = VideoDatabase("retract")
    seed.declare_relation("appears")
    durable = DurableDatabase(tmp_path / "data", seed=seed, fsync="never")
    service = ServiceExecutor(durable)
    primary = VideoServer(service).start_background()
    replica = serve_replica(durable.data_dir)
    router = ClusterRouter(primary.address, [replica.address],
                           scrape_interval_s=60.0).start()
    yield {"durable": durable, "service": service, "primary": primary,
           "replica": replica, "router": router}
    router.close()
    close_replica(replica)
    primary.shutdown()
    service.close()
    durable.close()


INSERTS = [
    {"op": "insert_entity", "oid": "o1", "attributes": {"name": "Ana"}},
    {"op": "insert_entity", "oid": "o2",
     "attributes": {"partner": tagged("o1")}},
    {"op": "insert_interval", "oid": "g1", "entities": ["o1", "o2"],
     "duration": [[0, 5]]},
    {"op": "relate", "relation": "appears", "args": ["o1", "g1"]},
    {"op": "relate", "relation": "appears", "args": ["o2", "g1"]},
]


class TestRetraction:
    def test_removals_are_journaled_replayed_and_followed(self, cluster):
        durable, replica = cluster["durable"], cluster["replica"]
        with ServiceClient(*cluster["primary"].address) as client:
            client.batch(INSERTS)
            records = client.metrics()["wal.records"]
            reply = client.batch([
                {"op": "remove_fact", "relation": "appears",
                 "args": [tagged("o2"), tagged("g1", "interval")]},
                {"op": "remove_object", "oid": "o2"},
                {"op": "insert_entity", "oid": "o3"},
                {"op": "relate", "relation": "appears",
                 "args": ["o3", "g1"]},
            ])
            assert reply["applied"] == 4
            # One batch mixing inserts and removals is one commit frame.
            assert client.metrics()["wal.records"] == records + 1
            assert client.request("remove_object", oid=tagged("o1"))["oid"] \
                == "o1"
        db = durable.db
        assert db.get(Oid.entity("o1")) is None
        assert db.get(Oid.entity("o2")) is None
        assert {fact.args[0] for fact in db.facts("appears")} == {
            Oid.entity("o1"), Oid.entity("o3")}

        assert comparable(recover(durable.data_dir).db) == comparable(db)
        replica.service.replicate()
        assert comparable(replica.service.db) == comparable(db)

    def test_standing_query_is_notified_after_the_rebuild(self, cluster):
        with ServiceClient(*cluster["primary"].address) as client:
            client.batch(INSERTS)
            sub = client.subscribe("?- appears(O, G).")["id"]
            client.request("remove_fact", relation="appears",
                           args=["o1", "g1"])
            client.insert_entity("o3")
            client.relate("appears", "o3", "g1")
            [batch] = client.poll(sub, wait_s=2.0)["batches"]
            assert batch["rows"] == [["o3", "g1"]]
            [status] = client.subscriptions()
            assert status["rebuilds"] >= 1
            assert client.query("?- appears(O, G).")["count"] == 2

    def test_router_sends_removals_to_the_primary(self, cluster):
        with ServiceClient(*cluster["router"].address) as client:
            client.batch(INSERTS)
            client.request("remove_object", oid="o2")
            client.request("remove_fact", relation="appears",
                           args=["o1", "g1"])
        db = cluster["durable"].db
        assert db.get(Oid.entity("o2")) is None
        assert {fact.args for fact in db.facts("appears")} == {
            (Oid.entity("o2"), Oid.interval("g1"))}

    def test_serving_replica_refuses_removals(self, cluster):
        with ServiceClient(*cluster["replica"].address) as client:
            for op, fields in (("remove_object", {"oid": "o1"}),
                               ("remove_fact", {"relation": "appears",
                                                "args": ["o1", "g1"]})):
                with pytest.raises(ReadOnlyError):
                    client.request(op, **fields)
