"""Unit tests for the StreamHub: one delta per commit, abort isolation,
autocommit deltas, and the epoch-mirror out-of-band guard."""

import pytest

from vidb.errors import EvaluationError, ModelError
from vidb.stream.hub import CommittedDelta, StreamHub
from vidb.storage.database import VideoDatabase


@pytest.fixture
def db():
    database = VideoDatabase("hub-test")
    database.declare_relation("appears")
    return database


@pytest.fixture
def hub(db):
    return StreamHub(db)


def collect(hub):
    deltas = []
    hub.add_consumer(deltas.append)
    return deltas


class TestTransactionFraming:
    def test_committed_txn_is_one_delta(self, db, hub):
        deltas = collect(hub)
        with db.transaction():
            db.new_entity("o1")
            db.new_interval("gi1", entities=["o1"], duration=[(0, 5)])
            db.relate("appears", "o1", "gi1")
        assert len(deltas) == 1
        delta = deltas[0]
        assert [event[0] for event in delta.events] == \
            ["add", "add", "relate"]
        assert delta.pre_epoch + len(delta) == delta.epoch == db.epoch
        assert delta.monotone

    def test_aborted_txn_delivers_nothing(self, db, hub):
        deltas = collect(hub)
        epoch_before = db.epoch
        with pytest.raises(ModelError):
            with db.transaction():
                db.new_entity("o1")
                db.new_entity("o1")  # duplicate oid aborts the txn
        assert deltas == []
        assert hub.events_seen == 0
        assert db.epoch == epoch_before
        assert hub.mirror_epoch == db.epoch

    def test_autocommit_is_single_event_delta(self, db, hub):
        deltas = collect(hub)
        db.new_entity("o1")
        db.new_entity("o2")
        assert [len(d) for d in deltas] == [1, 1]
        assert [d.events[0][0] for d in deltas] == ["add", "add"]
        assert deltas[-1].epoch == db.epoch

    def test_commit_after_abort_still_flows(self, db, hub):
        deltas = collect(hub)
        with pytest.raises(ModelError):
            with db.transaction():
                db.new_entity("o1")
                db.new_entity("o1")
        with db.transaction():
            db.new_entity("o2")
        assert len(deltas) == 1
        assert deltas[0].events[0][1].oid.name == "o2"

    def test_empty_txn_delivers_nothing(self, db, hub):
        deltas = collect(hub)
        with db.transaction():
            pass
        assert deltas == []


class TestMonotonicity:
    def test_removal_makes_delta_non_monotone(self, db, hub):
        db.new_entity("o1")
        deltas = collect(hub)
        with db.transaction():
            db.new_entity("o2")
            db.remove_object("o1")
        assert len(deltas) == 1
        assert not deltas[0].monotone

    def test_declare_relation_is_monotone(self, db, hub):
        deltas = collect(hub)
        db.declare_relation("meets")
        assert len(deltas) == 1
        assert deltas[0].monotone


class TestEpochMirror:
    def test_mirror_tracks_epoch(self, db, hub):
        db.new_entity("o1")
        with db.transaction():
            db.new_interval("gi1", duration=[(0, 5)])
        assert hub.mirror_epoch == db.epoch
        hub.check_epoch()  # no raise

    def test_out_of_band_write_raises_vdb051(self, db, hub):
        hub.detach()
        db.new_entity("o1")  # the hub never sees this
        with pytest.raises(EvaluationError,
                           match=r"VDB051 .*\(ViewRegistry\.refresh_all\)"):
            hub.check_epoch()

    def test_detach_reattach_resyncs(self, db, hub):
        hub.detach()
        db.new_entity("o1")
        hub.attach()  # attach resyncs the mirror to the live epoch
        hub.check_epoch()
        deltas = collect(hub)
        db.new_entity("o2")
        assert len(deltas) == 1

    def test_rebind_follows_database_swap(self, hub):
        other = VideoDatabase("other")
        other.new_entity("x1")
        hub.rebind(other)
        assert hub.db is other
        hub.check_epoch()
        deltas = collect(hub)
        other.new_entity("x2")
        assert len(deltas) == 1


class TestConsumers:
    def test_remove_consumer(self, db, hub):
        deltas = collect(hub)
        hub.remove_consumer(deltas.append)
        db.new_entity("o1")
        assert deltas == []

    def test_consumers_see_commit_order(self, db, hub):
        seen = []
        hub.add_consumer(lambda d: seen.append(("a", d.epoch)))
        hub.add_consumer(lambda d: seen.append(("b", d.epoch)))
        db.new_entity("o1")
        db.new_entity("o2")
        epochs = [epoch for _, epoch in seen]
        assert epochs == sorted(epochs)
        assert seen[0][0] == "a" and seen[1][0] == "b"


class TestCommittedDelta:
    def test_repr_and_len(self):
        delta = CommittedDelta([("add", None), ("relate", None)], 5, 3)
        assert len(delta) == 2
        assert "epoch 3->5" in repr(delta)
