"""Unit tests for the indexed video database."""

import pytest

from vidb.errors import ModelError, UnknownOidError
from vidb.intervals.generalized import GeneralizedInterval
from vidb.model.objects import EntityObject, GeneralizedIntervalObject
from vidb.model.oid import Oid
from vidb.model.relations import RelationFact
from vidb.storage.database import VideoDatabase


def gi(*pairs):
    return GeneralizedInterval.from_pairs(pairs)


@pytest.fixture
def db():
    database = VideoDatabase("unit")
    database.new_entity("a", name="Ana", role="host")
    database.new_entity("b", name="Ben", role="guest")
    database.new_entity("c", name="Cem", role="guest")
    database.new_interval("g1", entities=["a", "b"], duration=[(0, 10)],
                          subject="intro")
    database.new_interval("g2", entities=["b", "c"],
                          duration=[(20, 30), (40, 50)], subject="debate")
    database.relate("in", Oid.entity("a"), Oid.entity("b"),
                    Oid.interval("g1"))
    return database


class TestPopulation:
    def test_stats(self, db):
        assert db.stats() == {"entities": 3, "intervals": 2, "facts": 1}

    def test_new_interval_accepts_pair_list(self, db):
        interval = db.interval("g2")
        assert interval.footprint() == gi((20, 30), (40, 50))

    def test_entities_coerced_from_names(self, db):
        assert Oid.entity("a") in db.interval("g1").entities

    def test_relate_accepts_objects_and_oids(self, db):
        ana = db.entity("a")
        fact = db.relate("likes", ana, Oid.entity("b"))
        assert fact.args == (Oid.entity("a"), Oid.entity("b"))

    def test_relate_deduplicates(self, db):
        before = len(db.facts())
        db.relate("in", Oid.entity("a"), Oid.entity("b"), Oid.interval("g1"))
        assert len(db.facts()) == before

    def test_add_rejects_plain_object(self, db):
        with pytest.raises(ModelError):
            db.add("nope")  # type: ignore[arg-type]


class TestAccessPaths:
    def test_find_by_attribute_scalar(self, db):
        found = db.find_by_attribute("role", "guest")
        assert {str(o.oid) for o in found} == {"b", "c"}

    def test_find_by_attribute_set_member(self, db):
        db.new_interval("g3", entities=["a"], duration=[(60, 70)],
                        crew={Oid.entity("b"), Oid.entity("c")})
        found = db.find_by_attribute("crew", Oid.entity("b"))
        assert [str(o.oid) for o in found] == ["g3"]

    def test_intervals_with_entity(self, db):
        assert [str(i.oid) for i in db.intervals_with_entity("b")] == ["g1", "g2"]
        assert [str(i.oid) for i in db.intervals_with_entity("a")] == ["g1"]

    def test_entities_in(self, db):
        assert [str(e.oid) for e in db.entities_in("g1")] == ["a", "b"]

    def test_intervals_at(self, db):
        assert [str(i.oid) for i in db.intervals_at(5)] == ["g1"]
        assert [str(i.oid) for i in db.intervals_at(45)] == ["g2"]
        assert db.intervals_at(15) == []
        assert db.intervals_at(35) == []  # in g2's gap

    def test_intervals_overlapping(self, db):
        assert [str(i.oid) for i in db.intervals_overlapping(5, 25)] == ["g1", "g2"]
        assert db.intervals_overlapping(11, 19) == []
        assert [str(i.oid) for i in db.intervals_overlapping(31, 39)] == []

    def test_footprint(self, db):
        assert db.footprint("g2") == gi((20, 30), (40, 50))
        assert db.footprint("missing") is None

    def test_facts_by_name_and_arg(self, db):
        assert len(db.facts("in")) == 1
        assert len(db.facts("missing")) == 0
        assert len(db.facts_with_arg("in", 0, Oid.entity("a"))) == 1
        assert len(db.facts_with_arg("in", 0, Oid.entity("b"))) == 0

    def test_relation_names(self, db):
        assert db.relation_names() == frozenset({"in"})


class TestUpdates:
    def test_set_attribute_reindexes(self, db):
        db.set_attribute(Oid.entity("b"), "role", "host")
        assert {str(o.oid) for o in db.find_by_attribute("role", "host")} == {"a", "b"}
        assert {str(o.oid) for o in db.find_by_attribute("role", "guest")} == {"c"}

    def test_replace_interval_updates_temporal_index(self, db):
        updated = db.interval("g1").with_attribute("duration", gi((100, 110)))
        db.replace(updated)
        assert db.intervals_at(5) == []
        assert [str(i.oid) for i in db.intervals_at(105)] == ["g1"]

    def test_replace_interval_updates_membership(self, db):
        updated = GeneralizedIntervalObject(
            Oid.interval("g1"),
            {"entities": {Oid.entity("c")}, "duration": gi((0, 10))})
        db.replace(updated)
        assert db.intervals_with_entity("a") == []
        assert [str(i.oid) for i in db.intervals_with_entity("c")] == ["g1", "g2"]

    def test_replace_unknown_raises(self, db):
        with pytest.raises(UnknownOidError):
            db.replace(EntityObject(Oid.entity("zz")))

    def test_remove_object_clears_indexes(self, db):
        db.remove_object(Oid.interval("g1"))
        assert db.intervals_at(5) == []
        assert db.intervals_with_entity("a") == []
        assert db.stats()["intervals"] == 1

    def test_remove_fact(self, db):
        fact = RelationFact("in", (Oid.entity("a"), Oid.entity("b"),
                                   Oid.interval("g1")))
        db.remove_fact(fact)
        assert db.facts("in") == frozenset()
        assert db.facts_with_arg("in", 0, Oid.entity("a")) == frozenset()

    def test_string_oid_coercion_in_require(self, db):
        db.set_attribute("a", "name", "Anna")
        assert db.entity("a")["name"] == "Anna"


def rows(db, name):
    return set(db.relation(name).tuples)


class TestStoredRelations:
    def test_class_relations_and_object_map(self, db):
        entities = {(Oid.entity(n),) for n in "abc"}
        intervals = {(Oid.interval("g1"),), (Oid.interval("g2"),)}
        assert rows(db, "object") == entities
        assert rows(db, "interval") == intervals
        assert rows(db, "anyobject") == entities | intervals
        assert set(db.objects) == {row[0] for row in entities | intervals}

    def test_replace_and_remove_maintain_class_relations(self, db):
        g1 = Oid.interval("g1")
        db.set_attribute(g1, "subject", "opening")
        assert db.objects[g1]["subject"] == "opening"
        assert (g1,) in db.relation("interval")
        db.remove_object(g1)
        assert g1 not in db.objects
        assert (g1,) not in db.relation("interval")
        assert (g1,) not in db.relation("anyobject")

    def test_emptied_relation_disappears_unless_declared(self, db):
        fact = next(iter(db.facts("in")))
        db.declare_relation("seen")
        db.relate("seen", Oid.entity("a"))
        db.remove_fact(fact)
        db.remove_fact(RelationFact("seen", (Oid.entity("a"),)))
        assert db.relation("in") is None
        assert db.relation_names() == frozenset({"seen"})
        assert len(db.relation("seen")) == 0

    def test_rollback_restores_relations(self, db):
        before = {name: rows(db, name)
                  for name in ("in", "object", "interval", "anyobject")}
        try:
            with db.transaction():
                db.new_entity("d")
                db.relate("in", Oid.entity("d"), Oid.interval("g2"))
                db.remove_fact(next(iter(db.facts("in"))))
                db.remove_object(Oid.interval("g1"))
                raise RuntimeError("abort")
        except RuntimeError:
            pass
        assert {name: rows(db, name) for name in before} == before
        assert set(db.objects) == {row[0] for row in before["anyobject"]}

    def test_writes_do_not_copy_the_fact_set(self, db, monkeypatch):
        def copy_of_every_fact(*_args):
            raise AssertionError("VideoSequence.facts() called on a write")

        monkeypatch.setattr(type(db.sequence), "facts", copy_of_every_fact)
        fact = db.relate("in", Oid.entity("c"), Oid.interval("g2"))
        assert db.relate("in", Oid.entity("c"), Oid.interval("g2")) == fact
        db.remove_fact(fact)
        db.remove_fact(fact)  # absent: a no-op
        assert db.stats()["facts"] == 1
