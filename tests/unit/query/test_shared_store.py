"""Evaluation and standing views read the database's relations in place.

The database owns one relation per fact relation, the class relations
and the object map; an evaluation owns only its IDB relations, plus
copies of what a ``++`` head extends.  These tests pin the sharing rules.
"""

import pytest

from vidb.model.objects import GeneralizedIntervalObject
from vidb.model.oid import Oid
from vidb.intervals.generalized import GeneralizedInterval
from vidb.query.engine import QueryEngine
from vidb.query.fixpoint import evaluate
from vidb.query.incremental import MaterializedView
from vidb.query.parser import parse_program
from vidb.storage.database import VideoDatabase

REACH = parse_program("""
    reach(X, Y) :- next(X, Y).
    reach(X, Z) :- reach(X, Y), next(Y, Z).
""")

MERGED = parse_program("""
    merged(G1 ++ G2) :- next(G1, G2).
    early(G) :- merged(G), G.duration => (t >= 0 and t <= 15).
""")


def oid(name):
    return Oid.interval(name)


@pytest.fixture
def db():
    database = VideoDatabase("shared")
    for i in range(3):
        database.new_entity(f"e{i}")
        database.new_interval(f"g{i}", entities=[f"e{i}"],
                              duration=[(i * 10, i * 10 + 5)])
        database.relate("appears", Oid.entity(f"e{i}"), oid(f"g{i}"))
    database.relate("next", oid("g0"), oid("g1"))
    database.relate("next", oid("g1"), oid("g2"))
    return database


def interval(name, lo):
    return GeneralizedIntervalObject(
        oid(name), {"duration": GeneralizedInterval.from_pairs([(lo, lo + 5)])})


class TestEvaluationReadsInPlace:
    def test_query_does_no_work_per_record(self, db, monkeypatch):
        engine = QueryEngine(db, rules=REACH)
        for name in ("facts", "intervals", "entities"):
            monkeypatch.setattr(db, name, pytest.fail)
        report = engine.execute("?- appears(e1, G).")
        assert [str(g) for g in report.answers.column("G")] == ["g1"]
        assert report.cost is not None  # statistics read relation sizes
        assert len(engine.query("?- reach(g0, Y).")) == 2

    def test_evaluation_owns_only_its_idb(self, db):
        result = evaluate(db, REACH)
        assert set(result.context.relations) == {"reach"}
        assert result.context.objects is db.objects
        assert result.context.relation("next") is db.relation("next")
        assert result.context.relation("object") is db.relation("object")

    def test_concatenation_copies_and_leaves_the_store_alone(self, db):
        before = set(db.relation("interval").tuples)
        result = evaluate(db, MERGED)
        created = {oid for oid in result.context.objects if oid.is_composite}
        assert len(created) == 2
        assert set(db.relation("interval").tuples) == before
        assert not any(oid.is_composite for oid in db.objects)

    def test_later_round_reads_a_created_interval(self, db):
        # merged(g0++g1) is created in round 0; early/1 reads its
        # duration in round 1, through the copied object map.
        result = evaluate(db, MERGED)
        early = {str(row[0]) for row in result.relation("early")}
        assert early == {"g0++g1"}
        naive = evaluate(db, MERGED, mode="naive")
        assert naive.relation("early") == result.relation("early")


class TestViewsShareTheStore:
    def test_unsealed_view_fed_after_the_database_holds_the_row(self, db):
        view = MaterializedView(db, REACH)
        db.new_interval("g3", duration=[(30, 35)])
        db.relate("next", oid("g2"), oid("g3"))
        with view.feeding():
            assert view.insert_object(db.interval("g3"))
            assert view.insert_fact("next", oid("g2"), oid("g3"))
        assert (oid("g0"), oid("g3")) in view.relation("reach")
        assert view.relation("reach") == evaluate(db, REACH).relation("reach")
        assert set(view.context.relations) == {"reach"}
        assert view.context.relation("next") is db.relation("next")

    def test_fed_rows_reach_the_views_concatenation_copies(self, db):
        view = MaterializedView(db, MERGED)
        assert view.context.extended
        db.add(interval("g3", 15))
        db.relate("next", oid("g3"), oid("g1"))
        with view.feeding():
            view.insert_object(db.interval("g3"))
            view.insert_fact("next", oid("g3"), oid("g1"))
        fresh = evaluate(db, MERGED)
        for name in ("merged", "early", "interval", "anyobject"):
            assert view.relation(name) == fresh.relation(name)
        assert set(view.context.objects) == set(fresh.context.objects)

    def test_direct_insert_copies_on_first_write(self, db):
        view = MaterializedView(db, REACH)
        assert view.insert_fact("next", oid("g2"), oid("g0"))
        assert (oid("g2"), oid("g0")) not in db.relation("next")
        assert view.context.relation("next") is not db.relation("next")
        assert not view.insert_fact("next", oid("g2"), oid("g0"))
