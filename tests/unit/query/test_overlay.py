"""Unit tests for the ⊕ overlay: the constructive closure evaluated once
per (program version, database epoch) and read by queries as stored
relations.

Answer equality against the unoptimised engine under writes, removals
and rollbacks is the differential suite's job
(tests/property/test_demand_properties.py); these pin when the overlay
is built, reused, bypassed and never published.
"""

import sys
import threading

import pytest

from vidb.errors import EvaluationError, ObjectBudgetError, QueryTimeoutError
from vidb.model.oid import Oid
from vidb.query.engine import QueryEngine
from vidb.query.fixpoint import evaluate
from vidb.query.parser import parse_program
from vidb.storage.database import VideoDatabase

REACH = """
    reach(X, Y) :- in(X, Y, G).
    reach(X, Z) :- reach(X, Y), in(Y, Z, G).
"""
MERGED = ("merged(G1 ++ G2) :- interval(G1), interval(G2), object(b), "
          "b in G1.entities, b in G2.entities, G1 != G2.\n")
CREATED = Oid.concat(Oid.interval("g1"), Oid.interval("g2"))


@pytest.fixture
def db():
    db = VideoDatabase("overlay")
    for name in "abc":
        db.new_entity(name)
    db.new_interval("g1", entities=["a", "b"], duration=[(0, 10)])
    db.new_interval("g2", entities=["b", "c"], duration=[(5, 30)])
    db.new_interval("g3", entities=["a"], duration=[(40, 50)])
    db.relate("in", Oid.entity("a"), Oid.entity("b"), Oid.interval("g1"))
    return db


def engine_of(db, **options):
    return QueryEngine(db, rules=REACH + MERGED, use_stdlib_rules=True,
                       **options)


def oracle_rows(db, text):
    return QueryEngine(db, rules=REACH + MERGED, use_stdlib_rules=True,
                       prune_rules=False, mode="naive",
                       kernel="reference").query(text).rows()


def overlay_line(report):
    (line,) = [line for line in report.demand
               if line.startswith("from overlay: interval")]
    return line


class TestLifecycle:
    def test_reused_while_the_epoch_holds_and_rebuilt_after_a_write(self, db):
        engine = engine_of(db)
        text = "?- interval(G), object(O), O in G.entities."
        first = engine.execute(text, trace=True)
        overlay = engine._state.overlay
        assert overlay is not None
        assert first.stats.created_objects == 1
        assert overlay_line(first) == (
            f"from overlay: interval (epoch {db.epoch}, built)")
        again = engine.execute("?- contains(g2, G).", trace=True)
        assert engine._state.overlay is overlay
        assert again.stats.created_objects == 0
        assert "(epoch %d, reused)" % db.epoch in overlay_line(again)
        db.new_interval("g4", entities=["b"], duration=[(60, 70)])
        after = engine.execute(text, trace=True)
        assert engine._state.overlay is not overlay
        assert "built" in overlay_line(after)
        assert after.answers.rows() == oracle_rows(db, text)

    def test_a_query_that_needs_no_class_never_builds_it(self, db):
        engine = engine_of(db)
        report = engine.execute("?- reach(a, Y).", trace=True)
        assert engine._state.overlay is None
        assert not any("overlay" in line for line in report.demand)

    def test_a_program_without_constructive_rules_has_nothing_to_serve(
            self, db):
        engine = QueryEngine(db, rules=REACH, use_stdlib_rules=True)
        engine.execute("?- contains(g1, G).")
        assert engine._state.overlay is None

    def test_only_the_building_query_traces_the_build(self, db):
        engine = engine_of(db)
        text = "?- merged(G)."
        built = engine.execute(text, trace=True).trace
        assert built.name == "query.execute"
        (span,) = built.find("query.overlay")
        assert span.payload == {"epoch": db.epoch}
        assert span.find("fixpoint.iteration")
        reused = engine.execute(text, trace=True).trace
        assert not reused.find("query.overlay")
        assert engine.query(text).rows() == [(CREATED,)]


class TestOraclesBypassTheOverlay:
    TEXT = "?- interval(G), object(O), O in G.entities."

    @pytest.mark.parametrize("override", [
        {"kernel": "reference"}, {"mode": "naive"}, {"mode": "seminaive"},
        {"provenance": {}}])
    def test_overrides_evaluate_the_overlay_rules_inline(self, db, override):
        engine = engine_of(db)
        report = engine.execute(self.TEXT, trace=True, **override)
        assert engine._state.overlay is None
        assert report.stats.created_objects == 1
        assert overlay_line(report) == "from overlay: interval (inline)"
        assert report.answers.rows() == engine.query(self.TEXT).rows()

    def test_an_eager_engine_never_builds_it(self, db):
        engine = engine_of(db, extended_domain="eager")
        engine.execute(self.TEXT)
        assert engine._state.overlay is None

    def test_the_derivation_of_a_created_interval_is_unchanged(self, db):
        engine = engine_of(db)
        engine.execute(self.TEXT)  # an overlay exists, explain() ignores it
        (tree,) = engine.explain("?- merged(G).")
        lines = tree.render().splitlines()
        assert lines[:2] == [f"q__answer({CREATED})   [via query]",
                             f"  merged({CREATED})   [via merged]"]
        assert sorted(lines[2:]) == [  # G1/G2 order follows set iteration
            "    interval(g1)   [database fact]",
            "    interval(g2)   [database fact]"]
        baseline = QueryEngine(db, rules=REACH + MERGED,
                               use_stdlib_rules=True, prune_rules=False)
        assert [t.render() for t in baseline.explain("?- merged(G).")] == [
            tree.render()]


class TestNothingPublishedOnFailure:
    def test_a_deadline_hit_during_the_build_publishes_nothing(self, db):
        engine = engine_of(db)
        with pytest.raises(QueryTimeoutError):
            engine.execute("?- merged(G).", timeout_s=0)
        assert engine._state.overlay is None
        assert engine.query("?- merged(G).").rows() == [(CREATED,)]
        assert engine._state.overlay is not None

    def test_the_budget_error_names_rule_operands_and_budget(self, db):
        engine = QueryEngine(db, rules=MERGED, max_objects=len(db.objects))
        with pytest.raises(ObjectBudgetError) as raised:
            engine.execute("?- interval(G).")
        error = raised.value
        assert isinstance(error, EvaluationError)
        assert (error.rule, error.budget) == ("merged", len(db.objects))
        assert {error.left, error.right} == {Oid.interval("g1"),
                                             Oid.interval("g2")}
        assert "'merged'" in str(error) and str(len(db.objects)) in str(error)
        assert engine._state.overlay is None

    def test_evaluate_raises_it_from_the_head(self, db):
        program = parse_program("big(G1 ++ G2) :- interval(G1), interval(G2).")
        with pytest.raises(ObjectBudgetError, match="'big'"):
            evaluate(db, program, max_objects=len(db.objects))


class TestTransactions:
    def test_sizing_is_never_served_across_a_rolled_back_epoch(self):
        db = VideoDatabase("sizing")
        db.new_entity("e0")
        db.new_interval("g0", entities=["e0"], duration=[(0, 1)])
        engine = QueryEngine(db)
        with db.transaction() as txn:
            for i in range(5):
                db.new_entity(f"x{i}")
            inside_epoch = db.epoch
            assert engine._sizing()[0].entities == 6
            txn.rollback()
        for i in range(5):
            db.new_interval(f"h{i}", duration=[(i, i + 1)])
        assert db.epoch == inside_epoch
        stats, _ = engine._sizing()
        assert (stats.entities, stats.intervals) == (1, 6)

    def test_the_overlay_is_never_served_across_a_rolled_back_epoch(self, db):
        engine = engine_of(db)
        text = "?- merged(G)."
        with db.transaction() as txn:
            db.new_interval("t1", entities=["b"], duration=[(80, 90)])
            inside = engine.query(text).rows()
            assert len(inside) == 4 and inside == oracle_rows(db, text)
            inside_epoch = db.epoch
            txn.rollback()
        db.new_entity("d")
        assert db.epoch == inside_epoch
        assert engine.query(text).rows() == oracle_rows(db, text) == [
            (CREATED,)]

    def test_the_cost_cache_is_bypassed_inside_a_transaction(self, db):
        engine = engine_of(db)
        with db.transaction() as txn:
            db.new_entity("d")
            engine.execute("?- contains(g1, G).")
            txn.rollback()
        # Nothing estimated inside the transaction was kept for the
        # epoch it leaves behind.
        assert len(engine._epoch_state().costs) == 0


def test_threads_at_one_epoch_read_identical_rows(db):
    engine = engine_of(db)
    text = "?- interval(G), object(O), O in G.entities."
    workers = 4
    start = threading.Barrier(workers)
    rows = [None] * workers

    def run(slot):
        start.wait()
        rows[slot] = engine.query(text).rows()

    threads = [threading.Thread(target=run, args=(slot,))
               for slot in range(workers)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    expected = oracle_rows(db, text)
    assert (CREATED, Oid.entity("c")) in expected
    assert rows == [expected] * workers
    assert engine.query(text).rows() == expected
