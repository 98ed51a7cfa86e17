"""Integration tests: the query engine runs the analyzer at prepare
time — warnings land on the report, errors raise before the fixpoint."""

import pytest

from vidb.errors import SafetyError, UnknownPredicateError
from vidb.model.oid import Oid
from vidb.query.engine import QueryEngine
from vidb.query.execution import ExecutionOptions
from vidb.query.parser import parse_program
from vidb.storage.database import VideoDatabase


@pytest.fixture
def db():
    database = VideoDatabase("analysis-integration")
    database.new_entity("o1", name="David")
    database.new_entity("o2", name="Philip")
    database.new_interval("g1", entities=["o1", "o2"], duration=[(0, 10)])
    database.new_interval("g2", entities=["o2"], duration=[(20, 30)])
    return database


class TestWarningsOnReport:
    def test_cartesian_query_warns_with_span(self, db):
        engine = QueryEngine(db)
        report = engine.execute("?- object(A), interval(B).")
        codes = [d.code for d in report.diagnostics]
        assert "VDB031" in codes
        warning = next(d for d in report.diagnostics if d.code == "VDB031")
        assert warning.span is not None
        assert warning.span.line == 1
        # The query still evaluates: 2 objects x 2 intervals.
        assert len(report.answers) == 4

    def test_unreachable_rule_warns(self, db):
        engine = QueryEngine(db)
        engine.add_rules("""
            used(X) :- object(X).
            orphan(X) :- object(X).
        """)
        report = engine.execute("?- used(X).")
        assert "VDB032" in [d.code for d in report.diagnostics]

    def test_clean_query_has_no_diagnostics(self, db):
        engine = QueryEngine(db)
        report = engine.execute(
            "?- interval(G), object(o1), o1 in G.entities.")
        assert report.diagnostics == ()

    def test_diagnostics_serialized_in_report_dict(self, db):
        engine = QueryEngine(db)
        report = engine.execute("?- object(A), interval(B).")
        out = report.as_dict()
        assert any(d["code"] == "VDB031" for d in out["diagnostics"])

    def test_clean_report_dict_omits_diagnostics(self, db):
        engine = QueryEngine(db)
        report = engine.execute("?- object(O).")
        assert "diagnostics" not in report.as_dict()

    def test_dead_rule_still_warns_but_query_runs(self, db):
        engine = QueryEngine(db)
        engine.add_rules(
            "dead(G) :- interval(G), G.start < 3, G.start > 5.")
        report = engine.execute("?- dead(G).")
        assert "VDB020" in [d.code for d in report.diagnostics]
        assert len(report.answers) == 0


class TestErrorsShortCircuit:
    def test_unknown_predicate_raises_eagerly(self, db):
        engine = QueryEngine(db)
        with pytest.raises(UnknownPredicateError):
            engine.execute("?- nosuch(X).")

    def test_analysis_stage_recorded_before_evaluate(self, db):
        engine = QueryEngine(db)
        report = engine.execute("?- object(O).")
        stages = list(report.stats.stages)
        assert "analyze" in stages
        assert stages.index("analyze") < stages.index("evaluate")

    def test_unreachable_bad_rule_does_not_block_pruned_query(self, db):
        # With pruning on, an error inside a rule the query never touches
        # must not stop the query (the pruned evaluation skips the rule).
        engine = QueryEngine(db, prune_rules=True)
        engine.program = engine.program.extend(parse_program(
            "good(X) :- object(X).\n"
            "bad(X) :- object(X), nosuch(X)."))
        report = engine.execute("?- good(X).")
        assert len(report.answers) == 2

    def test_reachable_bad_rule_blocks(self, db):
        engine = QueryEngine(db, prune_rules=True)
        engine.program = engine.program.extend(parse_program("bad(X) :- object(X), nosuch(X)."))
        with pytest.raises(UnknownPredicateError):
            engine.execute("?- bad(X).")

    def test_unpruned_engine_blocks_on_any_bad_rule(self, db):
        engine = QueryEngine(db, prune_rules=False)
        engine.program = engine.program.extend(parse_program(
            "good(X) :- object(X).\n"
            "bad(X) :- object(X), nosuch(X)."))
        with pytest.raises(UnknownPredicateError):
            engine.execute("?- good(X).")

    def test_non_predicate_errors_raise_safety_error(self, db):
        engine = QueryEngine(db, prune_rules=False)
        # Bypass add_rules' own eager check to reach the analyzer's.
        engine.program = engine.program.extend(
            parse_program("p(X) :- object(X).\np(X, Y) :- rel(X, Y)."))
        db.relate("rel", Oid.entity("o1"), Oid.entity("o2"))
        with pytest.raises(SafetyError):
            engine.execute("?- p(X).")


class TestOptingOut:
    def test_options_analyze_false_skips(self, db):
        engine = QueryEngine(db)
        report = engine.execute("?- object(A), interval(B).",
                                ExecutionOptions(analyze=False))
        assert report.diagnostics == ()

    def test_engine_analyze_false_skips(self, db):
        engine = QueryEngine(db, analyze=False)
        report = engine.execute("?- object(A), interval(B).")
        assert report.diagnostics == ()

    def test_options_analyze_true_overrides_engine_default(self, db):
        engine = QueryEngine(db, analyze=False)
        report = engine.execute("?- object(A), interval(B).",
                                ExecutionOptions(analyze=True))
        assert "VDB031" in [d.code for d in report.diagnostics]


class TestWarmPath:
    def test_repeat_execution_hits_analysis_cache(self, db):
        # The analysis is cached per query shape: a repeat and a text
        # that differs only in its constant both find it.
        engine = QueryEngine(db)
        engine.execute("?- object(O).")
        engine.execute("?- object(O).")
        engine.execute("?- object(o1).")
        engine.execute("?- object(o2).")
        assert engine.shapes.hits == 2
        assert engine.shapes.misses == 2

    def test_database_mutation_invalidates_by_key(self, db):
        engine = QueryEngine(db)
        engine.execute("?- object(O).")
        db.relate("seen", Oid.entity("o1"))
        engine.execute("?- object(O).")
        # relation_names() changed, so the second run is a fresh key —
        # never a stale hit.
        assert engine.shapes.misses == 2
