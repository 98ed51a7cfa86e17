"""Query shapes: constants lifted, compiled once, bound per text.

A text the engine has seen the shape of must be reported exactly as a
cold engine reports it — codes, messages, spans and errors — and answer
exactly as the whole program run without the rewrite.
"""

import pytest

from vidb.analysis import analyze
from vidb.analysis.cost import Stats, estimate_program, size_program
from vidb.errors import SafetyError, UnknownPredicateError
from vidb.model.oid import Oid
from vidb.query import engine as engine_module
from vidb.query.ast import Literal, Query, Symbol, Variable
from vidb.query.demand import goal_predicates, reachable_predicates
from vidb.query.engine import QueryEngine
from vidb.query.execution import ExecutionOptions
from vidb.query.parser import parse_query
from vidb.query.shape import Param, ParamFormula, lift, substitute
from vidb.service.executor import ServiceExecutor
from vidb.storage.database import VideoDatabase
from vidb.stream.standing import Subscription
from vidb.workloads.paper import rope_database

REACH = ("reach(X, Y) :- in(X, Y, G).\n"
         "reach(X, Z) :- reach(X, Y), in(Y, Z, G).\n")
CONCAT = ("cat_e1_e2(G1 ++ G2) :- interval(G1), interval(G2), object(e1), "
          "anyobject(e2), {e1, e2} subset G1.entities, "
          "{e1, e2} subset G2.entities.\n")


@pytest.fixture
def db():
    db = VideoDatabase("shapes")
    for i in range(6):
        db.new_entity(f"e{i}", role="host" if i % 2 else "guest",
                      salience=i)
    for i in range(6):
        db.new_interval(f"g{i}", entities=[f"e{i}", f"e{(i + 1) % 6}",
                                           "e1", "e2"],
                        duration=[(10 * i, 10 * i + 25)])
        db.relate("in", Oid.entity(f"e{i}"), Oid.entity(f"e{(i + 1) % 6}"),
                  Oid.interval(f"g{i}"))
    return db


def engine_of(db):
    return QueryEngine(db, rules=REACH + CONCAT, use_stdlib_rules=True)


def located(diagnostics):
    return [(d.code, d.severity, d.message, d.span, d.rule_index)
            for d in diagnostics]


def cold(db, text):
    """What a cold engine reports for *text*: the analysis plus the cost
    advisories of the concrete text."""
    engine = engine_of(db)
    query = parse_query(text)
    program = engine.program
    computed = {name: arity for name, (arity, _) in engine.computed.items()}
    analysis = analyze(program, query, edb=db.relation_names(),
                       computed=computed)
    stats = Stats.from_database(db)
    cost = estimate_program(
        program, stats, computed=tuple(computed), queries=(query,),
        relevant=reachable_predicates(program, goal_predicates(query.body)),
        sizes=size_program(program, stats, computed=tuple(computed)))
    return analysis.diagnostics + cost.diagnostics()


class TestLift:
    TEXT = ('?- interval(G), object(O), o1 in G.entities, '
            '{o2, O} subset G.entities, O.name = "Ann", o3.role = O.role, '
            'G.duration => (t > 4310 and t < 7810).')

    def test_every_constant_is_lifted_in_order(self):
        query = parse_query(self.TEXT)
        lifted = lift(query)
        assert lifted.values == {
            "$0": Symbol("o1"), "$1": Symbol("o2"), "$2": "Ann",
            "$3": Symbol("o3"), "$4": query.body[-1].right}
        body = lifted.query.body
        assert body[2].element == Param(0)
        assert body[3].subset == (Param(1), Variable("O"))
        assert body[4].right == Param(2)
        assert body[5].left.subject == Param(3)
        assert isinstance(body[6].right, ParamFormula)
        assert body[:2] == query.body[:2]

    def test_texts_differing_only_in_constants_share_a_key(self):
        other = (self.TEXT.replace("o1", "o7").replace("Ann", "Bo")
                 .replace("4310", "10"))
        assert lift(parse_query(self.TEXT)).key == lift(
            parse_query(other)).key

    def test_variable_names_and_constant_positions_are_the_shape(self):
        key = lift(parse_query("?- reach(e1, Y).")).key
        assert lift(parse_query("?- reach(e1, Z).")).key != key
        assert lift(parse_query("?- reach(Y, e1).")).key != key
        assert lift(parse_query("?- reach(X, Y).")).key != key

    def test_a_constraint_formula_keeps_its_rule_variables(self):
        a = lift(parse_query("?- interval(G), object(X), "
                             "G.duration => (t > X)."))
        b = lift(parse_query("?- interval(G), object(Y), "
                             "G.duration => (t > Y)."))
        assert a.key != b.key
        assert a.query.body[2].variables() == {Variable("G"), Variable("X")}

    def test_substitution_gives_the_text_back(self):
        query = parse_query(self.TEXT)
        lifted = lift(query)
        assert [substitute(item, lifted.values)
                for item in lifted.query.body] == list(query.body)

    def test_anchors_are_the_texts_own_spans(self):
        query = parse_query("\n\n?- object(Alpha), interval(Beta).")
        lifted = lift(query)
        assert lifted.anchors == (query.span, query.body[0].span,
                                  query.body[1].span)
        assert lifted.query.body[1].span.line == 0

    def test_a_query_without_spans_has_its_own_key(self):
        built = Query([Literal("object", [Variable("O")])])
        assert lift(built).key != lift(parse_query("?- object(O).")).key


def identity(text):
    """What the result cache keys a text on, besides program and epoch."""
    lifted = lift(text)
    return lifted.identity, lifted.constants


class TestIdentity:
    """Two texts share a result-cache entry exactly when one is the other
    with its variables renamed."""

    def test_variables_are_renamed(self):
        assert (identity("?- interval(G), object(O), O in G.entities.")
                == identity("?- interval(S), object(X), X in S.entities."))

    def test_whitespace_is_not_the_query(self):
        assert identity("?-   object( O ).") == identity("?- object(O).")

    def test_different_bodies_differ(self):
        assert identity("?- object(O).") != identity("?- interval(O).")

    def test_constants_are_kept_apart_from_the_shape(self):
        text = '?- object(O), O.name = "David".'
        shape, constants = identity(text)
        assert constants == ("David",)
        assert shape == identity('?- object(X), X.name = "Eve".')[0]
        assert identity(text) != identity('?- object(O), O.name = "Eve".')

    def test_a_symbol_is_not_a_string(self):
        symbol, string = (identity("?- object(O), O.name = o1."),
                          identity('?- object(O), O.name = "o1".'))
        assert symbol[0] == string[0] and symbol != string

    def test_parsed_and_text_queries_agree(self):
        text = "?- object(O)."
        assert identity(parse_query(text)) == identity(text)
        assert lift(text).source.body == parse_query(text).body

    def test_formula_rule_variables_are_renamed(self):
        assert (identity("?- interval(G), (T >= 10) => G.duration.")
                == identity("?- interval(S), (U >= 10) => S.duration."))

    def test_a_formula_joins_on_its_rule_variables(self):
        joined = identity("?- interval(G), object(X), "
                          "G.duration => (t > X).")
        assert joined == identity("?- interval(H), object(Y), "
                                  "H.duration => (t > Y).")
        assert joined != identity("?- interval(G), object(X), "
                                  "G.duration => (t > Z).")

    def test_formula_variables_are_numbered_in_written_order(self):
        assert (identity("?- interval(G), G.duration => (t > A and t < B).")
                == identity("?- interval(G), "
                            "G.duration => (t > B and t < A)."))

    def test_subset_members(self):
        assert (identity("?- interval(G), {o1, o4} subset G.entities.")
                == identity("?- interval(H), {o1, o4} subset H.entities."))
        assert (identity("?- interval(G), {o1, o4} subset G.entities.")
                != identity("?- interval(G), {o1, o5} subset G.entities."))

    def test_projection(self):
        # The answer variables are those of the literals in first
        # occurrence order, so these two are one query renamed ...
        assert identity("?- in(X, Y, G).") == identity("?- in(Y, X, G).")
        # ... while a different literal order is a different body.
        assert (identity("?- object(O), interval(G), O in G.entities.")
                != identity("?- interval(G), object(O), O in G.entities."))

    def test_a_shared_variable_is_not_two_variables(self):
        assert identity("?- in(X, X, G).") != identity("?- in(X, Y, G).")


class TestWarmEqualsCold:
    """Each pair: a first text warms the engine, the second is served
    from its shape and must read exactly as on a cold engine."""

    @pytest.mark.parametrize("first, second", [
        ("?- object(A), interval(B).", "?- object(Alpha), interval(Beta)."),
        ("?- object(A), interval(B).",
         "\n\n?- object(A),   interval(B)."),
        ("?- reach(e1, Y), object(O).", "?- reach(e10, Y), object(O)."),
    ])
    def test_diagnostics(self, db, first, second):
        warm = engine_of(db)
        warm.execute(first)
        report = warm.execute(second)
        expected = engine_of(db).execute(second)
        assert located(report.diagnostics) == located(expected.diagnostics)
        assert report.diagnostics == cold(db, second)

    def test_safety_errors_quote_their_own_text(self, db):
        warm = engine_of(db)
        with pytest.raises(SafetyError, match="B != A"):
            warm.execute("?- object(A), B != A.")
        with pytest.raises(SafetyError) as caught:
            warm.execute("?- object(Alpha), Beta != Alpha.")
        assert "?- object(Alpha), Beta != Alpha." in str(caught.value)

    def test_standing_analysis(self, db):
        warm = engine_of(db)
        warm.analyze_standing("?- object(A), interval(B).")
        text = "?- object(Alpha), interval(Beta)."
        assert (located(warm.analyze_standing(text).diagnostics)
                == located(engine_of(db).analyze_standing(text).diagnostics))

    def test_a_blocking_error_is_raised_by_each_text_and_never_stored(
            self, db):
        engine = engine_of(db)
        for text in ("?- nosuch(e1).", "?- nosuch(e2)."):
            with pytest.raises(UnknownPredicateError, match="nosuch"):
                engine.execute(text)
        shape = engine._shape(lift(parse_query("?- nosuch(e3).")),
                              False, True)
        assert shape.findings is None

    # One text per adhoc_cold shape, each asked after a text of the same
    # shape with other (and differently long) constants.
    @pytest.mark.parametrize("first, second", [
        ("?- reach(e1, Y).", "?- reach(e10, Y)."),
        ("?- reach(X, e1).", "?- reach(X, e2)."),
        ("?- contains(g1, G2).", "?- contains(g12, G2)."),
        ("?- interval(G), object(O), O in G.entities, "
         "G.duration => (t > 10 and t < 30).",
         "?- interval(G), object(O), O in G.entities, "
         "G.duration => (t > 100 and t < 3000)."),
        ('?- interval(G), object(O), O in G.entities, O.role = "host", '
         'O.salience < 3.',
         '?- interval(G), object(O), O in G.entities, O.role = "guest", '
         'O.salience < 30.'),
        ('?- interval(G), object(O), O in G.entities, O.role = "host", '
         'O.salience > 3.',
         '?- interval(G), object(O), O in G.entities, O.role = "a", '
         'O.salience > 4.'),
        ("?- interval(G), object(O2), {e1, O2} subset G.entities, e1 != O2.",
         "?- interval(G), object(O2), {e11, O2} subset G.entities, "
         "e11 != O2."),
        ("?- cat_e1_e2(G), G.duration => (t > 0 and t < 40).",
         "?- cat_e1_e2(G), G.duration => (t > 10 and t < 400)."),
    ])
    def test_a_shape_hit_reports_the_concrete_texts_analysis(
            self, db, first, second):
        engine = engine_of(db)
        engine.execute(first)
        hits = engine.shapes.hits
        report = engine.execute(second)
        assert engine.shapes.hits == hits + 1
        assert report.diagnostics == cold(db, second)
        assert report.answers.rows() == engine.execute(
            second, prune_rules=False).answers.rows()


class TestBinding:
    def test_a_warm_explain_keeps_the_demand_guard_first(self, db):
        engine = engine_of(db)
        engine.execute("?- reach(e0, Y).")
        report = engine.execute("?- reach(e1, Y).", trace=True)
        assert "query: demand reach^bf(e1)." in report.demand
        assert any(line.startswith(
            "reach#2: demand reach^bf(X) -> reach^bf(X, Y)")
            for line in report.demand)

    def test_derivations_read_the_texts_constants(self, db):
        engine = engine_of(db)
        engine.explain("?- object(X), reach(X, e0).")
        text = "?- object(X), reach(X, e2)."

        def rendered(engine):
            return [tree.render() for tree in engine.explain(text)]

        trees = rendered(engine)
        assert trees == rendered(engine_of(db))
        assert trees and "$" not in "".join(trees)

    def test_each_compile_names_its_rules(self, db):
        engine = engine_of(db)
        for name, text in (("standing-a", "?- reach(e1, Y)."),
                           ("standing-b", "?- reach(e2, Y).")):
            program, labels, _ = engine.compile(parse_query(text),
                                                inline=True, name=name)
            query_rules = [rule for rule in program
                           if labels[id(rule)] == name]
            assert query_rules and all(rule.name == name
                                       for rule in query_rules)
        assert (engine.shapes.hits, engine.shapes.misses) == (1, 1)

    def test_standing_queries_of_one_shape_share_it(self, db):
        engine = engine_of(db)
        texts = ("?- reach(X, e1).", "?- reach(X, e2).")
        views = [Subscription(text, engine).view for text in texts]
        assert engine.shapes.misses == 1
        for view, text in zip(views, texts):
            assert view.relation("q__answer") == frozenset(
                engine.query(text).rows())

    def test_prepared_executions_share_one_shape(self):
        with ServiceExecutor(rope_database(), max_workers=1) as service:
            session = service.open_session()
            session.prepare("appears",
                            "?- interval(G), object(O), O in G.entities.",
                            params=["O"])
            session.execute("appears", O="o1")
            session.execute("appears", O="o2")
            shapes = service.engine.shapes
            assert (shapes.hits, shapes.misses) == (1, 1)
            metrics = service.metrics.snapshot()
            assert metrics["shapes.hits"] == 1
            assert metrics["shapes.size"] == 1

    def test_a_schema_change_gives_a_fresh_key(self, db):
        engine = engine_of(db)
        engine.execute("?- reach(e1, Y).")
        db.declare_relation("seen")
        engine.execute("?- reach(e2, Y).")
        assert engine.shapes.misses == 2


class TestFailuresStayAdvisory:
    def test_an_analyzer_defect_drops_only_the_diagnostics(
            self, db, monkeypatch):
        def boom(*args, **kwargs):
            raise RuntimeError("analyzer defect")

        text = "?- object(A), interval(B)."
        expected = engine_of(db).query(text).rows()
        monkeypatch.setattr(engine_module, "query_shape_diagnostics", boom)
        report = engine_of(db).execute(text)
        assert report.diagnostics == () and report.answers.rows() == expected

    def test_an_estimator_defect_drops_only_the_cost(self, db, monkeypatch):
        def boom(*args, **kwargs):
            raise RuntimeError("estimator defect")

        monkeypatch.setattr(engine_module, "estimate_program", boom)
        report = engine_of(db).execute("?- reach(e1, Y).")
        assert report.cost is None and len(report.answers) == 6

    def test_options_off_still_compile_through_the_shape(self, db):
        engine = engine_of(db)
        engine.execute("?- reach(e1, Y).", ExecutionOptions(analyze=False))
        engine.execute("?- reach(e2, Y).")
        assert (engine.shapes.hits, engine.shapes.misses) == (1, 1)
