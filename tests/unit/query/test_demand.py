"""Unit goldens for demand-driven evaluation.

Between rules: the adornments the magic-set rewrite chooses, the
demand rules it generates and its fall-backs.  Inside a rule: the
selection-first join order, constraint scheduling and membership
generators.  Answer equality against the unoptimised engine is the
differential suite's job (tests/property/test_demand_properties.py);
these pin the *shape* of the plans.
"""

import time

import pytest

from vidb.errors import QueryTimeoutError
from vidb.model.oid import Oid
from vidb.query import stdlib
from vidb.query.ast import (
    EntailmentAtom,
    Literal,
    MembershipAtom,
    Rule,
    SubsetAtom,
)
from vidb.query.demand import rewrite
from vidb.query.engine import ANSWER_PREDICATE, QueryEngine
from vidb.query.fixpoint import RulePlan, _reorder_literals
from vidb.query.incremental import MaterializedView
from vidb.query.parser import parse_program, parse_query, parse_rule
from vidb.query.render import render_rule
from vidb.storage.database import VideoDatabase

REACH = """
    reach(X, Y) :- in(X, Y, G).
    reach(X, Z) :- reach(X, Y), in(Y, Z, G).
"""


def demand_of(rules: str, query_text: str, planned: bool = True):
    """The rewrite of *rules* for one query, the way the engine asks for
    it (planner order without cardinalities, or textual order)."""
    query = parse_query(query_text)
    head = Literal(ANSWER_PREDICATE, list(query.answer_variables) or [0])

    def order(literals, bound, constraints):
        return _reorder_literals(literals, lambda p: 0, constraints, bound)[0]

    return rewrite(parse_program(rules), Rule(head, query.body, name="query"),
                   order=order if planned else None)


def rendered(demand):
    return [demand.display(render_rule(rule)) for rule in demand.program]


class TestAdornments:
    def test_reach_bound_free_is_seeded_from_the_constant(self):
        demand = demand_of(REACH, "?- reach(e3, Y).")
        assert sorted(demand.adorned.values()) == [("reach", "bf")]
        assert rendered(demand) == [
            "reach^bf(X, Y) :- demand reach^bf(X), in(X, Y, G).",
            "reach^bf(X, Z) :- demand reach^bf(X), reach^bf(X, Y), "
            "in(Y, Z, G).",
            "query: demand reach^bf(e3).",
            "query: q__answer(Y) :- reach^bf(e3, Y).",
        ]

    def test_reach_free_bound_walks_the_edges_backwards(self):
        demand = demand_of(REACH, "?- reach(X, e3).")
        assert sorted(demand.adorned.values()) == [("reach", "fb")]
        assert "factored: reach^fb" in demand.describe("")
        # X passes through reach(X, Y) unchanged, so the closure is keyed
        # by the seed C and walks in(Y, Z, G) from Z back to Y
        assert rendered(demand) == [
            "reach^fb(X, C) :- factor reach^fb(C, Y), in(X, Y, G).",
            "factor reach^fb(C, C) :- demand reach^fb(C).",
            "factor reach^fb(C, Y) :- factor reach^fb(C, Z), in(Y, Z, G).",
            "query: demand reach^fb(e3).",
            "query: q__answer(X) :- reach^fb(X, e3).",
        ]

    def test_textual_order_factors_the_same_closure(self):
        demand = demand_of(REACH, "?- reach(X, e3).", planned=False)
        assert rendered(demand) == rendered(demand_of(REACH,
                                                      "?- reach(X, e3)."))
        assert not any(rule.head.predicate == "reach"
                       for rule in demand.program)

    def test_path_bound_free_is_factored(self):
        rules = ("path(X, Y) :- edge(X, Y).\n"
                 "path(X, Z) :- edge(X, Y), path(Y, Z).\n")
        demand = demand_of(rules, "?- path(e, Y).")
        assert demand.describe("") == ["adorned: path^bf",
                                       "factored: path^bf"]
        assert rendered(demand) == [
            "path^bf(C, Y) :- factor path^bf(C, X), edge(X, Y).",
            "factor path^bf(C, C) :- demand path^bf(C).",
            "factor path^bf(C, Y) :- factor path^bf(C, X), edge(X, Y).",
            "query: demand path^bf(e).",
            "query: q__answer(Y) :- path^bf(e, Y).",
        ]

    def test_idb_literals_in_a_factored_body_are_demanded(self):
        rules = REACH + ("hop(X, Y) :- reach(X, Y).\n"
                         "hop(X, Z) :- hop(X, Y), reach(Y, Z), Y != Z.\n")
        demand = demand_of(rules, "?- hop(X, e3).")
        assert sorted(demand.factored.values()) == [("hop", "fb"),
                                                    ("reach", "fb")]
        assert rendered(demand)[-4:] == [
            "demand reach^fb(Z) :- factor hop^fb(C, Z).",
            "factor hop^fb(C, Y) :- factor hop^fb(C, Z), reach^fb(Y, Z), "
            "Y != Z.",
            "query: demand hop^fb(e3).",
            "query: q__answer(X) :- hop^fb(X, e3).",
        ]

    @pytest.mark.parametrize("rules, goal", [
        # the persistent X is also read by a filter
        ("near(X, Y) :- edge(X, Y).\n"
         "near(X, Z) :- near(X, Y), edge(Y, Z), X != Z.\n", "near(X, e3)"),
        ("tc(X, Y) :- edge(X, Y).\n"
         "tc(X, Z) :- tc(X, Y), tc(Y, Z).\n", "tc(X, e3)"),
        ("odd(X, Y) :- edge(X, Y).\n"
         "odd(X, Z) :- even(X, Y), edge(Y, Z).\n"
         "even(X, Z) :- odd(X, Y), edge(Y, Z).\n", "odd(X, e3)"),
    ], ids=["persistent-variable-in-body", "non-linear", "mutual"])
    def test_refusals_keep_magic_sets(self, rules, goal):
        demand = demand_of(rules, f"?- {goal}.")
        assert not demand.factored
        assert "factor" not in "\n".join(rendered(demand))
        predicate = goal.split("(")[0]
        assert (predicate, "fb") in demand.adorned.values()

    @pytest.mark.parametrize("goal, adornment", [
        ("contains(g5, G2)", "bf"), ("contains(G1, g5)", "fb")])
    def test_contains(self, goal, adornment):
        demand = demand_of(stdlib.STDLIB_RULES, f"?- {goal}.")
        assert list(demand.adorned.values()) == [("contains", adornment)]
        guard = demand.program.rules[0].body[0]
        assert demand.demands[guard.predicate] == ("contains", adornment)
        assert id(demand.program.rules[0]) in demand.guarded

    def test_same_object_in_bound_free_free(self):
        demand = demand_of(stdlib.STDLIB_RULES,
                           "?- same_object_in(g5, G2, O).")
        assert list(demand.adorned.values()) == [("same_object_in", "bff")]
        assert not any(r.head.predicate == "contains" for r in demand.program)

    def test_bindings_pass_sideways_between_goal_literals(self):
        demand = demand_of(REACH, "?- object(X), reach(X, Y).")
        assert ("query: demand reach^bf(X) :- object(X)."
                in rendered(demand))

    def test_all_free_goal_is_plain_pruning(self):
        program = REACH + "unrelated(X) :- object(X).\n"
        demand = demand_of(program, "?- reach(X, Y).")
        assert not demand.adorned and not demand.demands
        assert [render_rule(r) for r in demand.program.rules[:-1]] == [
            render_rule(r) for r in parse_program(REACH).rules]

    def test_generated_names_avoid_existing_predicates(self):
        program = REACH + "reach__bf(X) :- object(X).\n"
        demand = demand_of(program, "?- reach(e3, Y), reach__bf(e3).")
        assert demand.adorned["reach__bf_"] == ("reach", "bf")


class TestFallbacks:
    RULES = REACH + """
        blocked(X, Y) :- object(X), object(Y), not reach(X, Y).
    """

    def test_negated_predicate_runs_as_written(self):
        demand = demand_of(self.RULES, "?- blocked(e1, Y).")
        assert ("blocked", "bf") in demand.adorned.values()
        assert demand.fallbacks == {"reach": "reached under negation"}
        heads = [rule.head.predicate for rule in demand.program]
        assert heads.count("reach") == 2

    def test_everything_below_a_negated_predicate_runs_as_written(self):
        rules = self.RULES + "far(X) :- object(X), not blocked(e1, X).\n"
        demand = demand_of(rules, "?- far(X).")
        assert set(demand.fallbacks) == {"blocked", "reach"}
        assert not demand.adorned

    def test_constructive_predicates_are_served_never_adorned(self):
        rules = ("merged(X, G1 ++ G2) :- pair(X, G1, G2).\n"
                 "pair(X, G1, G2) :- link(X, G1), link(X, G2).\n")
        for goal in ("merged(a, G)", "merged(X, g1)"):
            demand = demand_of(rules, f"?- {goal}.")
            assert not demand.adorned and not demand.demands
            assert demand.served == {"merged"}
            assert [rule.head.predicate for rule in demand.program] == [
                ANSWER_PREDICATE]

    def test_interval_queries_read_the_overlay(self):
        rules = stdlib.STDLIB_RULES + (
            "\ncat(G1 ++ G2) :- interval(G1), interval(G2), "
            "{a, b} subset G1.entities, {a, b} subset G2.entities.\n")
        demand = demand_of(rules, "?- contains(g5, G2).")
        assert demand.served == {"interval"} and not demand.fallbacks
        assert not any(rule.is_constructive for rule in demand.program)
        assert "from overlay: interval (epoch 3, built)" in demand.describe(
            "epoch 3, built")
        unrelated = demand_of(rules + REACH, "?- reach(e1, Y).")
        assert not unrelated.served

    def test_inline_puts_the_overlay_rules_back_as_written(self):
        rules = REACH + (
            "merged(G1 ++ G2) :- interval(G1), interval(G2).\n"
            "seen(G) :- merged(G), interval(G).\n")
        query = parse_query("?- seen(G).")
        head = Literal(ANSWER_PREDICATE, list(query.answer_variables))
        inline = rewrite(parse_program(rules),
                         Rule(head, query.body, name="query"), inline=True)
        assert inline.served == {"merged", "interval"}
        assert [rule.head.predicate for rule in inline.program] == [
            "merged", "seen", ANSWER_PREDICATE]


def plan_of(rule_text: str, sizes=None, guarded=False) -> RulePlan:
    sizes = sizes or {"interval": 100, "object": 50, "anyobject": 150}
    return RulePlan.compile(parse_rule(rule_text),
                            size_of=lambda p: sizes.get(p, 10),
                            guarded=guarded)


class TestSelectionFirstJoins:
    def test_selective_literal_goes_first_and_is_checked_there(self):
        plan = plan_of("q(G, O) :- interval(G), object(O), O in G.entities, "
                       "G.duration => (t > 10 and t < 20).")
        assert [l.predicate for l in plan.literals] == ["interval", "object"]
        assert len(plan.checks_after[0]) == 1
        assert plan.describe() == (
            "interval(G) [G.duration => (t > 10 and t < 20)] -> "
            "object(O) from G.entities")

    def test_membership_generates_the_class_variable(self):
        plan = plan_of("q(G, O) :- object(O), interval(G), O in G.entities, "
                       "G.subject = \"news\".")
        assert isinstance(plan.generators[1], MembershipAtom)
        assert 1 not in plan.checks_after  # the generator is the check

    def test_a_collection_that_needs_the_variable_cannot_generate_it(self):
        plan = plan_of("q(O) :- object(O), O in O.friends.")
        assert not plan.generators
        assert len(plan.checks_after[0]) == 1

    def test_constant_members_of_a_subset_are_checked_with_the_collection(self):
        plan = plan_of("q(G, O) :- interval(G), object(O), "
                       "{a, O} subset G.entities, a != O.")
        (early,) = plan.checks_after[0]
        assert isinstance(early, SubsetAtom) and len(early.subset) == 1
        assert plan.generators[1].element.name == "O"
        assert [repr(c) for c in plan.checks_after[1]] == ["a != O"]

    def test_not_equal_is_not_a_selection(self):
        ordered, _ = _reorder_literals(
            parse_rule("q(X, Y) :- r(X), s(Y), X != c.").literals(),
            lambda p: {"r": 100, "s": 5}[p],
            parse_rule("q(X, Y) :- r(X), s(Y), X != c.").constraints())
        assert [l.predicate for l in ordered] == ["s", "r"]

    def test_guard_stays_first(self):
        plan = plan_of("p(X, Y) :- seed(X), big(X, Y), small(c, Y).",
                       sizes={"seed": 5, "big": 1000, "small": 2},
                       guarded=True)
        assert plan.literals[0].predicate == "seed"
        unguarded = plan_of("p(X, Y) :- seed(X), big(X, Y), small(c, Y).",
                            sizes={"seed": 5, "big": 1000, "small": 2})
        assert unguarded.literals[0].predicate == "small"

    def test_textual_plans_are_unchanged(self):
        plan = RulePlan.compile(parse_rule(
            "q(G, O) :- object(O), interval(G), {a, O} subset G.entities, "
            "G.duration => (t > 10 and t < 20)."))
        assert [l.predicate for l in plan.literals] == ["object", "interval"]
        assert not plan.generators
        assert [type(c) for c in plan.checks_after[1]] == [
            SubsetAtom, EntailmentAtom]


@pytest.fixture
def db():
    db = VideoDatabase("demand")
    for name, role in [("a", "host"), ("b", "guest"), ("c", "guest")]:
        db.new_entity(name, role=role)
    db.new_interval("g1", entities=["a", "b"], duration=[(0, 10)])
    db.new_interval("g2", entities=["b", "c"], duration=[(5, 30)])
    db.new_interval("g3", entities=["a"], duration=[(40, 50)])
    db.relate("in", Oid.entity("a"), Oid.entity("b"), Oid.interval("g1"))
    db.relate("in", Oid.entity("b"), Oid.entity("c"), Oid.interval("g2"))
    return db


def baseline(db, rules):
    return QueryEngine(db, rules=rules, use_stdlib_rules=True,
                       prune_rules=False, reorder_joins=False)


class TestEngine:
    RULES = REACH + ("merged(G1 ++ G2) :- interval(G1), interval(G2), "
                     "object(b), b in G1.entities, b in G2.entities.\n")

    def test_membership_generator_sees_a_created_intervals_union(self, db):
        engine = QueryEngine(db, rules=self.RULES, use_stdlib_rules=True)
        text = "?- merged(G), object(O), O in G.entities."
        rows = engine.query(text).rows()
        created = Oid.concat(Oid.interval("g1"), Oid.interval("g2"))
        assert {str(o) for g, o in rows if g == created} == {"a", "b", "c"}
        assert rows == baseline(db, self.RULES).query(text).rows()

    def test_statistics_keep_the_source_rule_labels(self, db):
        engine = QueryEngine(db, rules=self.RULES)
        stats = engine.execute("?- reach(a, Y).").stats
        assert set(stats.rules) == {"reach", "reach#2", "query"}
        full = engine.execute("?- reach(a, Y).", prune_rules=False).stats
        assert stats.derived_facts < full.derived_facts
        factored = engine.execute("?- reach(X, a).", trace=True)
        assert "factored: reach^fb" in factored.demand
        assert set(factored.stats.rules) == {"reach", "reach#2", "query"}

    def test_oracle_runs_are_not_factored(self, db):
        engine = QueryEngine(db, rules=self.RULES)
        text = "?- reach(X, c), reach(Y, b)."
        factored = engine.execute(text, trace=True)
        assert "factored: reach^fb" in factored.demand
        inline = engine.execute(text, trace=True, kernel="reference")
        assert not any(line.startswith("factored:") for line in inline.demand)
        assert (factored.answers.rows() == inline.answers.rows()
                == baseline(db, self.RULES).query(text).rows())

    def test_explain_shows_no_demand_literals(self, db):
        engine = QueryEngine(db, rules=self.RULES)
        text = "\n".join(tree.render() for tree in engine.explain(
            '?- object(X), X.role = "host", reach(X, Y).'))
        assert "demand" not in text and "__" not in text.replace(
            ANSWER_PREDICATE, "")
        assert "reach(a, b)   [via reach]" in text
        assert "in(a, b, g1)   [database fact]" in text
        assert text == "\n".join(tree.render() for tree in baseline(
            db, self.RULES).explain(
                '?- object(X), X.role = "host", reach(X, Y).'))

    def test_profile_has_a_demand_section(self, db):
        engine = QueryEngine(db, rules=self.RULES, use_stdlib_rules=True)
        profile = engine.execute("?- reach(a, Y).", trace=True).profile()
        section = profile.split("-- demand --")[1].split("\n\n")[0]
        assert "adorned: reach^bf" in section
        assert "query: demand reach^bf(a)." in section  # the seed fact
        assert "reach#2: demand reach^bf(X) -> reach^bf(X, Y)" in section
        untraced = engine.execute("?- reach(a, Y).")
        assert untraced.demand == ()

    def test_switches_reproduce_full_saturation(self, db):
        engine = QueryEngine(db, rules=self.RULES, use_stdlib_rules=True)
        report = engine.execute("?- reach(a, Y).", prune_rules=False,
                                trace=True)
        assert "rule pruning off" in "\n".join(report.demand)
        assert {"contains", "same_object_in", "merged"} <= set(
            report.stats.rules)


class TestFactoringCounts:
    """Queried from its non-persistent end, a linear recursion derives
    the reached set, not the reached set squared: magic sets alone
    demand ``reach(X, Y)`` for every ancestor ``Y``.  Derived-fact
    counts repeat exactly, so the bound is deterministic."""

    N = 60
    RULES = ("reach(X, Y) :- edge(X, Y).\n"
             "reach(X, Z) :- reach(X, Y), edge(Y, Z).\n"
             "path(X, Y) :- edge(X, Y).\n"
             "path(X, Z) :- edge(X, Y), path(Y, Z).\n")

    @pytest.mark.parametrize("text", ["?- reach(X, n30).", "?- path(n0, Y)."])
    def test_chain_with_a_back_edge_derives_linearly(self, text):
        db = VideoDatabase("chain")
        db.declare_relation("edge")
        for i in range(self.N - 1):
            db.relate("edge", f"n{i}", f"n{i + 1}")
        db.relate("edge", f"n{self.N - 1}", "n10")  # one back edge
        report = QueryEngine(db, rules=self.RULES).execute(text)
        assert report.stats.derived_facts <= 4 * self.N
        assert report.answers.rows() == QueryEngine(
            db, rules=self.RULES, prune_rules=False).query(text).rows()


class TestStandingViews:
    """Views are planned once at subscribe, without cardinalities: their
    bodies run as written and their deltas are what they always were."""

    RULES = """
        alert(O, G) :- appears(O, G), watched(O).
        near(O, G) :- appears(O, G), {a, O} subset G.entities,
                      G.duration => (t >= 0 and t < 20).
    """

    def test_view_plans_run_as_written_and_deltas_are_unchanged(self, db):
        db.declare_relation("appears")
        db.relate("watched", Oid.entity("b"))
        view = MaterializedView(db, parse_program(self.RULES))
        for plan in view._plans:
            assert plan.literals == plan.rule.literals()
            assert not plan.generators
        near = view._plans[1]
        assert [type(c) for c in near.checks_after[0]] == [
            SubsetAtom, EntailmentAtom]
        assert view.insert_fact("appears", Oid.entity("b"),
                                Oid.interval("g1"))
        row = (Oid.entity("b"), Oid.interval("g1"))
        assert view.last_delta == {
            "appears": {row}, "alert": {row}, "near": {row}}
        assert view.insert_fact("appears", Oid.entity("c"),
                                Oid.interval("g2"))
        assert view.last_delta == {
            "appears": {(Oid.entity("c"), Oid.interval("g2"))}}
        assert not view.insert_fact("appears", Oid.entity("b"),
                                    Oid.interval("g1"))
        assert view.last_delta == {}


class TestInJoinCancellation:
    def test_deadline_is_checked_inside_a_join(self):
        db = VideoDatabase("slow")
        db.declare_relation("appears")
        for i in range(300):
            db.relate("appears", f"o{i % 60}", f"g{i}")
        engine = QueryEngine(db)
        started = time.monotonic()
        with pytest.raises(QueryTimeoutError):
            engine.execute("?- appears(A, G1), appears(B, G2), "
                           "appears(C, G3), A != B.", timeout_s=0.05)
        assert time.monotonic() - started < 0.05 + 0.05
