"""Unit tests for bottom-up fixpoint evaluation (Section 6.3.2)."""

import pytest

from vidb.constraints.interned import InternedKernel
from vidb.constraints.kernel import ConstraintKernel
from vidb.errors import EvaluationError, SafetyError, UnknownPredicateError
from vidb.intervals.generalized import GeneralizedInterval
from vidb.model.oid import Oid
from vidb.query.engine import QueryEngine
from vidb.query.execution import ExecutionOptions
from vidb.query.fixpoint import Relation, RulePlan, evaluate
from vidb.query.parser import parse_program, parse_rule
from vidb.storage.database import VideoDatabase


class CountingKernel(ConstraintKernel):
    """Counts the decisions asked of the interned kernel it wraps."""

    name = "counting"

    def __init__(self):
        self.inner = InternedKernel()
        self.calls = 0

    def _ask(self, decide, *args):
        self.calls += 1
        return decide(*args)

    def satisfiable(self, constraint):
        return self._ask(self.inner.satisfiable, constraint)

    def entails(self, c1, c2):
        return self._ask(self.inner.entails, c1, c2)

    def simplify(self, constraint):
        return self._ask(self.inner.simplify, constraint)

    def set_satisfiable(self, atoms):
        return self._ask(self.inner.set_satisfiable, atoms)

    def set_entails(self, premise, conclusion):
        return self._ask(self.inner.set_entails, premise, conclusion)


def gi(*pairs):
    return GeneralizedInterval.from_pairs(pairs)


@pytest.fixture
def db():
    database = VideoDatabase("fixpoint")
    database.new_entity("a", name="Ana", age=30)
    database.new_entity("b", name="Ben", age=40)
    database.new_entity("c", name="Cem", age=40)
    database.new_interval("g1", entities=["a", "b"], duration=[(0, 10)])
    database.new_interval("g2", entities=["b", "c"], duration=[(5, 20)])
    database.new_interval("g3", entities=["c"], duration=[(30, 40)])
    database.relate("next", Oid.interval("g1"), Oid.interval("g2"))
    database.relate("next", Oid.interval("g2"), Oid.interval("g3"))
    return database


class TestRelation:
    def test_add_deduplicates(self):
        rel = Relation()
        assert rel.add((1, 2))
        assert not rel.add((1, 2))
        assert len(rel) == 1

    def test_select_wildcards(self):
        rel = Relation()
        rel.add((1, "a"))
        rel.add((1, "b"))
        rel.add((2, "a"))
        assert len(list(rel.select([1, None]))) == 2
        assert len(list(rel.select([None, "a"]))) == 2
        assert list(rel.select([2, "a"])) == [(2, "a")]
        assert list(rel.select([3, None])) == []

    def test_select_ignores_rows_of_another_arity(self):
        rel = Relation()
        rel.add((1, "a"))
        rel.add((1,))
        assert list(rel.select([None, None])) == [(1, "a")]
        assert list(rel.select([1, None])) == [(1, "a")]
        assert list(rel.select([None])) == [(1,)]

    def test_contains(self):
        rel = Relation()
        rel.add((1,))
        assert (1,) in rel and (2,) not in rel


class TestRulePlan:
    def test_constraints_scheduled_at_earliest_point(self):
        rule = parse_rule(
            "q(X, Y) :- p(X), X < 3, r(X, Y), Y in X.entities.")
        plan = RulePlan.compile(rule)
        assert len(plan.checks_after[0]) == 1   # X < 3 after first literal
        assert len(plan.checks_after[1]) == 1   # membership after second

    def test_ground_constraints_checked_first(self):
        rule = parse_rule("q(X) :- p(X), g.subject = \"murder\".")
        plan = RulePlan.compile(rule)
        assert -1 in plan.checks_after


class TestClassPredicates:
    def test_interval_enumerates_intervals(self, db):
        result = evaluate(db, parse_program("q(G) :- interval(G)."))
        assert len(result.relation("q")) == 3

    def test_object_enumerates_entities(self, db):
        result = evaluate(db, parse_program("q(O) :- object(O)."))
        assert len(result.relation("q")) == 3

    def test_anyobject_enumerates_both(self, db):
        result = evaluate(db, parse_program("q(O) :- anyobject(O)."))
        assert len(result.relation("q")) == 6


class TestConstraintChecking:
    def test_membership(self, db):
        result = evaluate(db, parse_program(
            "q(G) :- interval(G), object(b), b in G.entities."))
        names = {str(row[0]) for row in result.relation("q")}
        assert names == {"g1", "g2"}

    def test_membership_missing_attribute_fails(self, db):
        db.new_interval("bare", duration=[(50, 51)])
        result = evaluate(db, parse_program(
            "q(G) :- interval(G), object(O), O in G.crew."))
        assert result.relation("q") == frozenset()

    def test_subset(self, db):
        result = evaluate(db, parse_program(
            "q(G) :- interval(G), {b, c} subset G.entities."))
        assert {str(r[0]) for r in result.relation("q")} == {"g2"}

    def test_subset_between_paths(self, db):
        result = evaluate(db, parse_program(
            "q(G1, G2) :- interval(G1), interval(G2), "
            "G1.entities subset G2.entities, G1 != G2."))
        assert {tuple(map(str, r)) for r in result.relation("q")} == {
            ("g3", "g2")}

    def test_comparison_on_attributes(self, db):
        result = evaluate(db, parse_program(
            "q(A, B) :- object(A), object(B), A.age = B.age, A != B."))
        names = {tuple(map(str, r)) for r in result.relation("q")}
        assert names == {("b", "c"), ("c", "b")}

    def test_comparison_order(self, db):
        result = evaluate(db, parse_program(
            "q(A) :- object(A), A.age < 35."))
        assert {str(r[0]) for r in result.relation("q")} == {"a"}

    def test_comparison_incomparable_types_fails_quietly(self, db):
        result = evaluate(db, parse_program(
            'q(A) :- object(A), A.age < "forty".'))
        assert result.relation("q") == frozenset()

    def test_entailment_with_inline_constraint(self, db):
        result = evaluate(db, parse_program(
            "q(G) :- interval(G), G.duration => (t >= 0 and t <= 12)."))
        assert {str(r[0]) for r in result.relation("q")} == {"g1"}

    def test_entailment_between_paths(self, db):
        db.new_interval("wide", duration=[(0, 25)])
        result = evaluate(db, parse_program(
            "q(G1, G2) :- interval(G1), interval(G2), "
            "G2.duration => G1.duration, G1 != G2."))
        pairs = {tuple(map(str, r)) for r in result.relation("q")}
        assert ("wide", "g1") in pairs and ("wide", "g2") in pairs
        assert ("g1", "wide") not in pairs

    def test_entailment_with_rule_variable_binding(self, db):
        db.relate("cutoff", 12)
        result = evaluate(db, parse_program(
            "q(G, B) :- interval(G), cutoff(B), "
            "G.duration => (t >= 0 and t <= B)."))
        assert {str(r[0]) for r in result.relation("q")} == {"g1"}

    def test_entailment_on_non_constraint_value_fails(self, db):
        result = evaluate(db, parse_program(
            "q(O) :- object(O), O.name => (t > 0)."))
        assert result.relation("q") == frozenset()

    def test_entailments_short_circuit_in_the_join(self):
        # Both atoms are grounded by the last literal; each is checked
        # inline, so the second is asked only of rows the first passes.
        rules = ("q(G) :- interval(G), G.duration => (t >= 0 and t <= 32), "
                 "G.duration => (t >= 0 and t <= 15).")
        db = VideoDatabase("short-circuit")
        for i in range(8):
            db.new_interval(f"g{i}", duration=[(10 * i, 10 * i + 5)])
        kernel = CountingKernel()
        result = evaluate(db, parse_program(rules), kernel=kernel)
        passing_first = 3  # g0, g1, g2 lie within [0, 32]
        assert kernel.calls == 8 + passing_first
        answers = {row[0] for row in result.relation("q")}
        assert answers == {Oid.interval("g0"), Oid.interval("g1")}
        oracle = QueryEngine(db, rules=rules).execute(
            "?- q(G).", ExecutionOptions(kernel="reference", mode="naive"))
        assert set(oracle.answers.column("G")) == answers


class TestRecursion:
    def test_transitive_closure(self, db):
        program = parse_program("""
            reach(X, Y) :- next(X, Y).
            reach(X, Z) :- reach(X, Y), next(Y, Z).
        """)
        result = evaluate(db, program)
        assert len(result.relation("reach")) == 3  # 2 base + 1 derived

    def test_naive_and_seminaive_agree(self, db):
        program = parse_program("""
            reach(X, Y) :- next(X, Y).
            reach(X, Z) :- reach(X, Y), next(Y, Z).
            pair(A, B) :- object(A), object(B), A.age = B.age.
        """)
        naive = evaluate(db, program, mode="naive")
        seminaive = evaluate(db, program, mode="seminaive")
        for predicate in ("reach", "pair"):
            assert naive.relation(predicate) == seminaive.relation(predicate)

    def test_seminaive_fewer_firings(self, db):
        # Build a longer chain so the difference is visible.
        for i in range(3, 10):
            db.new_interval(f"g{i + 1}", duration=[(i * 10, i * 10 + 5)])
            db.relate("next", Oid.interval(f"g{i}"), Oid.interval(f"g{i + 1}"))
        program = parse_program("""
            reach(X, Y) :- next(X, Y).
            reach(X, Z) :- reach(X, Y), next(Y, Z).
        """)
        naive = evaluate(db, program, mode="naive")
        seminaive = evaluate(db, program, mode="seminaive")
        assert naive.relation("reach") == seminaive.relation("reach")
        assert seminaive.stats.rule_firings < naive.stats.rule_firings


class TestConstructiveRules:
    def test_concatenation_creates_object(self, db):
        program = parse_program(
            "merged(G1 ++ G2) :- interval(G1), interval(G2), object(b), "
            "b in G1.entities, b in G2.entities.")
        result = evaluate(db, program)
        combined = Oid.concat(Oid.interval("g1"), Oid.interval("g2"))
        assert (combined,) in result.relation("merged")
        obj = result.context.objects[combined]
        assert obj.footprint() == gi((0, 20))
        assert result.stats.created_objects == 1

    def test_created_objects_feed_interval_class(self, db):
        program = parse_program("""
            merged(G1 ++ G2) :- interval(G1), interval(G2), object(b),
                                b in G1.entities, b in G2.entities.
            seen(G) :- interval(G).
        """)
        result = evaluate(db, program)
        assert len(result.relation("seen")) == 4  # 3 base + 1 created

    def test_max_objects_guard(self, db):
        program = parse_program(
            "merged(G1 ++ G2) :- interval(G1), interval(G2).")
        with pytest.raises(EvaluationError):
            evaluate(db, program, max_objects=4)

    def test_eager_domain_preloads_pairs(self, db):
        result = evaluate(db, parse_program("q(G) :- interval(G)."),
                          extended_domain="eager")
        # 3 base + C(3,2) = 6 interval objects visible.
        assert len(result.relation("q")) == 6

    def test_unknown_domain_mode_rejected(self, db):
        with pytest.raises(EvaluationError):
            evaluate(db, parse_program("q(G) :- interval(G)."),
                     extended_domain="magic")


class TestErrors:
    def test_unknown_predicate(self, db):
        with pytest.raises(UnknownPredicateError):
            evaluate(db, parse_program("q(X) :- nosuch(X)."))

    def test_unsafe_program_rejected(self, db):
        with pytest.raises(SafetyError):
            evaluate(db, parse_program("q(X, Y) :- next(X, X)."))

    def test_unknown_mode(self, db):
        with pytest.raises(EvaluationError):
            evaluate(db, parse_program("q(G) :- interval(G)."), mode="bogus")


class TestSymbols:
    def test_symbol_resolves_to_entity_first(self, db):
        result = evaluate(db, parse_program("q(X) :- object(X), X = a."))
        assert {str(r[0]) for r in result.relation("q")} == {"a"}

    def test_unresolvable_symbol_is_string(self, db):
        db.relate("tag", Oid.interval("g1"), "highlight")
        result = evaluate(db, parse_program(
            "q(G) :- tag(G, highlight)."))
        assert len(result.relation("q")) == 1

    def test_facts_in_program(self, db):
        program = parse_program("""
            color(red).
            color(blue).
            q(C) :- color(C).
        """)
        result = evaluate(db, program)
        assert {r[0] for r in result.relation("q")} == {"red", "blue"}


class TestProvenance:
    def test_provenance_records_rule(self, db):
        provenance = {}
        program = parse_program("q(G) :- interval(G).")
        result = evaluate(db, program, provenance=provenance)
        fact = ("q", (Oid.interval("g1"),))
        assert fact in provenance
        rule, binding = provenance[fact]
        assert rule.head.predicate == "q"
