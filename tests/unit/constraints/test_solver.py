"""Unit tests for the dense-order decision procedures."""

from fractions import Fraction

import pytest

from vidb.constraints.dense import FALSE, TRUE, Comparison, conjoin, disjoin
from vidb.constraints.kernel import default_kernel
from vidb.constraints.solver import (
    Span,
    clause_satisfiable,
    normalize_spans,
    solution_set_1var,
    spans_subset,
)
from vidb.constraints.terms import Var
from vidb.errors import ConstraintError


# The decision procedures as the rest of vidb reaches them: through the
# default constraint kernel.
def satisfiable(constraint):
    return default_kernel().satisfiable(constraint)


def entails(c1, c2):
    return default_kernel().entails(c1, c2)


def equivalent(c1, c2):
    return default_kernel().equivalent(c1, c2)


def simplify(constraint):
    return default_kernel().simplify(constraint)


t = Var("t")
x = Var("x")
y = Var("y")
z = Var("z")


class TestClauseSatisfiable:
    def test_empty_clause(self):
        assert clause_satisfiable([])

    def test_simple_bounds(self):
        assert clause_satisfiable([(x > 1), (x < 5)])

    def test_contradictory_bounds(self):
        assert not clause_satisfiable([(x > 5), (x < 1)])

    def test_density_between_consecutive_integers(self):
        # Over a dense order, 1 < x < 2 is satisfiable.
        assert clause_satisfiable([(x > 1), (x < 2)])

    def test_strict_cycle_unsat(self):
        assert not clause_satisfiable([(x < y), (y < x)])

    def test_nonstrict_cycle_forces_equality(self):
        assert clause_satisfiable([Comparison(x, "<=", y), Comparison(y, "<=", x)])

    def test_cycle_with_one_strict_edge_unsat(self):
        assert not clause_satisfiable([Comparison(x, "<=", y), (y < x)])

    def test_equality_chain_with_disequality_unsat(self):
        assert not clause_satisfiable([x.eq(y), y.eq(z), x.ne(z)])

    def test_disequality_between_free_vars_sat(self):
        assert clause_satisfiable([x.ne(y)])

    def test_two_constants_forced_equal_unsat(self):
        assert not clause_satisfiable([x.eq(1), x.eq(2)])

    def test_var_equal_number_and_string_unsat(self):
        assert not clause_satisfiable([x.eq(1), x.eq("a")])

    def test_transitive_constant_squeeze(self):
        # x <= y, y <= x, x = 3, y != 3 is unsatisfiable.
        assert not clause_satisfiable(
            [Comparison(x, "<=", y), Comparison(y, "<=", x), x.eq(3), y.ne(3)]
        )

    def test_constant_ordering_respected(self):
        # 5 < x and x < 3 contradict via the implicit 3 < 5 edge.
        assert not clause_satisfiable([(x > 5), (x < 3)])

    def test_string_order(self):
        assert clause_satisfiable([(x > "a"), (x < "b")])
        assert not clause_satisfiable([(x > "b"), (x < "a")])

    def test_self_comparison(self):
        assert not clause_satisfiable([(x < x)])
        assert clause_satisfiable([Comparison(x, "<=", x)])


class TestSatisfiable:
    def test_true_false(self):
        assert satisfiable(TRUE)
        assert not satisfiable(FALSE)

    def test_disjunction_one_branch_alive(self):
        c = ((x > 5) & (x < 1)) | x.eq(3)
        assert satisfiable(c)

    def test_all_branches_dead(self):
        c = ((x > 5) & (x < 1)) | ((x > 9) & (x < 8))
        assert not satisfiable(c)


class TestSolutionSet1Var:
    def test_simple_interval(self):
        spans = solution_set_1var((t > 1) & (t < 5), t)
        assert spans == [Span(1, 5, True, True)]

    def test_equality_is_point(self):
        spans = solution_set_1var(t.eq(4), t)
        assert spans == [Span(4, 4, False, False)]

    def test_disequality_punctures(self):
        spans = solution_set_1var((t >= 0) & (t <= 10) & t.ne(5), t)
        assert len(spans) == 2
        assert spans[0].hi == 5 and spans[0].hi_open
        assert spans[1].lo == 5 and spans[1].lo_open

    def test_disjunction_merges_overlaps(self):
        c = ((t >= 0) & (t <= 5)) | ((t >= 3) & (t <= 9))
        spans = solution_set_1var(c, t)
        assert spans == [Span(0, 9, False, False)]

    def test_touching_closed_open_merge(self):
        c = ((t >= 0) & (t < 5)) | ((t >= 5) & (t <= 9))
        assert solution_set_1var(c, t) == [Span(0, 9, False, False)]

    def test_open_open_gap_stays(self):
        c = ((t >= 0) & (t < 5)) | ((t > 5) & (t <= 9))
        assert len(solution_set_1var(c, t)) == 2

    def test_unsat_clause_dropped(self):
        c = ((t > 5) & (t < 1)) | t.eq(2)
        assert solution_set_1var(c, t) == [Span(2, 2, False, False)]

    def test_unbounded(self):
        spans = solution_set_1var(t > 3, t)
        assert spans == [Span(3, None, True, True)]

    def test_two_variable_constraint_rejected(self):
        with pytest.raises(ConstraintError):
            solution_set_1var((x < y), x)


class TestSpansSubset:
    def test_subset(self):
        inner = [Span(1, 2, False, False)]
        outer = [Span(0, 5, False, False)]
        assert spans_subset(inner, outer)
        assert not spans_subset(outer, inner)

    def test_multi_fragment(self):
        inner = [Span(1, 2, False, False), Span(6, 7, False, False)]
        outer = [Span(0, 3, False, False), Span(5, 9, False, False)]
        assert spans_subset(inner, outer)

    def test_open_closed_boundary(self):
        inner = [Span(0, 5, False, False)]   # [0, 5]
        outer = [Span(0, 5, False, True)]    # [0, 5)
        assert not spans_subset(inner, outer)
        assert spans_subset(outer, inner)

    def test_empty_inner_always_subset(self):
        assert spans_subset([], [Span(0, 1, False, False)])
        assert spans_subset([], [])


class TestNormalizeSpans:
    def test_merges_and_sorts(self):
        spans = [Span(5, 9, False, False), Span(0, 6, False, False)]
        assert normalize_spans(spans) == [Span(0, 9, False, False)]

    def test_drops_empty(self):
        assert normalize_spans([Span(5, 1, False, False)]) == []


class TestEntails:
    def test_interval_containment(self):
        assert entails((t > 3) & (t < 5), (t > 0) & (t < 10))
        assert not entails((t > 0) & (t < 10), (t > 3) & (t < 5))

    def test_reflexive(self):
        c = (t > 3) & (t < 5)
        assert entails(c, c)

    def test_false_entails_everything(self):
        assert entails(FALSE, t < 0)

    def test_everything_entails_true(self):
        assert entails((t > 3), TRUE)

    def test_true_does_not_entail_false(self):
        assert not entails(TRUE, FALSE)

    def test_generalized_interval_entailment(self):
        inner = ((t > 1) & (t < 2)) | ((t > 6) & (t < 7))
        outer = ((t > 0) & (t < 3)) | ((t > 5) & (t < 8))
        assert entails(inner, outer)
        assert not entails(outer, inner)

    def test_multi_variable_entailment(self):
        assert entails((x < y) & (y < z), x < z)
        assert not entails((x < y), y < x)

    def test_equality_entails_nonstrict(self):
        assert entails(x.eq(y), Comparison(x, "<=", y))

    def test_boundary_strictness(self):
        assert not entails((t >= 0) & (t <= 5), (t > 0) & (t < 5))
        assert entails((t > 0) & (t < 5), (t >= 0) & (t <= 5))

    def test_string_fallback_path(self):
        # Strings force the generic (non-span) procedure.
        assert entails(x.eq("a"), x.ne("b"))


class TestEquivalent:
    def test_syntactic_variants(self):
        a = (t > 1) & (t < 5)
        b = (t < 5) & (t > 1)
        assert equivalent(a, b)

    def test_split_interval_not_equivalent(self):
        a = (t > 1) & (t < 5)
        b = ((t > 1) & (t < 3)) | ((t > 3) & (t < 5))
        assert not equivalent(a, b)

    def test_split_covering_point(self):
        a = (t > 1) & (t < 5)
        b = ((t > 1) & (t < 3)) | t.eq(3) | ((t > 3) & (t < 5))
        assert equivalent(a, b)


class TestSimplify:
    def test_drops_dead_clause(self):
        c = ((t > 5) & (t < 1)) | (t > 3)
        assert simplify(c) == (t > 3)

    def test_removes_redundant_atom(self):
        c = (t > 3) & (t > 1)
        assert simplify(c) == (t > 3)

    def test_false_when_unsat(self):
        assert simplify((t > 5) & (t < 1)) is FALSE

    def test_equivalent_to_original(self):
        c = ((t > 1) & (t > 0) & (t < 9)) | ((t > 20) & (t < 10))
        assert equivalent(simplify(c), c)
