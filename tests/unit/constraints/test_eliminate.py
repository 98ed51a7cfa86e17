"""Unit tests for existential variable elimination."""

from vidb.constraints.dense import FALSE, TRUE, Comparison
from vidb.constraints.eliminate import eliminate_variable, project
from vidb.constraints.kernel import default_kernel
from vidb.constraints.terms import Var

x, y, z, t = Var("x"), Var("y"), Var("z"), Var("t")


class TestEliminateVariable:
    def test_transitivity_falls_out(self):
        # ∃x (y < x ∧ x < z)  ≡  y < z
        c = (y < x) & (x < z)
        assert default_kernel().equivalent(eliminate_variable(c, x), y < z)

    def test_equality_substitutes(self):
        c = x.eq(y) & (x < 5)
        assert default_kernel().equivalent(eliminate_variable(c, x), y < 5)

    def test_unbounded_side_vanishes(self):
        # ∃x (x > y) is always true (dense order, no endpoints)
        assert default_kernel().equivalent(eliminate_variable(x > y, x), TRUE)

    def test_ground_contradiction_surfaces(self):
        c = (x > 5) & (x < 3)
        assert eliminate_variable(c, x) is FALSE or \
            not default_kernel().satisfiable(eliminate_variable(c, x))

    def test_pinned_single_point_region(self):
        # ∃x (y <= x ∧ x <= y ∧ x != y) is unsatisfiable
        c = Comparison(x, ">=", y) & Comparison(x, "<=", y) & x.ne(y)
        assert not default_kernel().satisfiable(eliminate_variable(c, x))

    def test_pinned_point_with_other_puncture(self):
        # ∃x (y <= x ∧ x <= y ∧ x != z)  ≡  y != z
        c = Comparison(x, ">=", y) & Comparison(x, "<=", y) & x.ne(z)
        assert default_kernel().equivalent(eliminate_variable(c, x), y.ne(z))

    def test_open_region_ignores_punctures(self):
        # ∃x (0 < x < 3 ∧ x != 1 ∧ x != 2) holds: density beats punctures
        c = (x > 0) & (x < 3) & x.ne(1) & x.ne(2)
        assert default_kernel().equivalent(eliminate_variable(c, x), TRUE)

    def test_self_comparison_contradiction(self):
        c = (x < x) & (y > 0)
        assert not default_kernel().satisfiable(eliminate_variable(c, x))

    def test_result_entailed_by_original(self):
        c = (y < x) & (x < z) & (y > 0)
        eliminated = eliminate_variable(c, x)
        assert default_kernel().entails(c, eliminated)

    def test_disjunction_distributes(self):
        c = ((y < x) & (x < 3)) | ((x > 9) & (x < y))
        eliminated = eliminate_variable(c, x)
        assert default_kernel().equivalent(eliminated, (y < 3) | (y > 9))


class TestProject:
    def test_keep_one_of_three(self):
        c = (x < y) & (y < z) & (x > 0) & (z < 10)
        projected = project(c, [y])
        assert projected.variables() <= {y}
        assert default_kernel().equivalent(projected, (y > 0) & (y < 10))

    def test_keep_all_is_identity_semantics(self):
        c = (x < y) & (y < 5)
        assert default_kernel().equivalent(project(c, [x, y]), c)

    def test_temporal_window_projection(self):
        # "the times at which something both after A and before B exists":
        # ∃t (A < t ∧ t < B)  ≡  A < B — the scheduling-feasibility test.
        a, b = Var("A"), Var("B")
        c = (t > a) & (t < b)
        assert default_kernel().equivalent(project(c, [a, b]), a < b)
