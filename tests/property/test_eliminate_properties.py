"""Property-based tests: variable elimination is exact.

For every assignment of the remaining variables (over a witness-complete
candidate grid), ``eliminate_variable(c, x)`` must hold exactly when some
value of ``x`` makes ``c`` hold.
"""

from fractions import Fraction
from itertools import product

from hypothesis import given, settings
from hypothesis import strategies as st

from vidb.constraints.dense import Comparison, conjoin
from vidb.constraints.eliminate import eliminate_variable, project
from vidb.constraints.kernel import default_kernel
from vidb.constraints.terms import Var

X, Y, Z = Var("x"), Var("y"), Var("z")
VARS = [X, Y, Z]
OPS = ["=", "!=", "<", "<=", ">", ">="]

constants = st.integers(min_value=0, max_value=4)


@st.composite
def atoms(draw):
    left = draw(st.sampled_from(VARS))
    op = draw(st.sampled_from(OPS))
    if draw(st.booleans()):
        right = draw(st.sampled_from(VARS))
    else:
        right = draw(constants)
    return Comparison(left, op, right)


clauses = st.lists(atoms(), min_size=1, max_size=5)


def grid(values, chain_length=4):
    """Witness-complete candidate values around a set of known numbers."""
    points = sorted({Fraction(v) for v in values} or {Fraction(0)})
    out = set(points)
    for i in range(1, chain_length + 1):
        out.add(points[0] - i)
        out.add(points[-1] + i)
    for a, b in zip(points, points[1:]):
        for i in range(1, chain_length + 1):
            out.add(a + (b - a) * Fraction(i, chain_length + 1))
    return sorted(out)


def _constants_of(clause):
    return [a.right for a in clause if not isinstance(a.right, Var)] + \
           [a.left for a in clause if not isinstance(a.left, Var)]


class TestEliminateVariable:
    @settings(max_examples=250, deadline=None)
    @given(clauses)
    def test_exactness_pointwise(self, clause):
        original = conjoin(*clause)
        eliminated = eliminate_variable(original, X)
        assert X not in eliminated.variables()

        outer_vars = sorted(original.variables() - {X},
                            key=lambda v: v.name)
        outer_grid = grid(_constants_of(clause))
        for outer_values in product(outer_grid, repeat=len(outer_vars)):
            assignment = dict(zip(outer_vars, outer_values))
            inner_grid = grid(list(_constants_of(clause))
                              + list(outer_values))
            truth = any(
                original.evaluate({**assignment, X: v}) for v in inner_grid
            )
            assert eliminated.evaluate(assignment) == truth

    @settings(max_examples=100, deadline=None)
    @given(clauses)
    def test_satisfiability_preserved(self, clause):
        original = conjoin(*clause)
        eliminated = eliminate_variable(original, X)
        kernel = default_kernel()
        assert kernel.satisfiable(eliminated) == kernel.satisfiable(original)

    @settings(max_examples=100, deadline=None)
    @given(clauses)
    def test_eliminating_absent_variable_is_identity_semantics(self, clause):
        original = conjoin(*clause)
        w = Var("w")
        assert eliminate_variable(original, w).dnf() == original.dnf()


class TestProject:
    @settings(max_examples=100, deadline=None)
    @given(clauses)
    def test_projection_keeps_only_requested(self, clause):
        original = conjoin(*clause)
        projected = project(original, [Y])
        assert projected.variables() <= {Y}

    @settings(max_examples=100, deadline=None)
    @given(clauses)
    def test_projection_to_nothing_is_truth_value(self, clause):
        original = conjoin(*clause)
        projected = project(original, [])
        assert projected.variables() == frozenset()
        # a closed formula is equivalent to its satisfiability
        kernel = default_kernel()
        assert kernel.satisfiable(projected) == kernel.satisfiable(original)
