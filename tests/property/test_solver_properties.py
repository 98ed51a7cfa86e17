"""Property-based tests: the dense-order solver against brute force.

For conjunctions of order atoms over a dense order, satisfiability over
the rationals is witnessed — when the constants come from a finite set C —
by an assignment drawing values from C, the midpoints of consecutive
members of C, and one value below/above all of C.  Enumerating those
candidate assignments gives an independent (exponential) oracle to test
the graph-based solver against.
"""

from fractions import Fraction
from itertools import product

from hypothesis import given, settings
from hypothesis import strategies as st

from vidb.constraints.dense import Comparison, conjoin
from vidb.constraints.kernel import default_kernel
from vidb.constraints.solver import clause_satisfiable
from vidb.constraints.terms import Var

VARS = [Var("x"), Var("y"), Var("z")]
OPS = ["=", "!=", "<", "<=", ">", ">="]

constants = st.integers(min_value=0, max_value=4)


@st.composite
def atoms(draw):
    left = draw(st.sampled_from(VARS))
    op = draw(st.sampled_from(OPS))
    if draw(st.booleans()):
        right = draw(st.sampled_from(VARS))
        if right == left and op in ("<", ">", "!="):
            op = "<="  # keep trivially-false self-loops rare but present
    else:
        right = draw(constants)
    return Comparison(left, op, right)


clauses = st.lists(atoms(), min_size=1, max_size=6)


def candidate_values(clause, chain_length=3):
    """A witness-complete value grid for order constraints.

    A satisfiable conjunction over k variables has a witness using the
    constants themselves, up to k distinct values strictly inside each gap
    between consecutive constants, and up to k values below/above all
    constants — so enumerate exactly those.
    """
    consts = sorted({a.right for a in clause if not isinstance(a.right, Var)})
    if not consts:
        consts = [0]
    values = {Fraction(c) for c in consts}
    for i in range(1, chain_length + 1):
        values.add(Fraction(consts[0]) - i)
        values.add(Fraction(consts[-1]) + i)
    for a, b in zip(consts, consts[1:]):
        for i in range(1, chain_length + 1):
            values.add(Fraction(a) + Fraction(b - a) * Fraction(
                i, chain_length + 1))
    return sorted(values)


def brute_force_satisfiable(clause):
    variables = sorted({v for atom in clause for v in atom.variables()},
                       key=lambda v: v.name)
    candidates = candidate_values(clause)
    if not variables:
        return all(atom.evaluate({}) for atom in clause)
    for assignment_values in product(candidates, repeat=len(variables)):
        assignment = dict(zip(variables, assignment_values))
        if all(atom.evaluate(assignment) for atom in clause):
            return True
    return False


class TestSolverVsBruteForce:
    @settings(max_examples=300, deadline=None)
    @given(clauses)
    def test_clause_satisfiability_agrees(self, clause):
        assert clause_satisfiable(clause) == brute_force_satisfiable(clause)

    @settings(max_examples=100, deadline=None)
    @given(clauses, clauses)
    def test_disjunction_satisfiable_iff_some_branch(self, c1, c2):
        disjunction = conjoin(*c1) | conjoin(*c2)
        expected = brute_force_satisfiable(c1) or brute_force_satisfiable(c2)
        assert default_kernel().satisfiable(disjunction) == expected


class TestEntailmentProperties:
    @settings(max_examples=100, deadline=None)
    @given(clauses)
    def test_entailment_reflexive(self, clause):
        c = conjoin(*clause)
        assert default_kernel().entails(c, c)

    @settings(max_examples=100, deadline=None)
    @given(clauses, atoms())
    def test_conjunction_entails_its_atoms(self, clause, extra):
        c = conjoin(*(clause + [extra]))
        assert default_kernel().entails(c, extra)

    @settings(max_examples=100, deadline=None)
    @given(clauses, clauses)
    def test_entailment_sound_on_candidate_assignments(self, c1, c2):
        """Soundness: when the solver claims c1 => c2, every candidate
        assignment satisfying c1 also satisfies c2."""
        if default_kernel().entails(conjoin(*c1), conjoin(*c2)):
            candidates = candidate_values(list(c1) + list(c2))
            variables = sorted(
                {v for a in list(c1) + list(c2) for v in a.variables()},
                key=lambda v: v.name)
            for values in product(candidates, repeat=len(variables)):
                assignment = dict(zip(variables, values))
                if all(a.evaluate(assignment) for a in c1):
                    assert all(a.evaluate(assignment) for a in c2)

    @settings(max_examples=100, deadline=None)
    @given(clauses, clauses, clauses)
    def test_entailment_transitive(self, c1, c2, c3):
        a, b, c = conjoin(*c1), conjoin(*c2), conjoin(*c3)
        kernel = default_kernel()
        if kernel.entails(a, b) and kernel.entails(b, c):
            assert kernel.entails(a, c)
