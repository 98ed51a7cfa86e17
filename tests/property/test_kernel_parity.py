"""Property-based parity: the interned kernel against the reference kernel.

The interned backend replaces the reference decision procedures with
hash-consed canonical forms, a bitset Warshall closure, and closed-form
set-order propagation.  These tests assert observational equivalence on
random inputs for every kernel operation — satisfiable, entails,
equivalent, simplify, and the set-order pair — so any divergence between
the two implementations is a bug regardless of which one is wrong.

Constraints here stay at two dense variables: the reference backend's
negation-to-DNF expansion is exponential in clause width, and the parity
property is about operator semantics, not scale (the benchmarks cover
scale).
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from vidb.constraints.dense import Comparison, Constraint, conjoin, disjoin
from vidb.constraints.interned import InternedKernel
from vidb.constraints.reference import ReferenceKernel
from vidb.constraints.setorder import (
    Member,
    SetVar,
    SubsetConst,
    SubsetVar,
    SupersetConst,
)
from vidb.constraints.terms import Var

DENSE_VARS = [Var("x"), Var("y")]
OPS = ["=", "!=", "<", "<=", ">", ">="]

constants = st.integers(min_value=0, max_value=4)

reference = ReferenceKernel()
interned = InternedKernel()


@st.composite
def atoms(draw):
    left = draw(st.sampled_from(DENSE_VARS))
    op = draw(st.sampled_from(OPS))
    if draw(st.booleans()):
        right = draw(st.sampled_from(DENSE_VARS))
    else:
        right = draw(constants)
    return Comparison(left, op, right)


@st.composite
def dense_constraints(draw) -> Constraint:
    n_clauses = draw(st.integers(min_value=1, max_value=3))
    clauses = []
    for _ in range(n_clauses):
        clause = draw(st.lists(atoms(), min_size=1, max_size=4))
        clauses.append(conjoin(*clause))
    return disjoin(*clauses)


SET_VARS = [SetVar("X"), SetVar("Y"), SetVar("Z")]
elements = st.sampled_from(("a", "b", "c"))
element_sets = st.frozensets(elements, max_size=3)
set_vars = st.sampled_from(SET_VARS)


@st.composite
def set_atoms(draw):
    kind = draw(st.sampled_from(["member", "subset_const", "superset_const",
                                 "subset_var"]))
    if kind == "member":
        return Member(draw(elements), draw(set_vars))
    if kind == "subset_const":
        return SubsetConst(draw(set_vars), draw(element_sets))
    if kind == "superset_const":
        return SupersetConst(draw(element_sets), draw(set_vars))
    return SubsetVar(draw(set_vars), draw(set_vars))


set_atom_lists = st.lists(set_atoms(), min_size=0, max_size=6)


class TestDenseParity:
    @given(dense_constraints())
    @settings(max_examples=300, deadline=None)
    def test_satisfiable(self, c):
        assert interned.satisfiable(c) == reference.satisfiable(c)

    @given(dense_constraints(), dense_constraints())
    @settings(max_examples=300, deadline=None)
    def test_entails(self, c1, c2):
        assert interned.entails(c1, c2) == reference.entails(c1, c2)

    @given(dense_constraints(), dense_constraints())
    @settings(max_examples=100, deadline=None)
    def test_equivalent(self, c1, c2):
        assert interned.equivalent(c1, c2) == reference.equivalent(c1, c2)

    @given(dense_constraints())
    @settings(max_examples=100, deadline=None)
    def test_simplify_preserves_meaning(self, c):
        # simplify may pick different (equivalent) forms per backend; the
        # contract is semantic, so check equivalence, not syntactic match.
        assert reference.equivalent(interned.simplify(c), c)
        assert reference.equivalent(reference.simplify(c), c)


class TestSetOrderParity:
    @given(set_atom_lists)
    @settings(max_examples=300, deadline=None)
    def test_set_satisfiable(self, atoms):
        assert (interned.set_satisfiable(atoms)
                == reference.set_satisfiable(atoms))

    @given(set_atom_lists, set_atom_lists)
    @settings(max_examples=300, deadline=None)
    def test_set_entails(self, premise, conclusion):
        assert (interned.set_entails(premise, conclusion)
                == reference.set_entails(premise, conclusion))


class TestCacheTransparency:
    """Caches must be observationally invisible: asking twice — or after
    forcing eviction with a tiny kernel — gives the same answer."""

    @given(dense_constraints(), dense_constraints())
    @settings(max_examples=100, deadline=None)
    def test_repeat_queries_stable(self, c1, c2):
        first = interned.entails(c1, c2)
        assert interned.entails(c1, c2) == first

    @given(st.lists(st.tuples(dense_constraints(), dense_constraints()),
                    min_size=1, max_size=6))
    @settings(max_examples=50, deadline=None)
    def test_tiny_caches_match_reference(self, pairs):
        tiny = InternedKernel(max_forms=2, max_cached=2)
        for a, b in pairs:
            assert tiny.entails(a, b) == reference.entails(a, b)
