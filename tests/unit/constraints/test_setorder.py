"""Unit tests for set-order constraints (Definition 3)."""

import pytest

from vidb.constraints.setorder import (
    Member,
    SetConjunction,
    SetVar,
    SubsetConst,
    SubsetVar,
    SupersetConst,
)
from vidb.constraints.kernel import default_kernel
from vidb.errors import ConstraintError


def satisfiable(atoms):
    return default_kernel().set_satisfiable(atoms)


def entails(premise, conclusion):
    return default_kernel().set_entails(premise, conclusion)


X = SetVar("X")
Y = SetVar("Y")
Z = SetVar("Z")


class TestSetVar:
    def test_identity(self):
        assert SetVar("X") == SetVar("X")
        assert SetVar("X") != SetVar("Y")
        assert len({SetVar("X"), SetVar("X")}) == 1

    def test_rejects_bad_name(self):
        with pytest.raises(ConstraintError):
            SetVar("")


class TestAtoms:
    def test_member_holds(self):
        assert Member("a", X).holds({X: frozenset({"a", "b"})})
        assert not Member("c", X).holds({X: frozenset({"a"})})

    def test_subset_const_holds(self):
        atom = SubsetConst(X, {"a", "b"})
        assert atom.holds({X: frozenset({"a"})})
        assert not atom.holds({X: frozenset({"c"})})

    def test_superset_const_holds(self):
        atom = SupersetConst({"a"}, X)
        assert atom.holds({X: frozenset({"a", "b"})})
        assert not atom.holds({X: frozenset({"b"})})

    def test_subset_var_holds(self):
        atom = SubsetVar(X, Y)
        assert atom.holds({X: frozenset({"a"}), Y: frozenset({"a", "b"})})
        assert not atom.holds({X: frozenset({"c"}), Y: frozenset({"a"})})

    def test_member_is_derived_superset_form(self):
        # c ∈ X behaves exactly like {c} ⊆ X.
        c1 = SetConjunction([Member("a", X)])
        c2 = SetConjunction([SupersetConst({"a"}, X)])
        assert c1.lower_bound(X) == c2.lower_bound(X)


class TestSatisfiability:
    def test_empty_conjunction(self):
        assert SetConjunction([]).satisfiable()

    def test_basic_bounds(self):
        assert satisfiable([Member("a", X), SubsetConst(X, {"a", "b"})])

    def test_member_outside_upper_bound(self):
        assert not satisfiable([Member("c", X), SubsetConst(X, {"a", "b"})])

    def test_propagation_through_inclusion(self):
        # a ∈ X, X ⊆ Y, Y ⊆ {b} is unsatisfiable.
        assert not satisfiable([
            Member("a", X), SubsetVar(X, Y), SubsetConst(Y, {"b"})
        ])

    def test_propagation_through_chain(self):
        atoms = [Member("a", X), SubsetVar(X, Y), SubsetVar(Y, Z),
                 SubsetConst(Z, {"a", "b"})]
        assert satisfiable(atoms)
        atoms.append(SubsetConst(Z, {"b"}))
        assert not satisfiable(atoms)

    def test_upper_bounds_intersect(self):
        assert not satisfiable([
            SubsetConst(X, {"a", "b"}), SubsetConst(X, {"b", "c"}),
            Member("a", X),
        ])

    def test_lower_bounds_union(self):
        c = SetConjunction([SupersetConst({"a"}, X), SupersetConst({"b"}, X)])
        assert c.lower_bound(X) == frozenset({"a", "b"})

    def test_cyclic_inclusion(self):
        atoms = [SubsetVar(X, Y), SubsetVar(Y, X), Member("a", X)]
        c = SetConjunction(atoms)
        assert c.satisfiable()
        assert c.lower_bound(Y) == frozenset({"a"})


class TestCanonicalSolution:
    def test_minimal_solution_satisfies_all_atoms(self):
        atoms = [Member("a", X), SubsetVar(X, Y), SupersetConst({"b"}, Y),
                 SubsetConst(Y, {"a", "b", "c"})]
        conj = SetConjunction(atoms)
        solution = conj.canonical_solution()
        for atom in atoms:
            assert atom.holds(solution)

    def test_unsatisfiable_raises(self):
        conj = SetConjunction([Member("c", X), SubsetConst(X, {"a"})])
        with pytest.raises(ConstraintError):
            conj.canonical_solution()


class TestEntailment:
    def test_member_entailment(self):
        premise = [Member("a", X), SubsetVar(X, Y)]
        assert entails(premise, [Member("a", Y)])
        assert not entails(premise, [Member("b", Y)])

    def test_subset_const_entailment(self):
        premise = [SubsetConst(X, {"a"})]
        assert entails(premise, [SubsetConst(X, {"a", "b"})])
        assert not entails(premise, [SubsetConst(X, set())])

    def test_superset_const_entailment(self):
        premise = [SupersetConst({"a", "b"}, X)]
        assert entails(premise, [SupersetConst({"a"}, X)])
        assert not entails(premise, [SupersetConst({"c"}, X)])

    def test_subset_var_reflexive(self):
        assert SetConjunction([]).entails_atom(SubsetVar(X, X))

    def test_subset_var_transitive(self):
        premise = [SubsetVar(X, Y), SubsetVar(Y, Z)]
        assert entails(premise, [SubsetVar(X, Z)])

    def test_subset_var_via_bounds(self):
        # X ⊆ {a} and a ∈ Y entail X ⊆ Y.
        premise = [SubsetConst(X, {"a"}), Member("a", Y)]
        assert entails(premise, [SubsetVar(X, Y)])

    def test_subset_var_not_entailed(self):
        premise = [Member("a", X), Member("a", Y)]
        assert not entails(premise, [SubsetVar(X, Y)])

    def test_unsatisfiable_premise_entails_anything(self):
        premise = [Member("c", X), SubsetConst(X, {"a"})]
        assert entails(premise, [Member("zzz", Y)])

    def test_conjunction_entailment_atomwise(self):
        premise = [Member("a", X), Member("b", X), SubsetVar(X, Y)]
        conclusion = [Member("a", Y), Member("b", Y)]
        assert entails(premise, conclusion)


class TestValidation:
    def test_non_atom_rejected(self):
        with pytest.raises(ConstraintError):
            SetConjunction(["not an atom"])  # type: ignore[list-item]

    def test_conjoin_creates_new_object(self):
        base = SetConjunction([Member("a", X)])
        extended = base.conjoin(SubsetConst(X, {"a"}))
        assert len(extended.atoms) == 2
        assert len(base.atoms) == 1
