"""Set-order constraints (Definition 3 of the paper).

The atoms are the four restricted forms

* ``c in X``        — membership of a constant,
* ``X subseteq s``  — upper bound by a constant set,
* ``s subseteq X``  — lower bound by a constant set,
* ``X subseteq Y``  — inclusion between two set variables,

with no set functions (no union/intersection terms).  Conjunctions of such
atoms admit polynomial-time satisfiability and entailment via bound
propagation — the quantifier-elimination procedure of Srivastava,
Ramakrishnan & Revesz (PPCP'94), which the paper cites as [37].

The implementation propagates, for every set variable ``X``,

* a **lower bound** ``L(X)``: elements forced into ``X``; grows along
  ``X ⊆ Y`` edges (into ``Y``), and
* an **upper bound** ``U(X)``: a constant set ``X`` must stay inside
  (``None`` = unbounded); shrinks along ``X ⊆ Y`` edges (from ``Y``),

to a fixpoint.  The conjunction is satisfiable iff every ``L(X)`` fits
inside ``U(X)``; entailment checks are read off the propagated bounds and
the transitive closure of the inclusion graph.

Set elements may be any hashable values — the video model stores object
identities in them (``G.entities``).
"""

from __future__ import annotations

from time import perf_counter
from typing import Dict, FrozenSet, Hashable, Iterable, List, Optional, Set

from vidb.errors import ConstraintError
from vidb.obs.trace import current_tracer

Element = Hashable


class SetVar:
    """A variable ranging over finite sets of elements."""

    __slots__ = ("name",)

    def __init__(self, name: str):
        if not name or not isinstance(name, str):
            raise ConstraintError(f"set variable name must be a non-empty string, got {name!r}")
        self.name = name

    def __eq__(self, other: object) -> bool:
        return isinstance(other, SetVar) and self.name == other.name

    def __hash__(self) -> int:
        return hash(("SetVar", self.name))

    def __repr__(self) -> str:
        return f"SetVar({self.name!r})"

    def __str__(self) -> str:
        return self.name


class SetAtom:
    """Base class for the four atom shapes."""

    def variables(self) -> FrozenSet[SetVar]:
        raise NotImplementedError

    def holds(self, assignment: Dict[SetVar, FrozenSet[Element]]) -> bool:
        """Truth value under a total assignment of set variables."""
        raise NotImplementedError


class Member(SetAtom):
    """``element in var``."""

    __slots__ = ("element", "var")

    def __init__(self, element: Element, var: SetVar):
        self.element = element
        self.var = var

    def variables(self) -> FrozenSet[SetVar]:
        return frozenset({self.var})

    def holds(self, assignment: Dict[SetVar, FrozenSet[Element]]) -> bool:
        return self.element in assignment[self.var]

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, Member) and other.element == self.element
                and other.var == self.var)

    def __hash__(self) -> int:
        return hash(("Member", self.element, self.var))

    def __repr__(self) -> str:
        return f"{self.element!r} in {self.var}"


class SubsetConst(SetAtom):
    """``var subseteq constant_set``."""

    __slots__ = ("var", "bound")

    def __init__(self, var: SetVar, bound: Iterable[Element]):
        self.var = var
        self.bound: FrozenSet[Element] = frozenset(bound)

    def variables(self) -> FrozenSet[SetVar]:
        return frozenset({self.var})

    def holds(self, assignment: Dict[SetVar, FrozenSet[Element]]) -> bool:
        return assignment[self.var] <= self.bound

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, SubsetConst) and other.var == self.var
                and other.bound == self.bound)

    def __hash__(self) -> int:
        return hash(("SubsetConst", self.var, self.bound))

    def __repr__(self) -> str:
        return f"{self.var} subseteq {set(self.bound)!r}"


class SupersetConst(SetAtom):
    """``constant_set subseteq var``.

    ``Member(c, X)`` is the derived form ``SupersetConst({c}, X)``
    (the paper notes ``c ∈ X`` can be rewritten as ``{c} ⊆ X``).
    """

    __slots__ = ("bound", "var")

    def __init__(self, bound: Iterable[Element], var: SetVar):
        self.bound: FrozenSet[Element] = frozenset(bound)
        self.var = var

    def variables(self) -> FrozenSet[SetVar]:
        return frozenset({self.var})

    def holds(self, assignment: Dict[SetVar, FrozenSet[Element]]) -> bool:
        return self.bound <= assignment[self.var]

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, SupersetConst) and other.var == self.var
                and other.bound == self.bound)

    def __hash__(self) -> int:
        return hash(("SupersetConst", self.bound, self.var))

    def __repr__(self) -> str:
        return f"{set(self.bound)!r} subseteq {self.var}"


class SubsetVar(SetAtom):
    """``sub subseteq sup`` between two set variables."""

    __slots__ = ("sub", "sup")

    def __init__(self, sub: SetVar, sup: SetVar):
        self.sub = sub
        self.sup = sup

    def variables(self) -> FrozenSet[SetVar]:
        return frozenset({self.sub, self.sup})

    def holds(self, assignment: Dict[SetVar, FrozenSet[Element]]) -> bool:
        return assignment[self.sub] <= assignment[self.sup]

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, SubsetVar) and other.sub == self.sub
                and other.sup == self.sup)

    def __hash__(self) -> int:
        return hash(("SubsetVar", self.sub, self.sup))

    def __repr__(self) -> str:
        return f"{self.sub} subseteq {self.sup}"


class SetConjunction:
    """A conjunction of set-order atoms with its propagated normal form.

    Construction runs the bound-propagation fixpoint once; satisfiability
    and entailment queries are then answered from the propagated state in
    time linear in the answer.
    """

    def __init__(self, atoms: Iterable[SetAtom] = ()):
        self.atoms: List[SetAtom] = list(atoms)
        for atom in self.atoms:
            if not isinstance(atom, SetAtom):
                raise ConstraintError(f"not a set-order atom: {atom!r}")
        tracer = current_tracer()
        if not tracer.enabled:
            self._propagate()
        else:
            t0 = perf_counter()
            try:
                self._propagate()
            finally:
                tracer.record("setorder.closure", perf_counter() - t0)

    # -- normal form -----------------------------------------------------
    def _propagate(self) -> None:
        lower: Dict[SetVar, Set[Element]] = {}
        upper: Dict[SetVar, Optional[FrozenSet[Element]]] = {}
        succ: Dict[SetVar, Set[SetVar]] = {}

        def touch(var: SetVar) -> None:
            lower.setdefault(var, set())
            upper.setdefault(var, None)
            succ.setdefault(var, set())

        for atom in self.atoms:
            for var in atom.variables():
                touch(var)
            if isinstance(atom, Member):
                lower[atom.var].add(atom.element)
            elif isinstance(atom, SupersetConst):
                lower[atom.var] |= atom.bound
            elif isinstance(atom, SubsetConst):
                current = upper[atom.var]
                upper[atom.var] = atom.bound if current is None else current & atom.bound
            elif isinstance(atom, SubsetVar):
                succ[atom.sub].add(atom.sup)

        # Transitive closure of the inclusion graph (small variable counts
        # in practice; kept simple and worst-case cubic).
        reach: Dict[SetVar, Set[SetVar]] = {v: set(s) for v, s in succ.items()}
        changed = True
        while changed:
            changed = False
            for var in reach:
                extra: Set[SetVar] = set()
                for mid in reach[var]:
                    extra |= reach.get(mid, set())
                if not extra <= reach[var]:
                    reach[var] |= extra
                    changed = True

        # Propagate lower bounds up and upper bounds down the inclusions.
        changed = True
        while changed:
            changed = False
            for atom in self.atoms:
                if not isinstance(atom, SubsetVar):
                    continue
                if not lower[atom.sub] <= lower[atom.sup]:
                    lower[atom.sup] |= lower[atom.sub]
                    changed = True
                sup_upper = upper[atom.sup]
                if sup_upper is not None:
                    sub_upper = upper[atom.sub]
                    merged = sup_upper if sub_upper is None else sub_upper & sup_upper
                    if merged != sub_upper:
                        upper[atom.sub] = merged
                        changed = True

        self._lower: Dict[SetVar, FrozenSet[Element]] = {
            var: frozenset(elems) for var, elems in lower.items()
        }
        self._upper = upper
        self._reach = reach

    # -- queries ----------------------------------------------------------
    def variables(self) -> FrozenSet[SetVar]:
        return frozenset(self._lower)

    def lower_bound(self, var: SetVar) -> FrozenSet[Element]:
        """Elements every solution must place in *var*."""
        return self._lower.get(var, frozenset())

    def upper_bound(self, var: SetVar) -> Optional[FrozenSet[Element]]:
        """The constant set every solution must keep *var* inside, or None."""
        return self._upper.get(var)

    def satisfiable(self) -> bool:
        """PTIME satisfiability: every lower bound fits its upper bound."""
        for var, low in self._lower.items():
            up = self._upper.get(var)
            if up is not None and not low <= up:
                return False
        return True

    def canonical_solution(self) -> Dict[SetVar, FrozenSet[Element]]:
        """The minimal solution (every variable at its lower bound).

        Raises :class:`ConstraintError` when unsatisfiable.  Assigning each
        variable its propagated lower bound satisfies every atom: lower
        bounds were pushed along inclusions, and each ``L(X) ⊆ U(X)`` was
        checked.
        """
        if not self.satisfiable():
            raise ConstraintError("set-order conjunction is unsatisfiable")
        return dict(self._lower)

    def entails_atom(self, atom: SetAtom) -> bool:
        """Does the conjunction entail one atom (in every solution)?"""
        if not self.satisfiable():
            return True
        if isinstance(atom, Member):
            return atom.element in self.lower_bound(atom.var)
        if isinstance(atom, SupersetConst):
            return atom.bound <= self.lower_bound(atom.var)
        if isinstance(atom, SubsetConst):
            up = self.upper_bound(atom.var)
            return up is not None and up <= atom.bound
        if isinstance(atom, SubsetVar):
            if atom.sub == atom.sup:
                return True
            if atom.sup in self._reach.get(atom.sub, set()):
                return True
            # X ⊆ Y also follows when everything X may contain is forced
            # into Y.
            up = self.upper_bound(atom.sub)
            return up is not None and up <= self.lower_bound(atom.sup)
        raise ConstraintError(f"unknown set-order atom {atom!r}")

    def entails(self, other: "SetConjunction") -> bool:
        """Conjunction-to-conjunction entailment (atom-wise)."""
        return all(self.entails_atom(atom) for atom in other.atoms)

    def conjoin(self, *atoms: SetAtom) -> "SetConjunction":
        """A new conjunction extended with more atoms."""
        return SetConjunction(self.atoms + list(atoms))

    def __repr__(self) -> str:
        return "SetConjunction(" + ", ".join(map(repr, self.atoms)) + ")"
