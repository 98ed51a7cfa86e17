"""Decision procedures for dense-order constraints.

The paper assumes (Definition 2) that satisfiability and entailment of
dense linear order inequality constraints are decidable, and relies on
entailment atoms such as ``G.duration => (t > a and t < b)`` during query
evaluation.  This module supplies those procedures:

``core_satisfiable(c)``
    Is there an assignment of the variables making ``c`` true?  Decided
    per DNF clause with a strongly-connected-component analysis of the
    inequality graph — the classical algorithm for orders that are dense
    and without endpoints (the paper's interpretation domain).

``core_entails(c1, c2)``
    Does every assignment satisfying ``c1`` satisfy ``c2``?  Reduced to
    unsatisfiability of ``c1 AND NOT c2``; single-variable constraints
    (the temporal case, by far the most common) take an exact fast path
    through a canonical union-of-intervals form.

``solution_set_1var(c, var)``
    The canonical solution set of a constraint over one variable, as a
    sorted list of disjoint :class:`Span` records — the bridge between the
    point-based constraint representation and explicit intervals.

These are the reference procedures; callers go through a constraint
kernel (:func:`vidb.constraints.default_kernel`), whose ``"reference"``
backend serves them and whose default ``"interned"`` backend reuses the
span helpers.
"""

from __future__ import annotations

from dataclasses import dataclass
from time import perf_counter
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Set, Tuple

from vidb.constraints.dense import (
    FALSE,
    TRUE,
    Comparison,
    Constraint,
    conjoin,
    disjoin,
)
from vidb.constraints.terms import (
    ConstantValue,
    Var,
    constants_comparable,
    is_numeric,
)
from vidb.errors import ConstraintError
from vidb.obs.trace import current_tracer

# ---------------------------------------------------------------------------
# Conjunction satisfiability: inequality-graph SCC analysis
# ---------------------------------------------------------------------------

# Graph nodes are either a Var or a ("const", value) tag so that constants
# with distinct types never collide with variables.
_Node = object


def _const_node(value: ConstantValue) -> Tuple[str, ConstantValue, str]:
    # Include the type family in the key: 1 == 1.0 should share a node, but
    # a number and a string must not.
    family = "num" if is_numeric(value) else "str"
    return ("const", value, family)


def _clause_graph(atoms: Sequence[Comparison]):
    """Build (edges, strict_edges, neq_pairs, const_nodes) for one clause."""
    edges: Dict[_Node, Set[_Node]] = {}
    strict: Set[Tuple[_Node, _Node]] = set()
    neq: Set[Tuple[_Node, _Node]] = set()
    consts: Dict[_Node, ConstantValue] = {}

    def node_of(term) -> _Node:
        if isinstance(term, Var):
            edges.setdefault(term, set())
            return term
        node = _const_node(term)
        edges.setdefault(node, set())
        consts[node] = term
        return node

    def add_edge(a: _Node, b: _Node, is_strict: bool) -> None:
        edges.setdefault(a, set()).add(b)
        edges.setdefault(b, set())
        if is_strict:
            strict.add((a, b))

    for atom in atoms:
        left = node_of(atom.left)
        right = node_of(atom.right)
        op = atom.op
        if op == "=":
            add_edge(left, right, False)
            add_edge(right, left, False)
        elif op == "!=":
            neq.add((left, right))
        elif op == "<":
            add_edge(left, right, True)
        elif op == "<=":
            add_edge(left, right, False)
        elif op == ">":
            add_edge(right, left, True)
        elif op == ">=":
            add_edge(right, left, False)

    # Order the constants that actually appear: for each comparable pair
    # add the strict edge implied by the concrete domain.
    const_nodes = list(consts)
    for i, a in enumerate(const_nodes):
        for b in const_nodes[i + 1:]:
            va, vb = consts[a], consts[b]
            if not constants_comparable(va, vb):
                continue  # distinct families: never equal, never ordered
            if va < vb:
                add_edge(a, b, True)
            elif vb < va:
                add_edge(b, a, True)
    return edges, strict, neq, consts


def _sccs(edges: Dict[_Node, Set[_Node]]) -> Dict[_Node, int]:
    """Iterative Tarjan; returns node -> component id."""
    index: Dict[_Node, int] = {}
    lowlink: Dict[_Node, int] = {}
    on_stack: Set[_Node] = set()
    stack: List[_Node] = []
    component: Dict[_Node, int] = {}
    counter = [0]
    comp_counter = [0]

    for root in edges:
        if root in index:
            continue
        work: List[Tuple[_Node, Iterable]] = [(root, iter(edges[root]))]
        index[root] = lowlink[root] = counter[0]
        counter[0] += 1
        stack.append(root)
        on_stack.add(root)
        while work:
            node, it = work[-1]
            advanced = False
            for succ in it:
                if succ not in index:
                    index[succ] = lowlink[succ] = counter[0]
                    counter[0] += 1
                    stack.append(succ)
                    on_stack.add(succ)
                    work.append((succ, iter(edges[succ])))
                    advanced = True
                    break
                if succ in on_stack:
                    lowlink[node] = min(lowlink[node], index[succ])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                lowlink[parent] = min(lowlink[parent], lowlink[node])
            if lowlink[node] == index[node]:
                comp_id = comp_counter[0]
                comp_counter[0] += 1
                while True:
                    member = stack.pop()
                    on_stack.discard(member)
                    component[member] = comp_id
                    if member is node or member == node:
                        break
    return component


def clause_satisfiable(atoms: Sequence[Comparison]) -> bool:
    """Satisfiability of a conjunction of atoms over a dense order.

    A clause is unsatisfiable exactly when the inequality graph forces a
    contradiction: two distinct constants collapsed into one equivalence
    class, a strict edge inside a class, or a disequality between members
    of the same class.  Density and the absence of endpoints make these
    the only obstructions.
    """
    edges, strict, neq, consts = _clause_graph(atoms)
    if not edges:
        return True
    component = _sccs(edges)

    # Two distinct constants in one component?
    comp_const: Dict[int, ConstantValue] = {}
    for node, value in consts.items():
        comp = component[node]
        if comp in comp_const:
            other = comp_const[comp]
            same = constants_comparable(other, value) and other == value
            if not same:
                return False
        else:
            comp_const[comp] = value

    # A strict edge within a component?
    for a, b in strict:
        if component[a] == component[b]:
            return False

    # A disequality within a component?
    for a, b in neq:
        if component[a] == component[b]:
            return False
    return True


def core_satisfiable(constraint: Constraint) -> bool:
    """Satisfiability of an arbitrary dense-order constraint.

    This is the reference implementation the ``"reference"`` kernel
    backend serves; most callers should go through a
    :class:`~vidb.constraints.kernel.ConstraintKernel` instead.
    """
    tracer = current_tracer()
    if not tracer.enabled:
        return any(clause_satisfiable(clause) for clause in constraint.dnf())
    t0 = perf_counter()
    try:
        return any(clause_satisfiable(clause) for clause in constraint.dnf())
    finally:
        tracer.record("solver.satisfiable", perf_counter() - t0)


# ---------------------------------------------------------------------------
# Canonical single-variable solution sets
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Span:
    """One maximal run of a single-variable solution set.

    ``lo``/``hi`` are constants or ``None`` for minus/plus infinity;
    ``lo_open``/``hi_open`` tell whether the endpoint is excluded.
    """

    lo: Optional[ConstantValue]
    hi: Optional[ConstantValue]
    lo_open: bool
    hi_open: bool

    def is_empty(self) -> bool:
        if self.lo is None or self.hi is None:
            return False
        if self.lo < self.hi:
            return False
        if self.lo == self.hi:
            return self.lo_open or self.hi_open
        return True

    def contains(self, value: ConstantValue) -> bool:
        if self.lo is not None:
            if value < self.lo or (value == self.lo and self.lo_open):
                return False
        if self.hi is not None:
            if value > self.hi or (value == self.hi and self.hi_open):
                return False
        return True


_FULL = Span(None, None, True, True)


def _intersect_span(a: Span, b: Span) -> Span:
    if a.lo is None:
        lo, lo_open = b.lo, b.lo_open
    elif b.lo is None or a.lo > b.lo or (a.lo == b.lo and a.lo_open):
        lo, lo_open = a.lo, a.lo_open
    else:
        lo, lo_open = b.lo, b.lo_open
    if a.hi is None:
        hi, hi_open = b.hi, b.hi_open
    elif b.hi is None or a.hi < b.hi or (a.hi == b.hi and a.hi_open):
        hi, hi_open = a.hi, a.hi_open
    else:
        hi, hi_open = b.hi, b.hi_open
    return Span(lo, hi, lo_open, hi_open)


def _subtract_point(span: Span, point: ConstantValue) -> List[Span]:
    """Remove one value from a span (for ``!=`` atoms)."""
    if not span.contains(point):
        return [span]
    left = Span(span.lo, point, span.lo_open, True)
    right = Span(point, span.hi, True, span.hi_open)
    return [s for s in (left, right) if not s.is_empty()]


def _clause_spans(var: Var, atoms: Sequence[Comparison]) -> List[Span]:
    """Solution set of one conjunction over a single variable."""
    spans = [_FULL]
    punctures: List[ConstantValue] = []
    for atom in atoms:
        if isinstance(atom.right, Var):
            if atom.right == atom.left:
                # x op x
                if atom.op in ("<", ">", "!="):
                    return []
                continue
            raise ConstraintError(
                f"atom {atom!r} relates two distinct variables; "
                "single-variable fast path does not apply"
            )
        if atom.left != var:
            raise ConstraintError(f"atom {atom!r} does not constrain {var!r}")
        c = atom.right
        if atom.op == "=":
            bound = Span(c, c, False, False)
            spans = [_intersect_span(s, bound) for s in spans]
        elif atom.op == "!=":
            punctures.append(c)
        elif atom.op == "<":
            spans = [_intersect_span(s, Span(None, c, True, True)) for s in spans]
        elif atom.op == "<=":
            spans = [_intersect_span(s, Span(None, c, True, False)) for s in spans]
        elif atom.op == ">":
            spans = [_intersect_span(s, Span(c, None, True, True)) for s in spans]
        elif atom.op == ">=":
            spans = [_intersect_span(s, Span(c, None, False, True)) for s in spans]
        spans = [s for s in spans if not s.is_empty()]
        if not spans:
            return []
    for point in punctures:
        new_spans: List[Span] = []
        for span in spans:
            new_spans.extend(_subtract_point(span, point))
        spans = new_spans
    return spans


def _lo_key(span: Span):
    # Sort key treating None as -infinity; open lower bounds come after
    # closed ones at the same point.
    return (span.lo is not None, span.lo, span.lo_open)


def normalize_spans(spans: Iterable[Span]) -> List[Span]:
    """Sort spans and merge overlapping or touching runs."""
    todo = sorted((s for s in spans if not s.is_empty()), key=_lo_key)
    merged: List[Span] = []
    for span in todo:
        if not merged:
            merged.append(span)
            continue
        last = merged[-1]
        if _spans_connect(last, span):
            merged[-1] = _merge_two(last, span)
        else:
            merged.append(span)
    return merged


def _spans_connect(a: Span, b: Span) -> bool:
    """True when a ∪ b is a single run (given a.lo <= b.lo in sort order)."""
    if a.hi is None:
        return True
    if b.lo is None:
        return True
    if b.lo < a.hi:
        return True
    if b.lo == a.hi:
        return not (a.hi_open and b.lo_open)
    return False


def _merge_two(a: Span, b: Span) -> Span:
    if a.hi is None or b.hi is None:
        hi, hi_open = None, True
    elif a.hi > b.hi or (a.hi == b.hi and not a.hi_open):
        hi, hi_open = a.hi, a.hi_open
    else:
        hi, hi_open = b.hi, b.hi_open
    return Span(a.lo, hi, a.lo_open, hi_open)


def solution_set_1var(constraint: Constraint, var: Var) -> List[Span]:
    """Canonical solution set of a single-variable constraint.

    Returns disjoint, sorted, maximal :class:`Span` runs.  Raises
    :class:`ConstraintError` if the constraint mentions a different
    variable.
    """
    spans: List[Span] = []
    for clause in constraint.dnf():
        spans.extend(_clause_spans(var, clause))
    return normalize_spans(spans)


def spans_subset(inner: Sequence[Span], outer: Sequence[Span]) -> bool:
    """Is the union of *inner* contained in the union of *outer*?

    Both inputs must be normalised (disjoint + sorted), as produced by
    :func:`solution_set_1var`.
    """
    j = 0
    for span in inner:
        while j < len(outer) and not _covers(outer[j], span) and _strictly_left(outer[j], span):
            j += 1
        if j >= len(outer) or not _covers(outer[j], span):
            return False
    return True


def _strictly_left(a: Span, b: Span) -> bool:
    """Is *a* entirely to the left of *b*'s start (so it can be skipped)?"""
    if a.hi is None:
        return False
    if b.lo is None:
        return False
    if a.hi < b.lo:
        return True
    if a.hi == b.lo and (a.hi_open or b.lo_open):
        return True
    return False


def _covers(outer: Span, inner: Span) -> bool:
    if outer.lo is not None:
        if inner.lo is None:
            return False
        if inner.lo < outer.lo:
            return False
        if inner.lo == outer.lo and outer.lo_open and not inner.lo_open:
            return False
    if outer.hi is not None:
        if inner.hi is None:
            return False
        if inner.hi > outer.hi:
            return False
        if inner.hi == outer.hi and outer.hi_open and not inner.hi_open:
            return False
    return True


# ---------------------------------------------------------------------------
# Entailment
# ---------------------------------------------------------------------------

def _single_shared_variable(c1: Constraint, c2: Constraint) -> Optional[Var]:
    """The single variable both constraints range over, if the fast path applies."""
    variables = c1.variables() | c2.variables()
    if len(variables) != 1:
        return None
    return next(iter(variables))


def _all_numeric_constants(constraint: Constraint) -> bool:
    for clause in constraint.dnf():
        for atom in clause:
            if not isinstance(atom.right, Var) and not is_numeric(atom.right):
                return False
    return True


def core_entails(c1: Constraint, c2: Constraint) -> bool:
    """Does ``c1 => c2`` hold, i.e. is ``c1 AND NOT c2`` unsatisfiable?

    The single-variable numeric case — which covers every ``duration``
    entailment the video model generates — is decided exactly on the
    canonical interval form.  The general case falls back to DNF expansion
    of the negation, which is exponential in the number of disjuncts of
    ``c2`` but exact.

    When a tracer is active on this thread, each call's wall-clock is
    folded into the ``solver.entails`` aggregate (nested ``satisfiable``
    time is reported under its own name and also included here).
    """
    tracer = current_tracer()
    if not tracer.enabled:
        return _entails(c1, c2)
    t0 = perf_counter()
    try:
        return _entails(c1, c2)
    finally:
        tracer.record("solver.entails", perf_counter() - t0)


def _entails(c1: Constraint, c2: Constraint) -> bool:
    if c1.is_false() or c2.is_true():
        return True
    if c1.is_true() and c2.is_false():
        return False

    var = _single_shared_variable(c1, c2)
    if var is not None and _all_numeric_constants(c1) and _all_numeric_constants(c2):
        try:
            inner = solution_set_1var(c1, var)
            outer = solution_set_1var(c2, var)
            return spans_subset(inner, outer)
        except ConstraintError:
            pass  # fall through to the generic procedure

    return not core_satisfiable(conjoin(c1, c2.negate()))


def core_equivalent(c1: Constraint, c2: Constraint) -> bool:
    """Mutual entailment (reference implementation)."""
    return core_entails(c1, c2) and core_entails(c2, c1)


def implied_by_clause(clause: Sequence[Comparison], atom: Comparison) -> bool:
    """Does the conjunction *clause* entail the single *atom*?"""
    return not clause_satisfiable(list(clause) + [atom.negate()])


def simplify_using(clause_sat: Callable[[Sequence[Comparison]], bool],
                   constraint: Constraint) -> Constraint:
    """The simplification algorithm, parameterised by the clause
    satisfiability procedure (so kernel backends can plug their own).

    Drops unsatisfiable DNF clauses and, within each clause, atoms already
    implied by the remaining ones.  The result is logically equivalent to
    the input.
    """
    kept_clauses: List[Tuple[Comparison, ...]] = []
    for clause in constraint.dnf():
        if not clause_sat(clause):
            continue
        atoms = list(clause)
        pruned: List[Comparison] = []
        for i, atom in enumerate(atoms):
            rest = pruned + atoms[i + 1:]
            if rest and not clause_sat(list(rest) + [atom.negate()]):
                continue
            pruned.append(atom)
        kept_clauses.append(tuple(pruned))
    if not kept_clauses:
        return FALSE
    disjuncts: List[Constraint] = []
    for clause in kept_clauses:
        disjuncts.append(conjoin(*clause) if clause else TRUE)
    return disjoin(*disjuncts)


def core_simplify(constraint: Constraint) -> Constraint:
    """Light-weight simplification (reference implementation)."""
    return simplify_using(clause_satisfiable, constraint)
