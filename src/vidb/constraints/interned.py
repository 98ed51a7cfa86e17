"""The interned kernel backend: hash-consed canonical forms + bitsets.

The fixpoint asks the same constraint questions over and over: every
candidate tuple of a rule iteration substitutes concrete intervals into
the same entailment atom, and most tuples produce structurally identical
(premise, conclusion) pairs.  This backend exploits that in three ways:

**Interning.**  Every constraint is hash-consed into an
:class:`InternedForm` — a canonical DNF key (a frozenset of frozensets
of atom keys, so clause order, atom order and duplicates vanish, and
``1`` and ``1.0`` share a key).  Two structurally different constraints
with the same canonical key share one form, and every per-form result
(satisfiability, single-variable solution spans) is computed once.

**Pair caching.**  Entailment verdicts are cached by the pair of form
indices, so a repeated ``c1 => c2`` check — the common case in the
fixpoint — is a single dict hit.

**Bitset closure.**  Clause satisfiability and set-order bound
propagation replace the per-edge Python object graphs of the reference
procedures with transitive closure over int bitmask rows
(Floyd–Warshall on machine words).

Semantics are identical to the ``"reference"`` backend — the property
parity suite (``tests/property/test_kernel_parity.py``) holds this
backend to it atom for atom.  Tracer aggregate names are kept
compatible (``solver.entails``, ``solver.satisfiable``,
``setorder.closure``) so profiles read the same under either backend.
"""

from __future__ import annotations

import threading
from time import perf_counter
from typing import (
    Dict,
    FrozenSet,
    Hashable,
    Iterable,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from vidb.constraints.dense import Comparison, Constraint, conjoin
from vidb.constraints.kernel import ConstraintKernel, register_kernel
from vidb.constraints.setorder import (
    Member,
    SetAtom,
    SetVar,
    SubsetConst,
    SubsetVar,
    SupersetConst,
)
from vidb.constraints.solver import (
    Span,
    normalize_spans,
    simplify_using,
    solution_set_1var,
    spans_subset,
)
from vidb.constraints.terms import Var, constants_comparable, is_numeric
from vidb.errors import ConstraintError
from vidb.obs.trace import current_tracer

_AtomKey = Tuple[str, str, str, object]
_EMPTY: FrozenSet[Hashable] = frozenset()
_NO_SPANS = object()  # sentinel: single-variable fast path not applicable


def atom_key(atom: Comparison) -> _AtomKey:
    """The canonical identity of one atom.

    ``(left_name, op, kind, value)`` with ``kind`` one of ``"var"`` /
    ``"num"`` / ``"str"``.  Equal keys mean semantically identical atoms:
    variables are identified by name and Python's cross-type numeric
    equality makes ``x < 1`` and ``x < 1.0`` share a key, while a number
    and a string never collide (distinct ``kind``).
    """
    right = atom.right
    if isinstance(right, Var):
        return (atom.left.name, atom.op, "var", right.name)
    kind = "num" if is_numeric(right) else "str"
    return (atom.left.name, atom.op, kind, right)


class InternedForm:
    """One hash-consed canonical DNF form shared by equal constraints."""

    __slots__ = ("key", "index", "constraint", "clauses", "vars",
                 "all_numeric", "sat")

    def __init__(self, key: FrozenSet[FrozenSet[_AtomKey]], index: int,
                 constraint: Constraint,
                 clauses: Tuple[Tuple[Comparison, ...], ...]):
        self.key = key
        #: Monotonically increasing id; pair caches key on (index, index).
        self.index = index
        #: The first constraint interned to this form (any representative
        #: would do: equal keys imply equal semantics).
        self.constraint = constraint
        #: Deduplicated DNF clauses (atom and clause duplicates removed).
        self.clauses = clauses
        variables: Set[Var] = set()
        numeric = True
        for clause in clauses:
            for atom in clause:
                variables.update(atom.variables())
                if not isinstance(atom.right, Var) and not is_numeric(atom.right):
                    numeric = False
        self.vars: FrozenSet[Var] = frozenset(variables)
        self.all_numeric = numeric
        #: Lazily computed satisfiability verdict.
        self.sat: Optional[bool] = None


# ---------------------------------------------------------------------------
# Bitset transitive closure
# ---------------------------------------------------------------------------

def _reach_rows(succ: Sequence[Set[int]]) -> List[int]:
    """Reflexive-transitive closure of the successor lists *succ* as int
    bitmask rows (Warshall): bit ``j`` of ``rows[i]`` is set iff ``j``
    is reachable from ``i``."""
    n = len(succ)
    rows: List[int] = []
    for i in range(n):
        bits = 1 << i
        for j in succ[i]:
            bits |= 1 << j
        rows.append(bits)
    for k in range(n):
        bit = 1 << k
        row_k = rows[k]
        for i in range(n):
            if rows[i] & bit:
                rows[i] |= row_k
    return rows


def _decide_clause(atoms: Sequence[Comparison]) -> bool:
    """Bitset counterpart of :func:`vidb.constraints.solver.clause_satisfiable`.

    Builds the same inequality graph — variables and constants as nodes,
    ``=`` as a two-way edge, ``<``/``<=`` (and flipped ``>``/``>=``) as
    directed edges, comparable constants ordered by the domain — then
    decides satisfiability from mutual reachability instead of Tarjan
    SCCs: a clause is unsatisfiable iff a strict edge ``a → b`` has ``b``
    reaching back to ``a``, a ``!=`` pair is mutually reachable, or two
    distinct constant nodes are mutually reachable.
    """
    node_index: Dict[object, int] = {}
    succ: List[Set[int]] = []
    consts: List[int] = []
    strict: List[Tuple[int, int]] = []
    neq: List[Tuple[int, int]] = []
    const_values: List[object] = []

    def node_of(term) -> int:
        if isinstance(term, Var):
            key: object = ("var", term.name)
            value = None
        else:
            key = ("const", term, "num" if is_numeric(term) else "str")
            value = term
        idx = node_index.get(key)
        if idx is None:
            idx = len(succ)
            node_index[key] = idx
            succ.append(set())
            if not isinstance(term, Var):
                consts.append(idx)
                const_values.append(value)
        return idx

    for atom in atoms:
        left = node_of(atom.left)
        right = node_of(atom.right)
        op = atom.op
        if op == "=":
            succ[left].add(right)
            succ[right].add(left)
        elif op == "!=":
            neq.append((left, right))
        elif op == "<":
            succ[left].add(right)
            strict.append((left, right))
        elif op == "<=":
            succ[left].add(right)
        elif op == ">":
            succ[right].add(left)
            strict.append((right, left))
        elif op == ">=":
            succ[right].add(left)

    # Order the constants that appear: each comparable pair contributes
    # the strict edge the concrete domain implies.
    for pos, a in enumerate(consts):
        va = const_values[pos]
        for pos_b in range(pos + 1, len(consts)):
            b = consts[pos_b]
            vb = const_values[pos_b]
            if not constants_comparable(va, vb):
                continue
            if va < vb:
                succ[a].add(b)
                strict.append((a, b))
            elif vb < va:
                succ[b].add(a)
                strict.append((b, a))

    if not succ:
        return True
    rows = _reach_rows(succ)

    def reach(a: int, b: int) -> bool:
        return bool((rows[a] >> b) & 1)

    for a, b in strict:
        if reach(b, a):  # the edge a -> b closes a cycle: strict edge in an SCC
            return False
    for a, b in neq:
        if reach(a, b) and reach(b, a):
            return False
    # Distinct constant nodes are semantically distinct values (equal
    # constants share a node), so mutual reachability collapses two
    # different constants into one class.
    for pos, a in enumerate(consts):
        for pos_b in range(pos + 1, len(consts)):
            b = consts[pos_b]
            if reach(a, b) and reach(b, a):
                return False
    return True


# ---------------------------------------------------------------------------
# Set-order canonical states
# ---------------------------------------------------------------------------

def set_atom_key(atom: SetAtom) -> Tuple[object, ...]:
    """Canonical identity of one set-order atom (variables by name)."""
    if isinstance(atom, Member):
        return ("member", atom.element, atom.var.name)
    if isinstance(atom, SupersetConst):
        return ("supc", atom.bound, atom.var.name)
    if isinstance(atom, SubsetConst):
        return ("subc", atom.var.name, atom.bound)
    if isinstance(atom, SubsetVar):
        return ("subv", atom.sub.name, atom.sup.name)
    raise ConstraintError(f"unknown set-order atom {atom!r}")


class _SetState:
    """Propagated bounds of one canonical set-order conjunction."""

    __slots__ = ("index", "names", "lower", "upper", "reach", "sat")

    def __init__(self, index: int, atoms: Sequence[SetAtom]):
        self.index = index
        names: Dict[str, int] = {}
        lower0: List[Set[Hashable]] = []
        upper0: List[Optional[FrozenSet[Hashable]]] = []
        succ: List[Set[int]] = []

        def touch(var: SetVar) -> int:
            idx = names.get(var.name)
            if idx is None:
                idx = len(succ)
                names[var.name] = idx
                lower0.append(set())
                upper0.append(None)
                succ.append(set())
            return idx

        for atom in atoms:
            if isinstance(atom, Member):
                lower0[touch(atom.var)].add(atom.element)
            elif isinstance(atom, SupersetConst):
                lower0[touch(atom.var)] |= atom.bound
            elif isinstance(atom, SubsetConst):
                idx = touch(atom.var)
                current = upper0[idx]
                upper0[idx] = atom.bound if current is None else current & atom.bound
            elif isinstance(atom, SubsetVar):
                succ[touch(atom.sub)].add(touch(atom.sup))
            else:
                raise ConstraintError(f"not a set-order atom: {atom!r}")

        n = len(succ)
        reach_rows = self.reach = _reach_rows(succ)

        # lower[v] = union of seeds of every u with u ⊆ ... ⊆ v;
        # upper[v] = intersection of caps of every w with v ⊆ ... ⊆ w.
        lower: List[FrozenSet[Hashable]] = []
        upper: List[Optional[FrozenSet[Hashable]]] = []
        for v in range(n):
            low: Set[Hashable] = set()
            bit_v = 1 << v
            for u in range(n):
                if reach_rows[u] & bit_v:
                    low |= lower0[u]
            cap: Optional[FrozenSet[Hashable]] = None
            row_v = reach_rows[v]
            for w in range(n):
                if row_v & (1 << w):
                    cap_w = upper0[w]
                    if cap_w is not None:
                        cap = cap_w if cap is None else cap & cap_w
            lower.append(frozenset(low))
            upper.append(cap)

        self.names = names
        self.lower = lower
        self.upper = upper
        self.sat = all(
            upper[v] is None or lower[v] <= upper[v] for v in range(n)
        )

    # -- queries ----------------------------------------------------------
    def lower_of(self, name: str) -> FrozenSet[Hashable]:
        idx = self.names.get(name)
        return self.lower[idx] if idx is not None else _EMPTY

    def upper_of(self, name: str) -> Optional[FrozenSet[Hashable]]:
        idx = self.names.get(name)
        return self.upper[idx] if idx is not None else None

    def entails_atom(self, atom: SetAtom) -> bool:
        """Mirror of :meth:`SetConjunction.entails_atom` on the closure."""
        if not self.sat:
            return True
        if isinstance(atom, Member):
            return atom.element in self.lower_of(atom.var.name)
        if isinstance(atom, SupersetConst):
            return atom.bound <= self.lower_of(atom.var.name)
        if isinstance(atom, SubsetConst):
            up = self.upper_of(atom.var.name)
            return up is not None and up <= atom.bound
        if isinstance(atom, SubsetVar):
            if atom.sub == atom.sup:
                return True
            i = self.names.get(atom.sub.name)
            j = self.names.get(atom.sup.name)
            if i is not None and j is not None and (self.reach[i] >> j) & 1:
                return True
            up = self.upper_of(atom.sub.name)
            return up is not None and up <= self.lower_of(atom.sup.name)
        raise ConstraintError(f"unknown set-order atom {atom!r}")


# ---------------------------------------------------------------------------
# The kernel
# ---------------------------------------------------------------------------

class InternedKernel(ConstraintKernel):
    """Interning + bitset-closure backend (the default kernel).

    All caches are bounded by *max_forms* / *max_cached*; overflow clears
    the affected cache wholesale and counts an eviction (constraints are
    immutable, so a cleared cache only costs recomputation, never
    correctness).
    """

    name = "interned"

    def __init__(self, max_forms: int = 65536, max_cached: int = 262144):
        self._max_forms = max_forms
        self._max_cached = max_cached
        self._lock = threading.Lock()
        self._next_index = 0
        self._forms: Dict[FrozenSet[FrozenSet[_AtomKey]], InternedForm] = {}
        self._by_constraint: Dict[Constraint, InternedForm] = {}
        self._entails_cache: Dict[Tuple[int, int], bool] = {}
        self._spans_cache: Dict[Tuple[int, str], object] = {}
        self._set_states: Dict[FrozenSet[Tuple[object, ...]], _SetState] = {}
        self._set_entails_cache: Dict[Tuple[int, FrozenSet[Tuple[object, ...]]], bool] = {}
        self._counters: Dict[str, int] = {}

    # -- bookkeeping -------------------------------------------------------
    def _bump(self, counter: str) -> None:
        self._counters[counter] = self._counters.get(counter, 0) + 1

    def _put(self, cache: Dict, key: Hashable, value: object) -> None:
        """Store into a *max_cached*-bounded cache: a full cache is
        cleared wholesale first, counting an eviction."""
        if len(cache) >= self._max_cached:
            cache.clear()
            self._bump("evictions")
        cache[key] = value

    #: Stable counter keys (reported even at zero, so metric gauges have
    #: a fixed shape from the first snapshot).
    COUNTER_KEYS = (
        "canon.hits", "canon.misses", "sat.hits", "sat.misses",
        "entails.hits", "entails.misses", "set.hits", "set.misses",
        "set_entails.hits", "set_entails.misses", "evictions",
    )

    def counters(self) -> Dict[str, int]:
        out = {key: self._counters.get(key, 0) for key in self.COUNTER_KEYS}
        out["forms"] = len(self._forms)
        out["entails.cached"] = len(self._entails_cache)
        out["set.states"] = len(self._set_states)
        return out

    def reset(self) -> None:
        with self._lock:
            self._clear_caches()
            self._counters = {}

    def _clear_caches(self) -> None:
        # Indices stay monotonic across clears, so a stale pair key can
        # never alias a new form even if a reference to it survived.
        self._forms = {}
        self._by_constraint = {}
        self._entails_cache = {}
        self._spans_cache = {}
        self._set_states = {}
        self._set_entails_cache = {}

    # -- interning ---------------------------------------------------------
    def intern(self, constraint: Constraint) -> InternedForm:
        """The canonical form of *constraint* (hash-consed)."""
        form = self._by_constraint.get(constraint)
        if form is not None:
            self._bump("canon.hits")
            return form
        clause_map: Dict[FrozenSet[_AtomKey], Tuple[Comparison, ...]] = {}
        for clause in constraint.dnf():
            seen: Dict[_AtomKey, Comparison] = {}
            for atom in clause:
                seen.setdefault(atom_key(atom), atom)
            clause_map.setdefault(frozenset(seen), tuple(seen.values()))
        key = frozenset(clause_map)
        with self._lock:
            form = self._forms.get(key)
            if form is None:
                if len(self._forms) >= self._max_forms:
                    self._clear_caches()
                    self._bump("evictions")
                form = InternedForm(key, self._next_index, constraint,
                                    tuple(clause_map.values()))
                self._next_index += 1
                self._forms[key] = form
                self._bump("canon.misses")
            else:
                self._bump("canon.hits")
            self._put(self._by_constraint, constraint, form)
        return form

    # -- clause satisfiability ---------------------------------------------
    def _form_sat(self, form: InternedForm) -> bool:
        if form.sat is not None:
            self._bump("sat.hits")
            return form.sat
        self._bump("sat.misses")
        form.sat = any(_decide_clause(clause) for clause in form.clauses)
        return form.sat

    # -- dense-order API ---------------------------------------------------
    def satisfiable(self, constraint: Constraint) -> bool:
        tracer = current_tracer()
        if not tracer.enabled:
            return self._form_sat(self.intern(constraint))
        t0 = perf_counter()
        try:
            return self._form_sat(self.intern(constraint))
        finally:
            tracer.record("solver.satisfiable", perf_counter() - t0)

    def entails(self, c1: Constraint, c2: Constraint) -> bool:
        tracer = current_tracer()
        if not tracer.enabled:
            return self._entails(c1, c2)
        t0 = perf_counter()
        try:
            return self._entails(c1, c2)
        finally:
            tracer.record("solver.entails", perf_counter() - t0)

    def _entails(self, c1: Constraint, c2: Constraint) -> bool:
        f1 = self.intern(c1)
        f2 = self.intern(c2)
        pair = (f1.index, f2.index)
        verdict = self._entails_cache.get(pair)
        if verdict is not None:
            self._bump("entails.hits")
            return verdict
        self._bump("entails.misses")
        verdict = self._decide_entails(f1, f2)
        self._put(self._entails_cache, pair, verdict)
        return verdict

    def _decide_entails(self, f1: InternedForm, f2: InternedForm) -> bool:
        if not f1.clauses:  # premise has an empty DNF: unsatisfiable
            return True
        if any(not clause for clause in f2.clauses):  # conclusion is valid
            return True
        if not f2.clauses:  # conclusion is FALSE
            return not self._form_sat(f1)

        shared = f1.vars | f2.vars
        if len(shared) == 1 and f1.all_numeric and f2.all_numeric:
            var = next(iter(shared))
            inner = self._spans(f1, var)
            outer = self._spans(f2, var)
            if inner is not None and outer is not None:
                return spans_subset(inner, outer)

        combined = conjoin(f1.constraint, f2.constraint.negate())
        return not any(_decide_clause(clause) for clause in combined.dnf())

    def _spans(self, form: InternedForm, var: Var) -> Optional[List[Span]]:
        key = (form.index, var.name)
        cached = self._spans_cache.get(key)
        if cached is _NO_SPANS:
            return None
        if cached is not None:
            return cached  # type: ignore[return-value]
        try:
            spans = solution_set_1var(form.constraint, var)
        except ConstraintError:
            self._put(self._spans_cache, key, _NO_SPANS)
            return None
        spans = normalize_spans(spans)
        self._put(self._spans_cache, key, spans)
        return spans

    def simplify(self, constraint: Constraint) -> Constraint:
        return simplify_using(_decide_clause, constraint)

    # -- set-order API -----------------------------------------------------
    def _set_state(self, atoms: Sequence[SetAtom]) -> _SetState:
        key = frozenset(set_atom_key(atom) for atom in atoms)
        state = self._set_states.get(key)
        if state is not None:
            self._bump("set.hits")
            return state
        self._bump("set.misses")
        with self._lock:
            index = self._next_index
            self._next_index += 1
        state = _SetState(index, atoms)
        if len(self._set_states) >= self._max_forms:
            self._set_states = {}
            self._set_entails_cache = {}
            self._bump("evictions")
        self._set_states[key] = state
        return state

    def set_satisfiable(self, atoms: Iterable[SetAtom]) -> bool:
        atoms = list(atoms)
        tracer = current_tracer()
        if not tracer.enabled:
            return self._set_state(atoms).sat
        t0 = perf_counter()
        try:
            return self._set_state(atoms).sat
        finally:
            tracer.record("setorder.closure", perf_counter() - t0)

    def set_entails(self, premise: Iterable[SetAtom],
                    conclusion: Iterable[SetAtom]) -> bool:
        premise = list(premise)
        conclusion = list(conclusion)
        tracer = current_tracer()
        if not tracer.enabled:
            return self._set_entails(premise, conclusion)
        t0 = perf_counter()
        try:
            return self._set_entails(premise, conclusion)
        finally:
            tracer.record("setorder.closure", perf_counter() - t0)

    def _set_entails(self, premise: Sequence[SetAtom],
                     conclusion: Sequence[SetAtom]) -> bool:
        state = self._set_state(premise)
        ckey = frozenset(set_atom_key(atom) for atom in conclusion)
        pair = (state.index, ckey)
        verdict = self._set_entails_cache.get(pair)
        if verdict is not None:
            self._bump("set_entails.hits")
            return verdict
        self._bump("set_entails.misses")
        verdict = all(state.entails_atom(atom) for atom in conclusion)
        self._put(self._set_entails_cache, pair, verdict)
        return verdict


register_kernel("interned", InternedKernel)
