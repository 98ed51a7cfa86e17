"""Bottom-up fixpoint evaluation (Section 6.3.2).

The immediate-consequence operator ``T_P`` maps interpretations to
interpretations (Definition 22): a ground atom is derived when some rule
has a valuation over the **extended active domain** making every body
literal present and every constraint atom satisfiable.  ``T_P`` is
monotone and continuous (Lemma 2, Theorem 2), so its least fixpoint exists
and equals the minimal model (Theorem 3); this module computes it, in
either **naive** or **semi-naive** mode (an ablation the benchmark suite
measures).

The extended active domain (Definitions 19-20) grows during evaluation:
whenever a constructive rule head ``q(G1 ++ G2)`` fires, the concatenated
interval object is created, registered, and fed back into the ``interval``
class relation — which is therefore treated exactly like a derived
relation with its own semi-naive delta.  The ⊕ absorption law bounds the
closure, so evaluation terminates (a configurable object budget guards
against combinatorial blow-ups on large inputs).

Two evaluation-domain policies are provided, mirroring the two readings of
Definition 19:

* ``"lazy"`` (default) — only concatenations actually created by
  constructive rule heads enter the domain; this is the fixpoint-consistent
  reading used by the paper's examples.
* ``"eager"`` — all pairwise concatenations of database intervals are added
  up front (Definition 19 verbatim) before rules run.

Each rule runs as a nested-loop join in its :class:`RulePlan` order.
Every constraint atom — comparisons, memberships, negations and the
``=>`` entailment atoms alike — is checked inside the join at the
earliest literal that grounds it, and a row that fails one atom is
never asked the next.
"""

from __future__ import annotations

import operator
import time
from dataclasses import dataclass, field, fields
from typing import (
    Any,
    Callable,
    Dict,
    FrozenSet,
    Iterable,
    List,
    Mapping,
    NamedTuple,
    Optional,
    Sequence,
    Set,
    Tuple,
    Union,
)

from vidb.constraints.dense import Constraint
from vidb.constraints.kernel import KernelSpec, resolve_kernel
from vidb.constraints.terms import Var, constants_comparable, is_constant
from vidb.errors import (
    EvaluationError,
    ObjectBudgetError,
    QueryTimeoutError,
    UnknownPredicateError,
)
from vidb.obs.trace import NULL_TRACER, current_tracer
from vidb.model.concat import concatenate, pairwise_extension
from vidb.model.objects import GeneralizedIntervalObject, VideoObject
from vidb.model.oid import Oid
from vidb.model.values import value_as_set, value_contains
from vidb.query.ast import (
    AttrPath,
    BodyItem,
    CLASS_PREDICATES,
    ComparisonAtom,
    ConcatTerm,
    EntailmentAtom,
    Literal,
    MembershipAtom,
    NegatedLiteral,
    Program,
    Rule,
    SubsetAtom,
    Symbol,
    Term,
    Variable,
)
from vidb.query.safety import check_program, stratify_with_negation
from vidb.storage.database import VideoDatabase, classes_of
from vidb.storage.relation import GroundTuple, GroundValue, Relation

#: Signature of a computed (filter-only) predicate: called with the
#: evaluation context and fully ground arguments, returns a truth value.
ComputedPredicate = Callable[["EvaluationContext", GroundTuple], bool]


@dataclass
class RuleProfile:
    """Per-rule cost attribution, accumulated across fixpoint rounds."""

    seconds: float = 0.0
    firings: int = 0
    derived_facts: int = 0
    constraint_checks: int = 0
    created_objects: int = 0

    def as_dict(self) -> Dict[str, Union[int, float]]:
        return {
            "seconds": round(self.seconds, 6),
            "firings": self.firings,
            "derived_facts": self.derived_facts,
            "constraint_checks": self.constraint_checks,
            "created_objects": self.created_objects,
        }


@dataclass
class EvaluationStats:
    """Counters and timings describing one fixpoint run.

    ``elapsed_s`` is the wall-clock of the evaluation (the engine widens
    it to the full parse-to-answers pipeline for ``execute()``);
    ``iteration_seconds`` has one entry per fixpoint round;
    ``stages``/``rules`` break the time down by pipeline stage and by
    rule (``rules`` keys are rule names, the head predicate when unnamed,
    disambiguated with ``#n`` suffixes).
    """

    iterations: int = 0
    derived_facts: int = 0
    created_objects: int = 0
    rule_firings: int = 0
    constraint_checks: int = 0
    mode: str = "seminaive"
    kernel: str = ""
    elapsed_s: float = 0.0
    iteration_seconds: List[float] = field(default_factory=list)
    stages: Dict[str, float] = field(default_factory=dict)
    rules: Dict[str, RuleProfile] = field(default_factory=dict)

    def rule_profile(self, label: str) -> RuleProfile:
        profile = self.rules.get(label)
        if profile is None:
            profile = self.rules[label] = RuleProfile()
        return profile

    def absorb(self, other: "EvaluationStats") -> None:
        """Count *other*'s work as this run's (a query reports the ⊕
        overlay it built)."""
        self.derived_facts += other.derived_facts
        self.created_objects += other.created_objects
        self.rule_firings += other.rule_firings
        self.constraint_checks += other.constraint_checks
        for label, theirs in other.rules.items():
            mine = self.rule_profile(label)
            for name in (f.name for f in fields(RuleProfile)):
                setattr(mine, name, getattr(mine, name) + getattr(theirs, name))

    def as_dict(self) -> Dict[str, Any]:
        out: Dict[str, Any] = {
            "mode": self.mode,
            "iterations": self.iterations,
            "derived_facts": self.derived_facts,
            "created_objects": self.created_objects,
            "rule_firings": self.rule_firings,
            "constraint_checks": self.constraint_checks,
            "elapsed_s": round(self.elapsed_s, 6),
            "iteration_seconds": [round(s, 6)
                                  for s in self.iteration_seconds],
        }
        if self.kernel:
            out["kernel"] = self.kernel
        if self.stages:
            out["stages"] = {name: round(s, 6)
                             for name, s in self.stages.items()}
        if self.rules:
            out["rules"] = {label: profile.as_dict()
                            for label, profile in self.rules.items()}
        return out


class _RuleMeter:
    """Context manager attributing one per-rule evaluation block.

    Snapshots the global counters on entry and credits the deltas (plus
    the wall-clock) to the rule's :class:`RuleProfile` on exit; nothing
    changes about how the counters themselves are maintained.
    """

    __slots__ = ("_stats", "_profile", "_t0", "_checks", "_firings",
                 "_derived", "_objects")

    def __init__(self, stats: EvaluationStats, label: str):
        self._stats = stats
        self._profile = stats.rule_profile(label)

    def __enter__(self) -> "_RuleMeter":
        stats = self._stats
        self._checks = stats.constraint_checks
        self._firings = stats.rule_firings
        self._derived = stats.derived_facts
        self._objects = stats.created_objects
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, *exc) -> bool:
        stats = self._stats
        profile = self._profile
        profile.seconds += time.perf_counter() - self._t0
        profile.constraint_checks += stats.constraint_checks - self._checks
        profile.firings += stats.rule_firings - self._firings
        profile.derived_facts += stats.derived_facts - self._derived
        profile.created_objects += stats.created_objects - self._objects
        return False


class EvaluationContext:
    """The mutable interpretation: relations + the extended active domain.

    The layer below — the database, or a finished evaluation over it
    (the engine's ⊕ overlay) — is read in place (under whatever read
    lock the caller holds); :attr:`relations` holds only what this
    evaluation owns — the IDB relations, and private copies of the class
    relations it extends (made on first write, see :meth:`writable` and
    :meth:`admit`).  Rule heads never name a database or class relation
    (:func:`~vidb.query.safety.check_rule`), and nothing writes to the
    layer below.
    """

    def __init__(self, db: VideoDatabase,
                 computed: Optional[Dict[str, Tuple[int, ComputedPredicate]]] = None,
                 max_objects: int = 50_000,
                 extended_domain: str = "lazy",
                 kernel: KernelSpec = None,
                 base: Optional["EvaluationContext"] = None):
        if extended_domain not in ("lazy", "eager"):
            raise EvaluationError(
                f"extended_domain must be 'lazy' or 'eager', got {extended_domain!r}"
            )
        self.db = db
        #: The read-only layer under :attr:`relations`: *base*, else the
        #: database.
        self.below: Union[VideoDatabase, EvaluationContext] = (
            db if base is None else base)
        self.max_objects = max_objects
        #: The constraint kernel serving every satisfiability/entailment
        #: decision of this evaluation (Definition 21's condition).
        self.kernel = resolve_kernel(kernel)
        self.relations: Dict[str, Relation] = {}
        #: oid → object over the extended active domain: the layer
        #: below's map until :meth:`admit` first extends it, then a copy.
        #: Compiled closures capture it per rule evaluation, and objects
        #: are only admitted between rule evaluations (heads fire after
        #: the join), so no closure ever holds a swapped-out map.
        self.objects: Mapping[Oid, VideoObject] = self.below.objects
        #: True once :attr:`objects` is this evaluation's own copy.
        self.extended = False
        self.computed = dict(computed or {})
        self.stats = EvaluationStats()
        #: The tracer evaluation reports into; ``evaluate`` replaces the
        #: null default when the caller asked for tracing.
        self.tracer = NULL_TRACER
        #: Absolute ``time.monotonic()`` instant evaluation must not run
        #: past (None = no limit); see :func:`_check_deadline`.
        self.deadline: Optional[float] = None
        if extended_domain == "eager":
            for interval in pairwise_extension(db.intervals()):
                if interval.oid not in self.objects:
                    self.admit(interval)

    def relation(self, name: str) -> Optional[Relation]:
        """The relation predicate *name* reads: this evaluation's own,
        else the layer below's; None for a computed or unknown
        predicate."""
        own = self.relations.get(name)
        return own if own is not None else self.below.relation(name)

    def writable(self, name: str) -> Relation:
        """This evaluation's own relation *name*, copying the layer
        below's on first write."""
        own = self.relations.get(name)
        if own is None:
            stored = self.below.relation(name)
            own = self.relations[name] = (
                Relation() if stored is None else stored.copy())
        return own

    # -- domain growth ---------------------------------------------------------
    def admit(self, obj: VideoObject) -> List[Tuple[str, GroundTuple]]:
        """Add *obj* to the extended active domain; returns the class
        facts that became true (for delta maintenance)."""
        if not self.extended:
            self.objects = dict(self.objects)
            self.extended = True
        self.objects[obj.oid] = obj
        row = (obj.oid,)
        return [(name, row) for name in classes_of(obj)
                if self.writable(name).add(row)]

    # -- symbol resolution -------------------------------------------------------
    def resolve_symbol(self, symbol: Symbol) -> GroundValue:
        """Entity oid, else interval oid, else the bare string."""
        entity = Oid.entity(symbol.name)
        if entity in self.objects:
            return entity
        interval = Oid.interval(symbol.name)
        if interval in self.objects:
            return interval
        return symbol.name


# ---------------------------------------------------------------------------
# Term / constraint evaluation under a binding
# ---------------------------------------------------------------------------

#: One candidate valuation of a rule body: the rule's variables in
#: :attr:`RulePlan.slots` order (provenance records it as a dict).
Row = Sequence[GroundValue]
Getter = Callable[[Row], Any]
Check = Callable[[Row], bool]

#: The order comparisons; ``=`` and ``!=`` apply to any two values.
_ORDER_OPS = {"<": operator.lt, "<=": operator.le,
              ">": operator.gt, ">=": operator.ge}


def _constant(value: Any) -> Getter:
    return lambda _row: value


class _Compiler:
    """Compiles one rule evaluation's terms and constraint atoms into
    closures over the candidate row.

    Everything that does not depend on the row is decided here, once per
    rule evaluation instead of once per candidate: symbols are resolved
    against the context, constant attribute paths are read, the atom's
    type and comparison operator are dispatched.  (Per evaluation, not
    per plan: a symbol's resolution changes when a materialized view
    learns the object it names.)
    """

    def __init__(self, ctx: EvaluationContext, slots: Dict[Variable, int]):
        self.ctx = ctx
        self.slots = slots
        self._symbols: Dict[str, GroundValue] = {}

    def value(self, term: Term) -> GroundValue:
        """The value of a non-variable term."""
        if isinstance(term, Symbol):
            if term.name not in self._symbols:
                self._symbols[term.name] = self.ctx.resolve_symbol(term)
            return self._symbols[term.name]
        return term

    def term(self, term: Term) -> Getter:
        if isinstance(term, Variable):
            try:
                return operator.itemgetter(self.slots[term])
            except KeyError:
                raise EvaluationError(f"unbound variable {term!r}") from None
        return _constant(self.value(term))

    def operand(self, side: Union[AttrPath, Term]) -> Getter:
        """A comparison side: attribute paths read the object store and
        give None when undefined."""
        if not isinstance(side, AttrPath):
            return self.term(side)
        objects = self.ctx.objects
        attr = side.attr
        if not isinstance(side.subject, Variable):
            obj = objects.get(self.value(side.subject))
            return _constant(None if obj is None else obj.get(attr))
        subject = self.term(side.subject)

        def read(row: Row):
            obj = objects.get(subject(row))
            return None if obj is None else obj.get(attr)

        return read

    def entail_side(self, side: Union[AttrPath, Constraint]) -> Getter:
        """One side of an entailment atom: a dense-order constraint, or
        None when the side does not denote one."""
        if isinstance(side, AttrPath):
            value = self.operand(side)
            return lambda row: (
                found if isinstance(found := value(row), Constraint)
                else None)
        # Inline constraint: uppercase names are rule variables.
        variables = [(var, self.term(Variable(var.name)))
                     for var in side.variables() if var.name[0].isupper()]
        if not variables:
            return _constant(side)

        def substitute(row: Row) -> Optional[Constraint]:
            substitution: Dict[Var, GroundValue] = {}
            for var, get in variables:
                bound = get(row)
                if not is_constant(bound):
                    return None  # oids cannot appear inside dense constraints
                substitution[var] = bound
            return side.substitute(substitution)

        return substitute

    def check(self, atom: BodyItem) -> Check:
        """Is the (ground, under the row) constraint atom satisfiable —
        Definition 21's condition?"""
        if isinstance(atom, MembershipAtom):
            collection = self.operand(atom.collection)
            element = self.term(atom.element)

            def member(row: Row) -> bool:
                found = collection(row)
                return found is not None and value_contains(found,
                                                            element(row))

            return member
        if isinstance(atom, SubsetAtom):
            superset = self.operand(atom.superset)
            if isinstance(atom.subset, AttrPath):
                subset = self.operand(atom.subset)
            elif not any(isinstance(t, Variable) for t in atom.subset):
                subset = _constant(frozenset(map(self.value, atom.subset)))
            else:
                members = [self.term(t) for t in atom.subset]

                def subset(row: Row) -> FrozenSet:
                    return frozenset(get(row) for get in members)

            def included(row: Row) -> bool:
                outer = superset(row)
                inner = subset(row)
                return (outer is not None and inner is not None
                        and value_as_set(inner) <= value_as_set(outer))

            return included
        if isinstance(atom, ComparisonAtom):
            return self._comparison(atom)
        if isinstance(atom, EntailmentAtom):
            left = self.entail_side(atom.left)
            right = self.entail_side(atom.right)
            entails = self.ctx.kernel.entails

            def entailed(row: Row) -> bool:
                premise = left(row)
                conclusion = right(row)
                return (premise is not None and conclusion is not None
                        and entails(premise, conclusion))

            return entailed
        if isinstance(atom, NegatedLiteral):
            holds = self._holds(atom.literal)
            return lambda row: not holds(row)
        raise EvaluationError(f"unknown constraint atom {atom!r}")

    def _comparison(self, atom: ComparisonAtom) -> Check:
        left = self.operand(atom.left)
        right = self.operand(atom.right)
        if atom.op in ("=", "!="):
            same = operator.eq if atom.op == "=" else operator.ne

            def equal(row: Row) -> bool:
                a = left(row)
                b = right(row)
                return a is not None and b is not None and same(a, b)

            return equal
        ordered = _ORDER_OPS[atom.op]

        def compare(row: Row) -> bool:
            a = left(row)
            b = right(row)
            # order comparisons need comparable constants
            return (a is not None and b is not None
                    and is_constant(a) and is_constant(b)
                    and constants_comparable(a, b) and ordered(a, b))

        return compare

    def _holds(self, literal: Literal) -> Check:
        """Does the (ground, under the row) literal hold in the current
        interpretation?  Used under negation: by stratification the
        relation consulted is already saturated when this runs."""
        ctx = self.ctx
        args = [self.term(arg) for arg in literal.args]
        relation = ctx.relation(literal.predicate)
        if relation is not None:
            tuples = relation.tuples
            return lambda row: tuple(get(row) for get in args) in tuples
        try:
            fn = _computed(ctx, literal)
        except EvaluationError as error:
            return _raiser(error)
        return lambda row: fn(ctx, tuple(get(row) for get in args))


def _raiser(error: Exception) -> Callable[..., Any]:
    """A step or check that fails with *error* if evaluation ever
    reaches it (an ill-formed literal no row gets to is not an error)."""
    def fail(*_args: Any):
        raise error

    return fail


def _computed(ctx: EvaluationContext, literal: Literal) -> ComputedPredicate:
    """The computed predicate *literal* names (it has no relation)."""
    if literal.predicate not in ctx.computed:
        raise UnknownPredicateError(
            f"unknown predicate {literal.predicate!r} "
            "(not a database relation, class predicate, rule head, or "
            "computed predicate)"
        )
    arity, fn = ctx.computed[literal.predicate]
    if arity != literal.arity:
        raise EvaluationError(
            f"computed predicate {literal.predicate!r} has arity "
            f"{arity}, used with {literal.arity}"
        )
    return fn


# ---------------------------------------------------------------------------
# Rule plans
# ---------------------------------------------------------------------------

class _Access(NamedTuple):
    """How the join reads one body literal, given what is bound on entry:
    ``(position, term)`` constants, then ``(position, slot)`` pairs for
    already-bound variables (probed), variables bound here, and later
    occurrences of a variable bound here (compared)."""

    constants: Tuple[Tuple[int, Term], ...]
    probes: Tuple[Tuple[int, int], ...]
    binds: Tuple[Tuple[int, int], ...]
    repeats: Tuple[Tuple[int, int], ...]


@dataclass
class RulePlan:
    """A rule's join order with every constraint scheduled.

    ``checks_after[i]`` lists the constraint atoms whose variables are all
    bound once literals ``0..i`` have been joined (index -1 = ground
    constraints checked before any join).  ``generators[i]`` is a
    membership atom ``O in G.entities`` whose collection is bound before
    literal ``i`` — the class literal ``object(O)`` — so ``O`` is drawn
    from the collection and the literal only probed.
    """

    rule: Rule
    literals: Tuple[Literal, ...]
    checks_after: Dict[int, Tuple[BodyItem, ...]]
    generators: Dict[int, MembershipAtom] = field(default_factory=dict)
    #: The label statistics for this rule are reported under.
    label: str = ""
    #: The position of each rule variable in a candidate row.
    slots: Dict[Variable, int] = field(init=False)
    #: Per literal, how the join reads it (the order fixes what is bound).
    access: Tuple[_Access, ...] = field(init=False)

    def __post_init__(self) -> None:
        slots = self.slots = {}
        bound: Set[int] = set()
        access: List[_Access] = []
        for index, literal in enumerate(self.literals):
            if index in self.generators:
                element = self.generators[index].element
                bound.add(slots.setdefault(element, len(slots)))
            constants, probes, binds, repeats = [], [], [], []
            for position, arg in enumerate(literal.args):
                if not isinstance(arg, Variable):
                    constants.append((position, arg))
                    continue
                slot = slots.setdefault(arg, len(slots))
                if slot in bound:
                    probes.append((position, slot))
                elif any(slot == seen for _, seen in binds):
                    repeats.append((position, slot))
                else:
                    binds.append((position, slot))
            bound.update(slot for _, slot in binds)
            access.append(_Access(tuple(constants), tuple(probes),
                                  tuple(binds), tuple(repeats)))
        self.access = tuple(access)

    @classmethod
    def compile(cls, rule: Rule,
                size_of: Optional[Callable[[str], int]] = None,
                guarded: bool = False) -> "RulePlan":
        """Compile a rule.

        With *size_of* (predicate → cardinality estimate) the join is
        planned: body literals are greedily reordered (see
        :func:`_reorder_literals`), the constant members of a subset atom
        are split off so they are checked as soon as the collection is
        bound, and class literals are probed from a membership
        collection where one is bound first.  Without it the body runs
        as written.  Either way every constraint atom is checked at the
        earliest literal that grounds it; join order never changes
        answers — only cost.  *guarded* keeps the first literal (a
        demand guard) first.
        """
        literals = list(rule.literals())
        remaining = list(rule.constraints())
        generators: Dict[int, MembershipAtom] = {}
        if size_of is not None:
            remaining = [piece for atom in remaining
                         for piece in _split_subset(atom)]
            literals, generators = _reorder_literals(
                literals, size_of, remaining, pinned=1 if guarded else 0)
            generating = {id(atom) for atom in generators.values()}
            remaining = [c for c in remaining if id(c) not in generating]
        bound: Set[Variable] = set()
        checks: Dict[int, List[BodyItem]] = {}
        for index in range(-1, len(literals)):
            if index >= 0:
                bound |= literals[index].variables()
            ready = [c for c in remaining if set(c.variables()) <= bound]
            if ready:
                checks[index] = ready
                remaining = [c for c in remaining if c not in ready]
        if remaining:  # pragma: no cover - safety check makes this unreachable
            raise EvaluationError(
                f"constraints {remaining!r} never become ground in {rule!r}"
            )
        return cls(rule, tuple(literals),
                   {i: tuple(cs) for i, cs in checks.items()}, generators)

    def describe(self) -> str:
        """The chosen literal order and where each constraint runs, as
        one line of the EXPLAIN ``-- demand --`` section."""
        def bracket(atoms: Iterable[BodyItem]) -> str:
            return "[" + ", ".join(map(repr, atoms)) + "]"

        parts = []
        if -1 in self.checks_after:
            parts.append(bracket(self.checks_after[-1]))
        for index, literal in enumerate(self.literals):
            text = repr(literal)
            if index in self.generators:
                text += f" from {self.generators[index].collection!r}"
            if index in self.checks_after:
                text += " " + bracket(self.checks_after[index])
            parts.append(text)
        return " -> ".join(parts) or f"{self.rule.head!r}."


def _split_subset(atom: BodyItem) -> List[BodyItem]:
    """``{e, O} subset P`` as ``{e} subset P`` and ``O in P``: the
    constant members can be checked as soon as ``P`` is bound and each
    variable member when it is (or generated from ``P``)."""
    if not isinstance(atom, SubsetAtom) or isinstance(atom.subset, AttrPath):
        return [atom]
    variables = list(dict.fromkeys(
        term for term in atom.subset if isinstance(term, Variable)))
    if not variables:
        return [atom]
    constants = tuple(term for term in atom.subset
                      if not isinstance(term, Variable))
    pieces: List[BodyItem] = (
        [SubsetAtom(constants, atom.superset)] if constants else [])
    pieces += [MembershipAtom(var, atom.superset) for var in variables]
    return pieces


def _reorder_literals(literals: Sequence[Literal],
                      size_of: Callable[[str], float],
                      constraints: Sequence[BodyItem] = (),
                      bound: Iterable[Variable] = (),
                      pinned: int = 0
                      ) -> Tuple[List[Literal], Dict[int, MembershipAtom]]:
    """Greedy selection-first ordering; returns the order plus the
    membership atoms that *generate* a class literal's variable, keyed
    by the literal's new position.

    At each step pick the literal with the most bound arguments —
    constants, already-bound variables, and a class literal's variable
    when a bound collection can generate it (joins and probes before
    cross products).  Ties go to a literal that grounds a *selection*, a
    constraint atom other than ``!=`` that becomes checkable at that
    literal, then to the smaller relation, then to the original position
    (stability).  The first *pinned* literals stay where they are;
    *bound* names variables bound before the body starts.  Literals
    whose predicate has no relation (computed filters) are only eligible
    once fully bound; if none ever becomes eligible the original
    relative order is preserved for the stragglers (the evaluator
    reports the error precisely).
    """
    ordered: List[Literal] = list(literals[:pinned])
    remaining = list(enumerate(literals))[pinned:]
    bound = set(bound)
    for literal in ordered:
        bound |= literal.variables()
    generators: Dict[int, MembershipAtom] = {}
    selections = [(atom, atom.variables()) for atom in constraints
                  if not (isinstance(atom, ComparisonAtom)
                          and atom.op == "!=")]

    def generator_of(literal: Literal) -> Optional[MembershipAtom]:
        """The membership atom that can generate a class literal's
        (still unbound) variable from an already-bound collection."""
        if literal.predicate in CLASS_PREDICATES and literal.arity == 1:
            for atom, _ in selections:
                if (isinstance(atom, MembershipAtom)
                        and atom.element == literal.args[0]
                        and isinstance(atom.element, Variable)
                        and atom.element not in bound
                        and atom.collection.variables() <= bound):
                    return atom
        return None

    while remaining:
        best = None
        best_key = None
        for position, (original_index, literal) in enumerate(remaining):
            variables = literal.variables()
            size = size_of(literal.predicate)
            if size < 0:  # computed filter: needs all variables bound
                if not variables <= bound:
                    continue
                size = 0
            known = bound | variables if generator_of(literal) else bound
            bound_args = len(variables & known) + sum(
                1 for arg in literal.args if not isinstance(arg, Variable))
            selective = any(needs <= bound | variables and not needs <= bound
                            for _, needs in selections)
            key = (-bound_args, not selective, size,
                   len(variables - known), original_index)
            if best_key is None or key < best_key:
                best_key = key
                best = position
        if best is None:
            # only not-yet-groundable computed filters left
            ordered.extend(lit for __, lit in remaining)
            break
        _, literal = remaining.pop(best)
        generator = generator_of(literal)
        if generator is not None:
            generators[len(ordered)] = generator
        ordered.append(literal)
        bound |= literal.variables()
    return ordered, generators


# ---------------------------------------------------------------------------
# The join
# ---------------------------------------------------------------------------

#: The deadline is read once per this many candidate rows of a join.
_DEADLINE_STRIDE = 1024


def _bindings(plan: RulePlan, ctx: EvaluationContext,
              delta_position: Optional[int] = None,
              delta: Optional[Relation] = None) -> List[Row]:
    """Enumerate the rows satisfying the body (literals + scheduled
    checks), by nested-loop join in plan order; the literal at
    *delta_position* reads *delta* (a semi-naive round's new tuples)
    instead of its whole relation.  Rows are materialised: head
    instantiation mutates the relations being read.

    The plan fixes which variables are bound on entry to each literal,
    so each literal is prepared once — its relation, its constant and
    bound argument positions, the checks that follow it — into a step
    that calls the next; no step inspects the binding to find out.
    """
    slots = plan.slots
    compiler = _Compiler(ctx, slots)
    values: List[GroundValue] = [None] * len(slots)
    out: List[Row] = []
    candidates = 0
    checked = 0

    def passes(checks: Sequence[Check]) -> bool:
        nonlocal checked
        for check in checks:
            checked += 1
            if not check(values):
                return False
        return True

    def test(literal: Literal, access: _Access,
             after: Sequence[Check], proceed: Callable[[], None]
             ) -> Callable[[], None]:
        """A computed predicate: a filter over bound arguments."""
        try:
            fn = _computed(ctx, literal)
        except EvaluationError as error:
            return _raiser(error)
        if access.binds:
            names = ", ".join(sorted({literal.args[position].name
                                      for position, _ in access.binds}))
            return _raiser(EvaluationError(
                f"computed predicate {literal.predicate!r} cannot "
                f"bind variables ({names}); bind them with class "
                "or relation literals first"))
        args = [compiler.term(arg) for arg in literal.args]

        def step() -> None:
            if fn(ctx, tuple(get(values) for get in args)) and passes(after):
                proceed()

        return step

    def scan(literal: Literal, access: _Access,
             relation: Optional[Relation],
             after: Sequence[Check], proceed: Callable[[], None]
             ) -> Callable[[], None]:
        if relation is None:
            return test(literal, access, after, proceed)
        template: List[Optional[GroundValue]] = [None] * literal.arity
        for position, term in access.constants:
            template[position] = compiler.value(term)
        _, probes, binds, repeats = access

        def step() -> None:
            nonlocal candidates
            pattern = template
            if probes:
                pattern = list(template)
                for position, slot in probes:
                    pattern[position] = values[slot]
            for row in relation.select(pattern):
                candidates += 1
                if not candidates % _DEADLINE_STRIDE:
                    _check_deadline(ctx)
                for position, slot in binds:
                    values[slot] = row[position]
                if repeats and any(row[position] != values[slot]
                                   for position, slot in repeats):
                    continue
                if passes(after):
                    proceed()

        return step

    def generate(atom: MembershipAtom, proceed: Callable[[], None]
                 ) -> Callable[[], None]:
        collection = compiler.operand(atom.collection)
        slot = slots[atom.element]

        def step() -> None:
            nonlocal checked
            found = collection(values)
            if found is None:
                return
            for member in value_as_set(found):
                checked += 1
                values[slot] = member
                proceed()

        return step

    step: Callable[[], None] = lambda: out.append(tuple(values))
    for index in reversed(range(len(plan.literals))):
        after = [compiler.check(atom)
                 for atom in plan.checks_after.get(index, ())]
        literal = plan.literals[index]
        relation = (delta if index == delta_position
                    else ctx.relation(literal.predicate))
        step = scan(literal, plan.access[index], relation, after, step)
        if index in plan.generators:
            step = generate(plan.generators[index], step)
    try:
        if passes([compiler.check(atom)
                   for atom in plan.checks_after.get(-1, ())]):
            step()
    finally:
        ctx.stats.constraint_checks += checked
    return out


def _instantiate_head_arg(arg: Term, row: Row, plan: RulePlan,
                          ctx: EvaluationContext
                          ) -> Tuple[GroundValue, List[Tuple[str, GroundTuple]]]:
    """Ground one head argument; ⊕ terms create interval objects."""
    if isinstance(arg, ConcatTerm):
        left, facts_left = _instantiate_head_arg(arg.left, row, plan, ctx)
        right, facts_right = _instantiate_head_arg(arg.right, row, plan, ctx)
        for operand in (left, right):
            if not (isinstance(operand, Oid) and operand.is_interval):
                raise EvaluationError(
                    f"'++' operand {operand!r} is not a generalized interval"
                )
        left_obj = ctx.objects.get(left)
        right_obj = ctx.objects.get(right)
        if not isinstance(left_obj, GeneralizedIntervalObject) or \
                not isinstance(right_obj, GeneralizedIntervalObject):
            raise EvaluationError("'++' operands must be interval objects "
                                  "in the extended active domain")
        oid = Oid.concat(left, right)
        if oid in ctx.objects:
            # f(id1, id2) names one object: it is already in the domain
            return oid, facts_left + facts_right
        if len(ctx.objects) >= ctx.max_objects:
            raise ObjectBudgetError(plan.label, left, right, ctx.max_objects)
        tracer = ctx.tracer
        if tracer.enabled:
            t0 = time.perf_counter()
            combined = concatenate(left_obj, right_obj)
            tracer.record("concat.create", time.perf_counter() - t0)
        else:
            combined = concatenate(left_obj, right_obj)
        ctx.stats.created_objects += 1
        return oid, facts_left + facts_right + ctx.admit(combined)
    if isinstance(arg, Variable):
        try:
            return row[plan.slots[arg]], []
        except KeyError:
            raise EvaluationError(f"unbound variable {arg!r}") from None
    if isinstance(arg, Symbol):
        return ctx.resolve_symbol(arg), []
    return arg, []


# ---------------------------------------------------------------------------
# Fixpoint drivers
# ---------------------------------------------------------------------------

@dataclass
class FixpointResult:
    """The saturated interpretation plus run statistics (and the join
    plans that ran, for EXPLAIN)."""

    context: EvaluationContext
    stats: EvaluationStats
    plans: List[RulePlan] = field(default_factory=list)

    def relation(self, name: str) -> FrozenSet[GroundTuple]:
        rel = self.context.relation(name)
        return frozenset(rel.tuples) if rel else frozenset()


def rule_labels(program: Program) -> Dict[int, str]:
    """A stable display label per rule: its name (or head predicate),
    with ``#n`` suffixes disambiguating repeats.  Keyed by ``id(rule)``
    (rules are not hashable by value here and identity is what the
    evaluation loop holds)."""
    seen: Dict[str, int] = {}
    labels: Dict[int, str] = {}
    for rule in program:
        base = rule.name or rule.head.predicate
        count = seen.get(base, 0) + 1
        seen[base] = count
        labels[id(rule)] = base if count == 1 else f"{base}#{count}"
    return labels


def _check_deadline(ctx: EvaluationContext) -> None:
    """Cooperative cancellation: called at every iteration boundary and
    once per :data:`_DEADLINE_STRIDE` candidate rows inside a join."""
    if ctx.deadline is not None and time.monotonic() > ctx.deadline:
        raise QueryTimeoutError(
            f"evaluation exceeded its deadline after "
            f"{ctx.stats.iterations} iteration(s), "
            f"{ctx.stats.derived_facts} derived fact(s)")


def evaluate(db: VideoDatabase, program: Program,
             mode: str = "seminaive",
             computed: Optional[Dict[str, Tuple[int, ComputedPredicate]]] = None,
             max_objects: int = 50_000,
             max_iterations: int = 100_000,
             extended_domain: str = "lazy",
             reorder_joins: bool = True,
             provenance: Optional[Dict] = None,
             deadline: Optional[float] = None,
             tracer=None,
             kernel: KernelSpec = None,
             labels: Optional[Dict[int, str]] = None,
             guarded: Iterable[int] = (),
             base: Optional[EvaluationContext] = None) -> FixpointResult:
    """Compute the least fixpoint of ``T_P`` over the database.

    Parameters
    ----------
    mode:
        ``"seminaive"`` (delta-driven, the default) or ``"naive"``
        (recompute ``T_P(I)`` from scratch each round — the textbook
        operator, kept for the ablation benchmarks and the semantics
        property tests).
    computed:
        Extra filter-only predicates ``name -> (arity, fn)``.
    extended_domain:
        ``"lazy"`` or ``"eager"`` (see module docstring).
    reorder_joins:
        Plan each rule's join (selection-first literal order, membership
        generators — see :meth:`RulePlan.compile`); off, bodies run as
        written.
    provenance:
        Optional dict; when given it is filled with
        ``(predicate, tuple) -> (rule, binding)`` for each first
        derivation.
    deadline:
        Absolute ``time.monotonic()`` instant; checked cooperatively at
        every iteration boundary and every few hundred candidate rows
        inside a join, raising :class:`~vidb.errors.QueryTimeoutError`
        once passed.
    tracer:
        A :class:`~vidb.obs.trace.Tracer`; defaults to the thread's
        current (usually null) tracer.  Per-rule/per-iteration timings in
        ``stats`` are collected either way — the tracer adds the span
        tree and hot-path aggregates.
    kernel:
        The constraint kernel serving satisfiability/entailment checks: a
        backend name (``"interned"``, ``"reference"``), a
        :class:`~vidb.constraints.kernel.ConstraintKernel` instance, or
        ``None`` for the process default.
    labels:
        ``id(rule) -> label`` statistics are reported under; defaults to
        :func:`rule_labels` of *program*.  A demand-rewritten program
        passes the labels of the rules its rules came from.
    guarded:
        ``id(rule)`` of the rules whose first body literal is a demand
        guard, which join planning keeps first.
    base:
        A finished evaluation over *db* (the engine's ⊕ overlay) read,
        like the database under it, as stored relations and objects.
    """
    started = time.perf_counter()
    if tracer is None:
        tracer = current_tracer()
    check_program(program, edb_relations=db.relation_names())
    if mode not in ("seminaive", "naive"):
        raise EvaluationError(f"unknown evaluation mode {mode!r}")
    strata = stratify_with_negation(program)
    ctx = EvaluationContext(db, computed=computed, max_objects=max_objects,
                            extended_domain=extended_domain, kernel=kernel,
                            base=base)
    ctx.stats.mode = mode
    ctx.stats.kernel = ctx.kernel.name
    ctx.tracer = tracer
    ctx.deadline = deadline
    if labels is None:
        labels = rule_labels(program)
    guarded = frozenset(guarded)
    for rule in program:
        ctx.writable(rule.head.predicate)  # ensure presence

    def size_of(predicate: str) -> int:
        relation = ctx.relation(predicate)
        if relation is not None:
            return len(relation)
        if predicate in ctx.computed:
            return -1  # filter: only eligible once bound
        return 1_000_000_000  # unknown (will error at evaluation)

    # Saturate stratum by stratum: negated predicates are complete before
    # any rule consults them.
    result = FixpointResult(ctx, ctx.stats)
    for group in strata:
        plans = [
            RulePlan.compile(rule, size_of=size_of if reorder_joins else None,
                             guarded=id(rule) in guarded)
            for rule in group
        ]
        for plan in plans:
            plan.label = labels.get(id(plan.rule)) or (
                plan.rule.name or plan.rule.head.predicate)
        result.plans.extend(plans)
        if mode == "seminaive":
            _run_seminaive(ctx, plans, max_iterations, provenance)
        else:
            _run_naive(ctx, plans, max_iterations, provenance)
    ctx.stats.elapsed_s = time.perf_counter() - started
    return result


def _fire(plan: RulePlan, row: Row, ctx: EvaluationContext,
          provenance: Optional[Dict]) -> List[Tuple[str, GroundTuple]]:
    """Instantiate a rule head; returns the facts that became true."""
    ctx.stats.rule_firings += 1
    new_facts: List[Tuple[str, GroundTuple]] = []
    values: List[GroundValue] = []
    for arg in plan.rule.head.args:
        value, side_facts = _instantiate_head_arg(arg, row, plan, ctx)
        values.append(value)
        new_facts.extend(side_facts)
    head_fact = (plan.rule.head.predicate, tuple(values))
    if ctx.relations[head_fact[0]].add(head_fact[1]):
        new_facts.append(head_fact)
    if provenance is not None:
        for fact in new_facts:
            if fact not in provenance:
                provenance[fact] = (plan.rule, dict(zip(plan.slots, row)))
    return new_facts


def _note(ctx: EvaluationContext, facts: Iterable[Tuple[str, GroundTuple]],
          into: Dict[str, Relation]) -> None:
    """Record facts that became true in a semi-naive delta."""
    for name, row in facts:
        if name not in into:
            into[name] = Relation()
        into[name].add(row)
        ctx.stats.derived_facts += 1


def delta_round(ctx: EvaluationContext, plans: List[RulePlan],
                delta: Dict[str, Relation], provenance: Optional[Dict] = None
                ) -> Dict[str, Relation]:
    """One semi-naive round: each rule joined with each of its literals
    in turn reading *delta*; returns the facts that became true."""
    next_delta: Dict[str, Relation] = {}
    for plan in plans:
        with _RuleMeter(ctx.stats, plan.label):
            for position, literal in enumerate(plan.literals):
                rows = delta.get(literal.predicate)
                if rows:
                    for binding in _bindings(plan, ctx, position, rows):
                        _note(ctx, _fire(plan, binding, ctx, provenance),
                              next_delta)
    return next_delta


def _run_seminaive(ctx: EvaluationContext, plans: List[RulePlan],
                   max_iterations: int, provenance: Optional[Dict]) -> None:
    tracer = ctx.tracer
    # Round 0: every rule evaluated in full (EDB relations are the input).
    delta: Dict[str, Relation] = {}
    _check_deadline(ctx)
    round_started = time.perf_counter()
    with tracer.span("fixpoint.iteration", index=ctx.stats.iterations) as span:
        for plan in plans:
            # Materialise bindings before firing: head instantiation
            # mutates the relations the join is reading.
            with _RuleMeter(ctx.stats, plan.label):
                for binding in _bindings(plan, ctx):
                    _note(ctx, _fire(plan, binding, ctx, provenance), delta)
        span.annotate(derived=sum(len(rows) for rows in delta.values()))
    ctx.stats.iteration_seconds.append(time.perf_counter() - round_started)
    ctx.stats.iterations += 1

    while delta:
        if ctx.stats.iterations >= max_iterations:
            raise EvaluationError(f"fixpoint did not converge within "
                                  f"{max_iterations} iterations")
        _check_deadline(ctx)
        round_started = time.perf_counter()
        with tracer.span("fixpoint.iteration",
                         index=ctx.stats.iterations) as span:
            delta = delta_round(ctx, plans, delta, provenance)
            span.annotate(derived=sum(len(rows) for rows in delta.values()))
        ctx.stats.iteration_seconds.append(time.perf_counter() - round_started)
        ctx.stats.iterations += 1


def _run_naive(ctx: EvaluationContext, plans: List[RulePlan],
               max_iterations: int, provenance: Optional[Dict]) -> None:
    tracer = ctx.tracer
    while True:
        if ctx.stats.iterations >= max_iterations:
            raise EvaluationError(f"fixpoint did not converge within "
                                  f"{max_iterations} iterations")
        _check_deadline(ctx)
        round_started = time.perf_counter()
        ctx.stats.iterations += 1
        changed = False
        with tracer.span("fixpoint.iteration",
                         index=ctx.stats.iterations - 1) as span:
            for plan in plans:
                # Materialise bindings first: naive T_P applies to the
                # *current* interpretation, and firing mutates relations.
                with _RuleMeter(ctx.stats, plan.label):
                    bindings = _bindings(plan, ctx)
                    for binding in bindings:
                        facts = _fire(plan, binding, ctx, provenance)
                        if facts:
                            changed = True
                            ctx.stats.derived_facts += len(facts)
            span.annotate(changed=changed)
        ctx.stats.iteration_seconds.append(time.perf_counter() - round_started)
        if not changed:
            return
