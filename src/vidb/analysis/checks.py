"""The individual analysis passes.

Each pass takes an :class:`AnalysisContext` and returns diagnostics; the
driver in :mod:`vidb.analysis.analyzer` composes them.  Passes never
raise for findings — they *return* them — and defend against solver
domain errors so a weird-but-legal program degrades to fewer findings,
never to a crash.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Set, Tuple

from vidb.constraints.dense import TRUE, conjoin
from vidb.constraints.kernel import default_kernel
from vidb.errors import ConstraintError, SafetyError
from vidb.query import safety
from vidb.query.demand import goal_predicates, reachable_predicates
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
    Query,
    SourceSpan,
    SubsetAtom,
    Variable,
)
from vidb.analysis.dataflow import DataflowResult, analyze_dataflow
from vidb.analysis.diagnostics import Diagnostic, make
from vidb.analysis.translate import (
    abstract_body,
    dense_satisfiable,
    entailment_rhs_unsatisfiable,
    set_satisfiable,
)

#: SafetyError.kind -> diagnostic code.
_SAFETY_CODES = {
    "range": "VDB002",
    "constructive": "VDB002",
    "redefine": "VDB003",
    "arity": "VDB004",
    "stratify": "VDB005",
}


@dataclass(frozen=True)
class AnalysisContext:
    """Everything the passes need to know about the analyzed program's
    surroundings: the EDB relations, computed predicates, and any
    *contextual* predicates assumed defined elsewhere (e.g. the serving
    engine's program when linting a submitted fragment)."""

    program: Program
    edb: FrozenSet[str] = frozenset()
    computed: Dict[str, int] = field(default_factory=dict)
    extra: Dict[str, Optional[int]] = field(default_factory=dict)
    #: Under a closed world the database is authoritative, so a predicate
    #: nobody defines is an error; an open world (standalone lint without
    #: a database) downgrades it to a warning.
    closed_world: bool = True

    def known_predicates(self) -> FrozenSet[str]:
        return (CLASS_PREDICATES | self.edb
                | self.program.idb_predicates()
                | frozenset(self.computed) | frozenset(self.extra))


def _rule_context(rule, index: Optional[int]) -> dict:
    return dict(rule_index=index, rule_name=rule.name,
                predicate=rule.head.predicate)


def _where(rule_index: Optional[int], rule_name: Optional[str]) -> str:
    if rule_name:
        return f"rule {rule_name!r}"
    if rule_index is not None:
        return f"rule #{rule_index}"
    return "query"


# ---------------------------------------------------------------------------
# (f) safety and stratification, re-surfaced as located diagnostics
# ---------------------------------------------------------------------------

def check_safety(ctx: AnalysisContext) -> Tuple[List[Diagnostic], Set[str]]:
    """Per-rule safety + head-arity consistency + stratification.

    Returns the diagnostics and the set of predicates with conflicting
    head arities (so the arity-of-use check can skip them).
    """
    out: List[Diagnostic] = []
    arities: Dict[str, int] = {}
    conflicted: Set[str] = set()
    for index, rule in enumerate(ctx.program):
        try:
            safety.check_rule(rule, ctx.edb, rule_index=index)
        except SafetyError as exc:
            out.append(make(_SAFETY_CODES.get(exc.kind or "", "VDB002"),
                            str(exc), span=rule.span,
                            **_rule_context(rule, index)))
        known = arities.setdefault(rule.head.predicate, rule.head.arity)
        if known != rule.head.arity:
            conflicted.add(rule.head.predicate)
            out.append(make(
                "VDB004",
                f"predicate {rule.head.predicate!r} is defined with arities "
                f"{known} and {rule.head.arity}",
                span=rule.head.span or rule.span,
                **_rule_context(rule, index)))
    try:
        safety.stratify_with_negation(ctx.program)
    except SafetyError as exc:
        rule = None
        if exc.rule_index is not None and exc.rule_index < len(ctx.program.rules):
            rule = ctx.program.rules[exc.rule_index]
        out.append(make("VDB005", str(exc),
                        span=rule.span if rule is not None else None,
                        rule_index=exc.rule_index, rule_name=exc.rule_name,
                        predicate=exc.predicate))
    return out, conflicted


def check_query_safety(query: Query) -> List[Diagnostic]:
    try:
        safety.check_query(query)
    except SafetyError as exc:
        return [make("VDB002", str(exc), span=query.span)]
    return []


# ---------------------------------------------------------------------------
# (c) unknown predicates and (d) arity-of-use consistency
# ---------------------------------------------------------------------------

def _expected_arities(ctx: AnalysisContext,
                      conflicted: Set[str]) -> Dict[str, int]:
    expected: Dict[str, int] = {name: 1 for name in CLASS_PREDICATES}
    for rule in ctx.program:
        expected.setdefault(rule.head.predicate, rule.head.arity)
    for name, arity in ctx.computed.items():
        expected.setdefault(name, arity)
    for name, arity in ctx.extra.items():
        if arity is not None:
            expected.setdefault(name, arity)
    for name in conflicted:
        expected.pop(name, None)
    return expected


def _body_literals(body: Sequence[BodyItem]) -> Iterable[Tuple[Literal, bool]]:
    for item in body:
        if isinstance(item, Literal):
            yield item, False
        elif isinstance(item, NegatedLiteral):
            yield item.literal, True


def conflicted_arities(program: Program) -> Set[str]:
    """Predicates whose defining rules disagree on arity."""
    arities: Dict[str, int] = {}
    conflicted: Set[str] = set()
    for rule in program:
        known = arities.setdefault(rule.head.predicate, rule.head.arity)
        if known != rule.head.arity:
            conflicted.add(rule.head.predicate)
    return conflicted


def check_predicate_uses(ctx: AnalysisContext, conflicted: Set[str],
                         queries: Sequence[Query] = (),
                         include_rules: bool = True) -> List[Diagnostic]:
    out: List[Diagnostic] = []
    known = ctx.known_predicates()
    expected = _expected_arities(ctx, conflicted)
    unknown_severity = "error" if ctx.closed_world else "warning"

    def visit(body: Sequence[BodyItem], rule=None, index: Optional[int] = None):
        context = (_rule_context(rule, index) if rule is not None
                   else dict(rule_index=None, rule_name=None, predicate=None))
        where = _where(index, rule.name if rule is not None else None)
        for literal, negated in _body_literals(body):
            shape = f"not {literal.predicate}" if negated else literal.predicate
            if literal.predicate not in known:
                context_unknown = dict(context, predicate=literal.predicate)
                out.append(make(
                    "VDB006",
                    f"{where} uses undefined predicate {shape!r}: no rule, "
                    "database relation, class or computed predicate defines "
                    "it",
                    span=literal.span, severity=unknown_severity,
                    **context_unknown))
                continue
            want = expected.get(literal.predicate)
            if want is not None and literal.arity != want:
                out.append(make(
                    "VDB007",
                    f"{where} uses {literal.predicate!r} with arity "
                    f"{literal.arity}, but it is defined with arity {want}",
                    span=literal.span, **dict(context,
                                              predicate=literal.predicate)))

    if include_rules:
        for index, rule in enumerate(ctx.program):
            visit(rule.body, rule, index)
    for query in queries:
        visit(query.body)
    return out


# ---------------------------------------------------------------------------
# (a) dead rules, (b) redundant constraints — the solver-backed passes
# ---------------------------------------------------------------------------

def _analyze_body(body: Sequence[BodyItem], span: Optional[SourceSpan],
                  context: dict, where: str) -> List[Diagnostic]:
    out: List[Diagnostic] = []
    dense, sets, entailments = abstract_body(body)
    dead = False

    for atom, truth in entailments:
        if not truth:
            dead = True
            out.append(make(
                "VDB022",
                f"entailment atom {atom!r} in {where} is statically false: "
                "the rule can never fire",
                span=atom.span or span, **context))

    for item in body:
        if isinstance(item, EntailmentAtom) and entailment_rhs_unsatisfiable(item):
            out.append(make(
                "VDB024",
                f"right side of {item!r} in {where} is an unsatisfiable "
                "constraint; the entailment only holds for subjects whose "
                "own constraint is unsatisfiable",
                span=item.span or span, **context))

    dense_images = [image for _, image in dense]
    set_images = [image for _, image in sets]
    dense_ok = dense_satisfiable(dense_images)
    sets_ok = set_satisfiable(set_images)
    if not dense_ok:
        dead = True
        out.append(make(
            "VDB020",
            f"{where} is dead: its comparison atoms are unsatisfiable "
            "over the dense order",
            span=span, **context))
    if not sets_ok:
        dead = True
        out.append(make(
            "VDB021",
            f"{where} is dead: its membership/subset atoms are "
            "unsatisfiable over the set order",
            span=span, **context))
    if dead:
        return out

    # Redundancy: an atom implied by the rest of the (satisfiable) body.
    for position, (atom, image) in enumerate(dense):
        rest = [other for i, (_, other) in enumerate(dense) if i != position]
        try:
            kernel = default_kernel()
            if kernel.entails(conjoin(*rest) if rest else TRUE, image):
                out.append(make(
                    "VDB023",
                    f"constraint {atom!r} in {where} is implied by the rest "
                    "of the body and can be removed",
                    span=atom.span or span, **context))
        except ConstraintError:
            continue
    for position, (atom, image) in enumerate(sets):
        rest = [other for i, (_, other) in enumerate(sets) if i != position]
        try:
            kernel = default_kernel()
            if kernel.set_satisfiable(rest) and kernel.set_entails(rest, [image]):
                out.append(make(
                    "VDB023",
                    f"constraint {atom!r} in {where} is implied by the rest "
                    "of the body and can be removed",
                    span=atom.span or span, **context))
        except ConstraintError:
            continue
    return out


def check_constraints(ctx: AnalysisContext,
                      queries: Sequence[Query] = ()) -> List[Diagnostic]:
    out: List[Diagnostic] = []
    for index, rule in enumerate(ctx.program):
        out.extend(_analyze_body(rule.body, rule.span,
                                 _rule_context(rule, index),
                                 _where(index, rule.name)))
    for query in queries:
        out.extend(_analyze_body(
            query.body, query.span,
            dict(rule_index=None, rule_name=None, predicate=None),
            "query"))
    return out


# ---------------------------------------------------------------------------
# (g) whole-program interval dataflow — VDB040/VDB041/VDB044
# ---------------------------------------------------------------------------

def check_dataflow(ctx: AnalysisContext, *, annotate_bounds: bool = False
                   ) -> Tuple[List[Diagnostic], DataflowResult]:
    """Cross-rule findings from the interval dataflow fixpoint.

    * ``VDB040``: every defining rule of a derived predicate is dead, so
      the predicate is provably empty.
    * ``VDB041``: a rule's body is satisfiable on its own but becomes
      unsatisfiable once a consumed derived predicate's inferred bounds
      are intersected in — an inter-rule contradiction the per-rule
      passes cannot see.
    * ``VDB044`` (only when ``annotate_bounds``): the non-trivial bounds
      themselves, as informational annotations.
    """
    flow = analyze_dataflow(ctx.program)
    out: List[Diagnostic] = []
    first_rule: Dict[str, Tuple[int, object]] = {}
    for index, rule in enumerate(ctx.program):
        first_rule.setdefault(rule.head.predicate, (index, rule))
    for predicate in flow.empty_predicates():
        index, rule = first_rule[predicate]
        out.append(make(
            "VDB040",
            f"derived predicate {predicate!r} is provably empty: no "
            "defining rule can ever produce a fact",
            span=rule.head.span or rule.span,
            **_rule_context(rule, index)))
    for rule_flow in flow.flows:
        if rule_flow.dead_local or rule_flow.contradicts is None:
            continue
        where = _where(rule_flow.index, rule_flow.rule.name)
        if rule_flow.producer_empty:
            message = (f"{where} consumes derived predicate "
                       f"{rule_flow.contradicts!r}, which is provably "
                       "empty; the rule can never fire")
        else:
            message = (f"{where} constrains {rule_flow.contradicts!r} "
                       "outside the bounds its defining rules can "
                       "produce; the rule can never fire")
        out.append(make("VDB041", message, span=rule_flow.rule.span,
                        **_rule_context(rule_flow.rule, rule_flow.index)))
    if annotate_bounds:
        for summary in flow.narrowed():
            index, rule = first_rule[summary.predicate]
            out.append(make(
                "VDB044", f"inferred bounds: {summary.render()}",
                span=rule.head.span or rule.span,
                **_rule_context(rule, index)))
    return out, flow


def check_query_dataflow(flow: DataflowResult,
                         queries: Sequence[Query]) -> List[Diagnostic]:
    """VDB041 for query bodies consuming empty/contradicting producers."""
    from vidb.analysis.dataflow import _body_cells, _consume_summaries
    out: List[Diagnostic] = []
    for query in queries:
        cells, _ = _body_cells(query.body)
        if cells.empty:
            continue  # the per-body passes report dead queries already
        producer, empty = _consume_summaries(cells, query.body,
                                             flow.summaries)
        if producer is None:
            continue
        if empty:
            message = (f"query consumes derived predicate {producer!r}, "
                       "which is provably empty; it can never have "
                       "answers")
        else:
            message = (f"query constrains {producer!r} outside the "
                       "bounds its defining rules can produce; it can "
                       "never have answers")
        out.append(make("VDB041", message, span=query.span,
                        predicate=producer))
    return out


# ---------------------------------------------------------------------------
# (h) streaming safety for standing queries — VDB060/VDB061/VDB062
# ---------------------------------------------------------------------------

#: Maintenance classifications, as reported in ``Subscription.describe``.
MAINT_INCREMENTAL = "incremental"
MAINT_REJECTED = "rejected"


def check_streaming_safety(ctx: AnalysisContext, query: Query
                           ) -> Tuple[List[Diagnostic], Dict[str, object]]:
    """Classify a standing query for incremental maintenance.

    Returns the diagnostics plus a classification dict with keys
    ``maintenance`` (``incremental`` / ``rejected``),
    ``deletion_sensitive`` (a deletion anywhere in the joined relations
    forces a from-scratch rebuild) and ``unbounded_growth`` (reachable
    constructive rules mint new intervals every commit, so the retained
    answer set can grow without bound).
    """
    out: List[Diagnostic] = []
    reachable = reachable_predicates(ctx.program, query_goals((query,)))
    relevant = [(index, rule) for index, rule in enumerate(ctx.program)
                if rule.head.predicate in reachable]

    rejected = False
    for item in query.body:
        if isinstance(item, NegatedLiteral):
            rejected = True
            out.append(make(
                "VDB060",
                f"standing query negates {item.literal.predicate!r}: "
                "negation is non-monotone, so the answer view cannot be "
                "maintained incrementally",
                span=item.span or query.span,
                predicate=item.literal.predicate))
    for index, rule in relevant:
        negated = list(rule.negated_literals())
        if negated:
            rejected = True
            out.append(make(
                "VDB060",
                f"standing query depends on {_where(index, rule.name)}, "
                f"which negates {negated[0].predicate!r}: negation is "
                "non-monotone, so the answer view cannot be maintained "
                "incrementally",
                span=rule.span, **_rule_context(rule, index)))

    unbounded = False
    for index, rule in relevant:
        if rule.is_constructive:
            unbounded = True
            out.append(make(
                "VDB061",
                f"standing query depends on constructive "
                f"{_where(index, rule.name)}: concatenation mints a new "
                "interval per joined pair, so the retained answer set "
                "can grow without bound as commits arrive",
                span=rule.span, **_rule_context(rule, index)))

    deletion_sensitive = False
    joined_bodies: List[Tuple[Sequence[BodyItem], Optional[SourceSpan],
                              dict, str]] = [
        (query.body, query.span,
         dict(rule_index=None, rule_name=None, predicate=None),
         "standing query")]
    joined_bodies += [
        (rule.body, rule.span, _rule_context(rule, index),
         _where(index, rule.name)) for index, rule in relevant]
    for body, span, context, where in joined_bodies:
        literals = [item for item in body if isinstance(item, Literal)]
        if len(literals) >= 2:
            deletion_sensitive = True
            out.append(make(
                "VDB062",
                f"{where} joins {len(literals)} relations: a deletion in "
                "any of them invalidates joined answers, so deletions "
                "trigger a full view rebuild rather than an incremental "
                "delta",
                span=span, **context))
            break  # one classification note is enough

    classification: Dict[str, object] = {
        "maintenance": MAINT_REJECTED if rejected else MAINT_INCREMENTAL,
        "deletion_sensitive": deletion_sensitive,
        "unbounded_growth": unbounded,
    }
    return out, classification


# ---------------------------------------------------------------------------
# (d) singleton variables
# ---------------------------------------------------------------------------

def _term_occurrences(term, out: List[Variable]) -> None:
    if isinstance(term, Variable):
        out.append(term)
    elif isinstance(term, ConcatTerm):
        _term_occurrences(term.left, out)
        _term_occurrences(term.right, out)


def _side_occurrences(side, out: List[Variable]) -> None:
    if isinstance(side, AttrPath):
        if isinstance(side.subject, Variable):
            out.append(side.subject)
    else:
        _term_occurrences(side, out)


def variable_occurrences(rule) -> List[Variable]:
    """Every syntactic occurrence of a rule variable, in source order.

    The parser creates a fresh :class:`Variable` object per occurrence,
    so each element carries its own span; programmatically built rules
    may reuse objects, which only affects span quality, not counts.
    """
    out: List[Variable] = []
    for arg in rule.head.args:
        _term_occurrences(arg, out)
    for item in rule.body:
        if isinstance(item, Literal):
            for arg in item.args:
                _term_occurrences(arg, out)
        elif isinstance(item, NegatedLiteral):
            for arg in item.literal.args:
                _term_occurrences(arg, out)
        elif isinstance(item, MembershipAtom):
            _term_occurrences(item.element, out)
            _side_occurrences(item.collection, out)
        elif isinstance(item, SubsetAtom):
            if isinstance(item.subset, AttrPath):
                _side_occurrences(item.subset, out)
            else:
                for term in item.subset:
                    _term_occurrences(term, out)
            _side_occurrences(item.superset, out)
        elif isinstance(item, ComparisonAtom):
            _side_occurrences(item.left, out)
            _side_occurrences(item.right, out)
        elif isinstance(item, EntailmentAtom):
            for side in (item.left, item.right):
                if isinstance(side, AttrPath):
                    _side_occurrences(side, out)
                else:
                    # Uppercase inline-constraint variables are rule
                    # variables; they carry no span of their own.
                    for var in side.variables():
                        if var.name[:1].isupper():
                            out.append(Variable(var.name))
    return out


def check_singletons(ctx: AnalysisContext) -> List[Diagnostic]:
    out: List[Diagnostic] = []
    for index, rule in enumerate(ctx.program):
        occurrences = variable_occurrences(rule)
        counts: Dict[str, int] = {}
        for variable in occurrences:
            counts[variable.name] = counts.get(variable.name, 0) + 1
        for variable in occurrences:
            if counts[variable.name] == 1:
                out.append(make(
                    "VDB030",
                    f"variable {variable.name!r} occurs only once in "
                    f"{_where(index, rule.name)}; a join or filter was "
                    "probably intended",
                    span=variable.span or rule.span,
                    **_rule_context(rule, index)))
    return out


# ---------------------------------------------------------------------------
# (e) cartesian products
# ---------------------------------------------------------------------------

def _connected_components(body: Sequence[BodyItem]) -> List[List[BodyItem]]:
    """Group body items by shared variables (items without variables are
    left out: a ground literal like ``object(o1)`` is a pure filter)."""
    items = [item for item in body if item.variables()]
    parent = list(range(len(items)))

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    def union(i: int, j: int) -> None:
        parent[find(i)] = find(j)

    by_variable: Dict[str, int] = {}
    for index, item in enumerate(items):
        for variable in item.variables():
            anchor = by_variable.setdefault(variable.name, index)
            union(index, anchor)

    groups: Dict[int, List[BodyItem]] = {}
    for index, item in enumerate(items):
        groups.setdefault(find(index), []).append(item)
    return list(groups.values())


def check_joins(ctx: AnalysisContext,
                queries: Sequence[Query] = ()) -> List[Diagnostic]:
    out: List[Diagnostic] = []

    def visit(body: Sequence[BodyItem], context: dict, where: str,
              fallback: Optional[SourceSpan]):
        components = _connected_components(body)
        with_literals = [
            component for component in components
            if any(isinstance(item, Literal) for item in component)
        ]
        if len(with_literals) < 2:
            return
        def label(component: List[BodyItem]) -> str:
            predicates = [item.predicate for item in component
                          if isinstance(item, Literal)]
            return "{" + ", ".join(predicates) + "}"
        second = next(item for item in with_literals[1]
                      if isinstance(item, Literal))
        out.append(make(
            "VDB031",
            f"{where} joins disconnected literal groups "
            f"{' x '.join(label(c) for c in with_literals)}: the result is "
            "a cartesian product",
            span=second.span or fallback, **context))

    for index, rule in enumerate(ctx.program):
        visit(rule.body, _rule_context(rule, index),
              _where(index, rule.name), rule.span)
    for query in queries:
        visit(query.body,
              dict(rule_index=None, rule_name=None, predicate=None),
              "query", query.span)
    return out


# ---------------------------------------------------------------------------
# (c) reachability
# ---------------------------------------------------------------------------

def query_goals(queries: Sequence[Query]) -> FrozenSet[str]:
    return goal_predicates(item for query in queries for item in query.body)


def check_reachability(ctx: AnalysisContext, queries: Sequence[Query],
                       reachable: FrozenSet[str]) -> List[Diagnostic]:
    """Defined-but-unreachable predicates, relative to the queries."""
    if not queries:
        return []
    out: List[Diagnostic] = []
    reported: Set[str] = set()
    for index, rule in enumerate(ctx.program):
        predicate = rule.head.predicate
        if predicate in reachable or predicate in reported:
            continue
        reported.add(predicate)
        out.append(make(
            "VDB032",
            f"predicate {predicate!r} is defined but unreachable from the "
            "query; its rules never contribute answers",
            span=rule.head.span or rule.span,
            **_rule_context(rule, index)))
    return out
