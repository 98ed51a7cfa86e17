"""Query shapes: a query with its constants lifted out, and binding them
back in.

Everything the engine does before the fixpoint — the demand rewrite,
the analysis passes that do not read constant values, the cost estimate
— depends on which arguments of a query are constants, not on what the
constants are (the magic-set adornment is bound/free per argument:
Beeri & Ramakrishnan, "On the Power of Magic", PODS 1987).  So the
engine compiles a query *shape* once and binds each text's constants
into it.

:func:`lift` walks a query once.  Every constant occurrence — a literal
argument, a membership element, a subset member, an attribute-path
subject, a comparison operand — becomes a positional :class:`Param`
(``$0``, ``$1``, ...), and every inline constraint formula becomes a
:class:`ParamFormula`.  Variable names stay as typed, so a finding that
names a variable reads the same for every text of the shape.  The query
and each of its literals (the nodes a shape-level finding can point at)
are *anchors*: the lifted node carries the positional span ``0:k`` and
the served text's own span is ``anchors[k]``, which is how a finding
computed once is re-anchored onto each text (:func:`reanchor`).

The same walk numbers each variable at its first occurrence — a rule
variable inside a formula too — so a lifted query also carries an
*identity* that does not depend on variable names.  An answer is fixed
by the program, the database state and the query up to a renaming of
its variables, so the result cache keys on that identity and the
constants, and ``slow_query`` events group texts by it.

:func:`substitute` replaces parameters — lifted constants, or the
variables a prepared query names — with values; prepared queries and
shape binding share it.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Any, Dict, FrozenSet, List, Optional, Tuple, Union

from vidb.constraints.dense import And, Comparison, Constraint, Or
from vidb.constraints.terms import Var
from vidb.errors import QueryError
from vidb.model.oid import Oid
from vidb.query.ast import (
    AttrPath,
    BodyItem,
    ComparisonAtom,
    ConcatTerm,
    EntailmentAtom,
    Literal,
    MembershipAtom,
    NegatedLiteral,
    Query,
    Rule,
    SourceSpan,
    SubsetAtom,
    Symbol,
    Term,
    Variable,
    spanned,
)
from vidb.query.parser import parse_query


class Param(Symbol):
    """The lifted constant ``$k`` of a query shape.  It is a constant to
    every pass that runs on the shape, and no query text can spell it."""

    __slots__ = ()

    def __init__(self, index: int):
        self.name = f"${index}"
        self.span = None

    def __eq__(self, other: object) -> bool:
        return type(other) is Param and self.name == other.name

    def __hash__(self) -> int:
        return hash(("Param", self.name))


class ParamFormula(Constraint):
    """A lifted inline constraint formula.  It keeps the formula's
    variables: an uppercase one is a rule variable the shape-level
    passes join on."""

    __slots__ = ("name", "_variables")

    def __init__(self, index: int, variables: FrozenSet[Var]):
        self.name = f"${index}"
        self._variables = variables

    def variables(self) -> FrozenSet[Var]:
        return self._variables

    def __eq__(self, other: object) -> bool:
        return (type(other) is ParamFormula and self.name == other.name
                and self._variables == other._variables)

    def __hash__(self) -> int:
        return hash(("ParamFormula", self.name, self._variables))

    def __repr__(self) -> str:
        return self.name


class Lifted:
    """One query text's shape: the query as written (``source``), the
    lifted query, the constants it binds (parameter name -> value) and
    the spans of its anchors."""

    __slots__ = ("source", "query", "values", "anchors", "key", "identity",
                 "constants")

    def __init__(self, source: Query, query: Query, values: Dict[str, Any],
                 anchors: Tuple[Optional[SourceSpan], ...],
                 identity: tuple, constants: tuple):
        self.source = source
        self.query = query
        self.values = values
        self.anchors = anchors
        #: Equal for two texts exactly when they have one shape.  Which
        #: anchors lack a span is part of it: a pass falls back to
        #: another node's span only when the first has none.
        self.key = (query.body, query.answer_variables,
                    tuple(k for k, span in enumerate(anchors)
                          if span is None))
        #: The shape up to a renaming of variables: per body item its
        #: kind, predicate or attributes, and each variable's number
        #: (``None`` for a lifted constant); then the projection.
        self.identity = identity
        #: The lifted constants in order, each formula with its rule
        #: variables renamed by their numbers.  With :attr:`identity`,
        #: equal for two texts exactly when one is the other with its
        #: variables renamed.
        self.constants = constants


def _rule_variables(formula: Constraint) -> List[str]:
    """The names of *formula*'s rule (uppercase) variables, in written
    order."""
    if isinstance(formula, Comparison):
        return [side.name for side in (formula.left, formula.right)
                if isinstance(side, Var) and side.name[:1].isupper()]
    if isinstance(formula, (And, Or)):
        return [name for part in formula.parts
                for name in _rule_variables(part)]
    return []


def lift(query: Union[str, Query]) -> Lifted:
    """The shape of *query* (parsed first when given as text), in one
    walk over it."""
    if isinstance(query, str):
        query = parse_query(query)
    values: Dict[str, Any] = {}
    constants: List[Any] = []
    anchors: List[Optional[SourceSpan]] = [query.span]
    numbers: Dict[str, int] = {}
    # The identity of the body item being walked.
    token: List[Any] = []

    def number(name: str) -> int:
        return numbers.setdefault(name, len(numbers))

    def constant(term: Term) -> Term:
        if isinstance(term, Variable):
            token.append(number(term.name))
            return term
        token.append(None)
        param = Param(len(values))
        values[param.name] = term
        constants.append(term)
        return param

    def path(node: AttrPath) -> AttrPath:
        subject = constant(node.subject)
        token.append("." + node.attr)
        return AttrPath(subject, node.attr)

    def side(node):
        if isinstance(node, AttrPath):
            return path(node)
        if isinstance(node, Constraint):
            names = dict.fromkeys(_rule_variables(node))
            token.append(tuple(number(name) for name in names))
            constants.append(node.substitute(
                {Var(name): Var(f"V{numbers[name]}") for name in names})
                if names else node)
            param = ParamFormula(len(values), node.variables())
            values[param.name] = node
            return param
        return constant(node)

    def anchor(node, lifted):
        anchors.append(node.span)
        if node.span is not None:
            lifted.span = SourceSpan(0, len(anchors) - 1)
        return lifted

    def literal(node: Literal) -> Literal:
        token.append(node.predicate)
        return anchor(node, Literal(node.predicate,
                                    [constant(arg) for arg in node.args]))

    body: List[BodyItem] = []
    items: List[tuple] = []
    for item in query.body:
        token.append(type(item).__name__)
        if isinstance(item, Literal):
            body.append(literal(item))
        elif isinstance(item, NegatedLiteral):
            body.append(anchor(item, NegatedLiteral(literal(item.literal))))
        elif isinstance(item, MembershipAtom):
            body.append(MembershipAtom(constant(item.element),
                                       path(item.collection)))
        elif isinstance(item, SubsetAtom):
            if isinstance(item.subset, AttrPath):
                subset = path(item.subset)
            else:
                token.append("{}")
                subset = tuple(constant(term) for term in item.subset)
            body.append(SubsetAtom(subset, path(item.superset)))
        elif isinstance(item, ComparisonAtom):
            left = side(item.left)
            token.append(item.op)
            body.append(ComparisonAtom(left, item.op, side(item.right)))
        elif isinstance(item, EntailmentAtom):
            body.append(EntailmentAtom(side(item.left), side(item.right)))
        else:
            raise QueryError(f"cannot lift body item {item!r}")
        items.append(tuple(token))
        token.clear()
    lifted = Query(body, query.answer_variables)
    if query.span is not None:
        lifted.span = SourceSpan(0, 0)
    identity = (tuple(items),
                tuple(number(var.name) for var in query.answer_variables))
    return Lifted(query, lifted, values, tuple(anchors), identity,
                  tuple(constants))


def reanchor(diagnostic, anchors: Tuple[Optional[SourceSpan], ...]):
    """*diagnostic* (computed on a lifted query) pointing at the node of
    the served text it pointed at in the shape."""
    span = diagnostic.span
    if span is None or span.line != 0:
        return diagnostic
    return replace(diagnostic, span=anchors[span.column])


# -- substitution -----------------------------------------------------------
#
# ``binding`` maps a parameter name — ``$k`` of a lifted constant or
# formula, or the name of a variable a prepared query binds — to its
# value.  ``spanned`` keeps each rebuilt node's source position, so
# diagnostics against a bound query still point into the text it came
# from.

def _subst_term(term: Term, binding: Dict[str, Any]) -> Term:
    if isinstance(term, (Variable, Param)) and term.name in binding:
        return binding[term.name]
    if isinstance(term, ConcatTerm):
        return spanned(ConcatTerm(_subst_term(term.left, binding),
                                  _subst_term(term.right, binding)),
                       term.span)
    return term


def _subst_path(path: AttrPath, binding: Dict[str, Any]) -> AttrPath:
    subject = _subst_term(path.subject, binding)
    if not isinstance(subject, (Variable, Symbol, Oid)):
        raise QueryError(
            f"parameter {path.subject!r} is used as an attribute-path "
            f"subject and must bind to a symbol or oid, not {subject!r}")
    return spanned(AttrPath(subject, path.attr), path.span)


def _subst_constraint(constraint: Constraint,
                      binding: Dict[str, Any]) -> Constraint:
    if isinstance(constraint, ParamFormula):
        return binding.get(constraint.name, constraint)
    if isinstance(constraint, Comparison):
        def side(value):
            if isinstance(value, Var) and value.name in binding:
                bound = binding[value.name]
                if isinstance(bound, (Symbol, Oid)):
                    raise QueryError(
                        f"constraint variable {value.name} must bind to a "
                        f"number, not {bound!r}")
                return bound
            return value
        return Comparison(side(constraint.left), constraint.op,
                          side(constraint.right))
    if isinstance(constraint, And):
        return And([_subst_constraint(p, binding) for p in constraint.parts])
    if isinstance(constraint, Or):
        return Or([_subst_constraint(p, binding) for p in constraint.parts])
    return constraint


def _subst_side(side, binding: Dict[str, Any]):
    if isinstance(side, AttrPath):
        return _subst_path(side, binding)
    if isinstance(side, Constraint):
        return _subst_constraint(side, binding)
    return _subst_term(side, binding)


def substitute(item: BodyItem, binding: Dict[str, Any]) -> BodyItem:
    """*item* with every parameter *binding* names replaced."""
    if isinstance(item, Literal):
        return spanned(
            Literal(item.predicate,
                    [_subst_term(a, binding) for a in item.args]),
            item.span)
    if isinstance(item, NegatedLiteral):
        return spanned(NegatedLiteral(substitute(item.literal, binding)),
                       item.span)
    if isinstance(item, MembershipAtom):
        return spanned(
            MembershipAtom(_subst_term(item.element, binding),
                           _subst_path(item.collection, binding)),
            item.span)
    if isinstance(item, SubsetAtom):
        if isinstance(item.subset, AttrPath):
            subset = _subst_path(item.subset, binding)
        else:
            subset = tuple(_subst_term(t, binding) for t in item.subset)
        return spanned(SubsetAtom(subset, _subst_path(item.superset, binding)),
                       item.span)
    if isinstance(item, ComparisonAtom):
        return spanned(
            ComparisonAtom(_subst_side(item.left, binding), item.op,
                           _subst_side(item.right, binding)),
            item.span)
    if isinstance(item, EntailmentAtom):
        return spanned(
            EntailmentAtom(_subst_side(item.left, binding),
                           _subst_side(item.right, binding)),
            item.span)
    raise QueryError(f"cannot substitute into body item {item!r}")


def bind_rule(rule: Rule, binding: Dict[str, Any],
              name: Optional[str]) -> Rule:
    """*rule* (one the rewrite emitted for a lifted query) with its
    parameters bound, named *name*."""
    return Rule(substitute(rule.head, binding),
                [substitute(item, binding) for item in rule.body],
                name=name)
