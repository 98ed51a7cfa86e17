"""Abstract syntax of the rule-based constraint query language (Section 6).

A **rule** has the form ``H :- L1, ..., Ln, c1, ..., cm`` (Definition 10)
where ``H`` is an atom, the ``Li`` are positive literals and the ``ci``
are constraint atoms.  Terms are variables, constants (numbers, strings,
symbols that resolve to oids), and — in rule heads only — constructive
concatenation terms ``I1 ++ I2``.

Constraint atoms come in the paper's four flavours:

* membership  — ``o in G.entities``            (:class:`MembershipAtom`)
* subset      — ``{o1, o2} subset G.entities`` (:class:`SubsetAtom`)
* inequality  — ``O.A = val``, ``O.A < O2.B``  (:class:`ComparisonAtom`)
* entailment  — ``G.duration => (t > a and t < b)``
                or ``G2.duration => G1.duration`` (:class:`EntailmentAtom`)

All AST nodes are immutable value objects.
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import FrozenSet, Iterable, List, Optional, Sequence, Set, Tuple, Union

from vidb.constraints.dense import Constraint
from vidb.constraints.terms import ConstantValue
from vidb.errors import QueryError
from vidb.model.oid import Oid
from vidb.storage.relation import ANYOBJECT_PRED, INTERVAL_PRED, OBJECT_PRED

_IDENT_RE = re.compile(r"[A-Za-z][A-Za-z0-9_]*\Z")

#: Reserved class predicates (Definition 8) plus the Anyobject class the
#: paper uses in its concatenation example; storage keeps one relation
#: for each.
CLASS_PREDICATES = frozenset({INTERVAL_PRED, OBJECT_PRED, ANYOBJECT_PRED})


class SourceSpan:
    """A 1-based (line, column) position in the source text.

    Spans are carried on AST nodes as an optional annotation: the parser
    fills them in, programmatic construction leaves them ``None``.  They
    never participate in equality or hashing, so two occurrences of the
    same variable still compare equal.
    """

    __slots__ = ("line", "column")

    def __init__(self, line: int, column: int):
        self.line = int(line)
        self.column = int(column)

    def as_dict(self) -> dict:
        return {"line": self.line, "column": self.column}

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, SourceSpan) and self.line == other.line
                and self.column == other.column)

    def __hash__(self) -> int:
        return hash(("SourceSpan", self.line, self.column))

    def __repr__(self) -> str:
        return f"{self.line}:{self.column}"


def spanned(node, span: Optional[SourceSpan]):
    """Attach ``span`` to ``node`` (if the node supports one) and return it."""
    if span is not None:
        try:
            node.span = span
        except (AttributeError, TypeError):
            pass  # plain constants carry no span
    return node


class Variable:
    """A rule variable.  The paper splits variables into object/value
    variables (X, Y, ...) and generalized-interval variables (S, T, ...);
    vidb keeps one class and lets the class predicates do the sorting."""

    __slots__ = ("name", "span")

    def __init__(self, name: str):
        if not _IDENT_RE.match(name or ""):
            raise QueryError(f"invalid variable name {name!r}")
        self.name = name
        self.span: Optional[SourceSpan] = None

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Variable) and self.name == other.name

    def __hash__(self) -> int:
        return hash(("Variable", self.name))

    def __repr__(self) -> str:
        return self.name


class Symbol:
    """A lowercase constant symbol, resolved against the database at
    evaluation time: an entity oid if one matches, else an interval oid,
    else the bare string."""

    __slots__ = ("name", "span")

    def __init__(self, name: str):
        if not _IDENT_RE.match(name or ""):
            raise QueryError(f"invalid symbol {name!r}")
        self.name = name
        self.span: Optional[SourceSpan] = None

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Symbol) and self.name == other.name

    def __hash__(self) -> int:
        return hash(("Symbol", self.name))

    def __repr__(self) -> str:
        return self.name


class ConcatTerm:
    """A constructive term ``left ++ right`` (head positions only)."""

    __slots__ = ("left", "right", "span")

    def __init__(self, left: "Term", right: "Term"):
        for operand in (left, right):
            if isinstance(operand, ConcatTerm):
                continue
            if isinstance(operand, (Variable, Symbol, Oid)):
                continue
            raise QueryError(
                f"concatenation operand must be a variable or interval oid, "
                f"got {operand!r}"
            )
        self.left = left
        self.right = right
        self.span: Optional[SourceSpan] = None

    def variables(self) -> FrozenSet[Variable]:
        out: Set[Variable] = set()
        for operand in (self.left, self.right):
            if isinstance(operand, Variable):
                out.add(operand)
            elif isinstance(operand, ConcatTerm):
                out |= operand.variables()
        return frozenset(out)

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, ConcatTerm) and self.left == other.left
                and self.right == other.right)

    def __hash__(self) -> int:
        return hash(("ConcatTerm", self.left, self.right))

    def __repr__(self) -> str:
        return f"{self.left!r} ++ {self.right!r}"


#: Term = variable | symbol | oid | constant | constructive term.
Term = Union[Variable, Symbol, Oid, ConstantValue, ConcatTerm]


def term_variables(term: Term) -> FrozenSet[Variable]:
    if isinstance(term, Variable):
        return frozenset({term})
    if isinstance(term, ConcatTerm):
        return term.variables()
    return frozenset()


def check_term(term: object) -> Term:
    if isinstance(term, (Variable, Symbol, Oid, ConcatTerm)):
        return term
    if isinstance(term, (int, float, Fraction, str)):
        return term
    raise QueryError(f"{term!r} is not a valid term")


class AttrPath:
    """An attribute access ``subject.attr`` (``G.entities``, ``O.name``)."""

    __slots__ = ("subject", "attr", "span")

    def __init__(self, subject: Union[Variable, Symbol, Oid], attr: str):
        if not isinstance(subject, (Variable, Symbol, Oid)):
            raise QueryError(f"attribute path subject must be a variable, symbol "
                             f"or oid, got {subject!r}")
        if not _IDENT_RE.match(attr or ""):
            raise QueryError(f"invalid attribute name {attr!r}")
        self.subject = subject
        self.attr = attr
        self.span: Optional[SourceSpan] = None

    def variables(self) -> FrozenSet[Variable]:
        return term_variables(self.subject)

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, AttrPath) and self.subject == other.subject
                and self.attr == other.attr)

    def __hash__(self) -> int:
        return hash(("AttrPath", self.subject, self.attr))

    def __repr__(self) -> str:
        return f"{self.subject!r}.{self.attr}"


class BodyItem:
    """Base class for anything that may appear in a rule body."""

    def variables(self) -> FrozenSet[Variable]:
        raise NotImplementedError


class Literal(BodyItem):
    """A predicate atom ``p(t1, ..., tn)``.

    In bodies, literals are the only *binding* items: Definition 11's
    range-restriction counts occurrences in body literals exclusively.
    """

    __slots__ = ("predicate", "args", "span")

    def __init__(self, predicate: str, args: Iterable[Term]):
        if not _IDENT_RE.match(predicate or "") or predicate[0].isupper():
            raise QueryError(
                f"predicate name must be a lowercase identifier, got {predicate!r}"
            )
        self.predicate = predicate
        self.args: Tuple[Term, ...] = tuple(check_term(a) for a in args)
        if not self.args:
            raise QueryError(f"literal {predicate!r} needs at least one argument")
        self.span: Optional[SourceSpan] = None

    @property
    def arity(self) -> int:
        return len(self.args)

    def variables(self) -> FrozenSet[Variable]:
        out: Set[Variable] = set()
        for arg in self.args:
            out |= term_variables(arg)
        return frozenset(out)

    def has_concat(self) -> bool:
        return any(isinstance(a, ConcatTerm) for a in self.args)

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, Literal) and self.predicate == other.predicate
                and self.args == other.args)

    def __hash__(self) -> int:
        return hash(("Literal", self.predicate, self.args))

    def __repr__(self) -> str:
        inner = ", ".join(map(repr, self.args))
        return f"{self.predicate}({inner})"


class NegatedLiteral(BodyItem):
    """A negated predicate atom ``not p(t1, ..., tn)``.

    vidb extends the paper's positive language with *stratified* negation:
    a negated literal filters (never binds), its variables must be bound
    by positive body literals, and the program's predicate dependency
    graph must have no negative edge inside a recursive component
    (checked by :func:`vidb.query.safety.stratify_with_negation`).
    """

    __slots__ = ("literal", "span")

    def __init__(self, literal: Literal):
        if not isinstance(literal, Literal):
            raise QueryError(f"negation applies to literals, got {literal!r}")
        if literal.has_concat():
            raise QueryError("constructive terms cannot appear under negation")
        self.literal = literal
        self.span: Optional[SourceSpan] = None

    @property
    def predicate(self) -> str:
        return self.literal.predicate

    def variables(self) -> FrozenSet[Variable]:
        return self.literal.variables()

    def __eq__(self, other: object) -> bool:
        return isinstance(other, NegatedLiteral) and self.literal == other.literal

    def __hash__(self) -> int:
        return hash(("NegatedLiteral", self.literal))

    def __repr__(self) -> str:
        return f"not {self.literal!r}"


class MembershipAtom(BodyItem):
    """``element in collection`` where collection is an attribute path."""

    __slots__ = ("element", "collection", "span")

    def __init__(self, element: Term, collection: AttrPath):
        self.element = check_term(element)
        if isinstance(element, ConcatTerm):
            raise QueryError("concatenation terms cannot appear in constraints")
        if not isinstance(collection, AttrPath):
            raise QueryError(f"membership needs an attribute path, got {collection!r}")
        self.collection = collection
        self.span: Optional[SourceSpan] = None

    def variables(self) -> FrozenSet[Variable]:
        return term_variables(self.element) | self.collection.variables()

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, MembershipAtom) and self.element == other.element
                and self.collection == other.collection)

    def __hash__(self) -> int:
        return hash(("MembershipAtom", self.element, self.collection))

    def __repr__(self) -> str:
        return f"{self.element!r} in {self.collection!r}"


class SubsetAtom(BodyItem):
    """``{t1, ..., tk} subset path`` or ``path subset path``."""

    __slots__ = ("subset", "superset", "span")

    def __init__(self, subset: Union[Tuple[Term, ...], AttrPath],
                 superset: AttrPath):
        if isinstance(subset, AttrPath):
            self.subset: Union[Tuple[Term, ...], AttrPath] = subset
        else:
            self.subset = tuple(check_term(t) for t in subset)
            for term in self.subset:
                if isinstance(term, ConcatTerm):
                    raise QueryError("concatenation terms cannot appear in constraints")
        if not isinstance(superset, AttrPath):
            raise QueryError(f"subset needs an attribute path on the right, got {superset!r}")
        self.superset = superset
        self.span: Optional[SourceSpan] = None

    def variables(self) -> FrozenSet[Variable]:
        out: Set[Variable] = set(self.superset.variables())
        if isinstance(self.subset, AttrPath):
            out |= self.subset.variables()
        else:
            for term in self.subset:
                out |= term_variables(term)
        return frozenset(out)

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, SubsetAtom) and self.subset == other.subset
                and self.superset == other.superset)

    def __hash__(self) -> int:
        return hash(("SubsetAtom", self.subset, self.superset))

    def __repr__(self) -> str:
        if isinstance(self.subset, AttrPath):
            left = repr(self.subset)
        else:
            left = "{" + ", ".join(map(repr, self.subset)) + "}"
        return f"{left} subset {self.superset!r}"


class ComparisonAtom(BodyItem):
    """An inequality atom (Definition 9): ``O.A θ c`` or ``O.A θ O'.A'``.

    Either side may also be a plain term, so ``X < 3`` and ``X = Y`` are
    admitted; the range-restriction check still requires the variables to
    be bound by body literals.
    """

    __slots__ = ("left", "op", "right", "span")

    _OPS = ("=", "!=", "<", "<=", ">", ">=")

    def __init__(self, left: Union[AttrPath, Term], op: str,
                 right: Union[AttrPath, Term]):
        if op not in self._OPS:
            raise QueryError(f"unknown comparison operator {op!r}")
        for side in (left, right):
            if isinstance(side, ConcatTerm):
                raise QueryError("concatenation terms cannot appear in constraints")
        self.left = left if isinstance(left, AttrPath) else check_term(left)
        self.op = op
        self.right = right if isinstance(right, AttrPath) else check_term(right)
        self.span: Optional[SourceSpan] = None

    def variables(self) -> FrozenSet[Variable]:
        out: Set[Variable] = set()
        for side in (self.left, self.right):
            if isinstance(side, AttrPath):
                out |= side.variables()
            else:
                out |= term_variables(side)
        return frozenset(out)

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, ComparisonAtom) and self.left == other.left
                and self.op == other.op and self.right == other.right)

    def __hash__(self) -> int:
        return hash(("ComparisonAtom", self.left, self.op, self.right))

    def __repr__(self) -> str:
        return f"{self.left!r} {self.op} {self.right!r}"


class EntailmentAtom(BodyItem):
    """A constraint-entailment atom ``lhs => rhs``.

    Each side is an attribute path whose value must be a dense-order
    constraint, or an inline constraint expression.  Uppercase variable
    names inside an inline expression refer to rule variables and are
    substituted with their bound values before the entailment check.
    """

    __slots__ = ("left", "right", "span")

    def __init__(self, left: Union[AttrPath, Constraint],
                 right: Union[AttrPath, Constraint]):
        for side in (left, right):
            if not isinstance(side, (AttrPath, Constraint)):
                raise QueryError(
                    f"entailment side must be an attribute path or constraint, "
                    f"got {side!r}"
                )
        self.left = left
        self.right = right
        self.span: Optional[SourceSpan] = None

    def variables(self) -> FrozenSet[Variable]:
        out: Set[Variable] = set()
        for side in (self.left, self.right):
            if isinstance(side, AttrPath):
                out |= side.variables()
            else:
                # Uppercase constraint variables are rule variables.
                for var in side.variables():
                    if var.name[0].isupper():
                        out.add(Variable(var.name))
        return frozenset(out)

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, EntailmentAtom) and self.left == other.left
                and self.right == other.right)

    def __hash__(self) -> int:
        return hash(("EntailmentAtom", self.left, self.right))

    def __repr__(self) -> str:
        return f"{self.left!r} => {self.right!r}"


#: Constraint atoms are every body item except literals.
ConstraintAtom = (MembershipAtom, SubsetAtom, ComparisonAtom, EntailmentAtom)


class Rule:
    """``head :- body`` (Definition 10), optionally named."""

    __slots__ = ("head", "body", "name", "span")

    def __init__(self, head: Literal, body: Sequence[BodyItem] = (),
                 name: Optional[str] = None):
        if not isinstance(head, Literal):
            raise QueryError(f"rule head must be a literal, got {head!r}")
        self.head = head
        self.body: Tuple[BodyItem, ...] = tuple(body)
        for item in self.body:
            if not isinstance(item, BodyItem):
                raise QueryError(f"invalid body item {item!r}")
            if isinstance(item, Literal) and item.has_concat():
                raise QueryError(
                    "constructive terms may appear only in rule heads "
                    f"(offending literal: {item!r})"
                )
        self.name = name
        self.span: Optional[SourceSpan] = None

    @property
    def is_fact(self) -> bool:
        return not self.body

    @property
    def is_constructive(self) -> bool:
        return self.head.has_concat()

    def literals(self) -> Tuple[Literal, ...]:
        """The positive body literals (the only binding items)."""
        return tuple(i for i in self.body if isinstance(i, Literal))

    def negated_literals(self) -> Tuple["NegatedLiteral", ...]:
        return tuple(i for i in self.body if isinstance(i, NegatedLiteral))

    def constraints(self) -> Tuple[BodyItem, ...]:
        """Filter items: constraint atoms and negated literals."""
        return tuple(i for i in self.body if not isinstance(i, Literal))

    def variables(self) -> FrozenSet[Variable]:
        out: Set[Variable] = set(self.head.variables())
        for item in self.body:
            out |= item.variables()
        return frozenset(out)

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, Rule) and self.head == other.head
                and self.body == other.body)

    def __hash__(self) -> int:
        return hash(("Rule", self.head, self.body))

    def __repr__(self) -> str:
        prefix = f"{self.name}: " if self.name else ""
        if not self.body:
            return f"{prefix}{self.head!r}."
        inner = ", ".join(map(repr, self.body))
        return f"{prefix}{self.head!r} :- {inner}."


class Program:
    """A collection of range-restricted rules (Definition 12)."""

    __slots__ = ("rules",)

    def __init__(self, rules: Iterable[Rule] = ()):
        self.rules: Tuple[Rule, ...] = tuple(rules)
        for rule in self.rules:
            if not isinstance(rule, Rule):
                raise QueryError(f"not a rule: {rule!r}")

    def idb_predicates(self) -> FrozenSet[str]:
        """Predicates defined by some rule head."""
        return frozenset(r.head.predicate for r in self.rules)

    def rules_for(self, predicate: str) -> Tuple[Rule, ...]:
        return tuple(r for r in self.rules if r.head.predicate == predicate)

    def extend(self, other: Union["Program", Iterable[Rule]]) -> "Program":
        extra = other.rules if isinstance(other, Program) else tuple(other)
        return Program(self.rules + tuple(extra))

    def __iter__(self):
        return iter(self.rules)

    def __len__(self) -> int:
        return len(self.rules)

    def __repr__(self) -> str:
        return "\n".join(map(repr, self.rules))


class Query:
    """``?- body.`` — a conjunctive query over the program + database.

    The answer variables are the variables of the body in order of first
    occurrence (or an explicit projection, when given).
    """

    __slots__ = ("body", "answer_variables", "span")

    def __init__(self, body: Sequence[BodyItem],
                 answer_variables: Optional[Sequence[Variable]] = None):
        if not body:
            raise QueryError("query body cannot be empty")
        self.body: Tuple[BodyItem, ...] = tuple(body)
        for item in self.body:
            if isinstance(item, Literal) and item.has_concat():
                raise QueryError("constructive terms cannot appear in queries")
        if answer_variables is None:
            seen: List[Variable] = []
            for item in self.body:
                if isinstance(item, Literal):
                    for arg in item.args:
                        if isinstance(arg, Variable) and arg not in seen:
                            seen.append(arg)
            answer_variables = seen
        self.answer_variables: Tuple[Variable, ...] = tuple(answer_variables)
        self.span: Optional[SourceSpan] = None

    def __repr__(self) -> str:
        inner = ", ".join(map(repr, self.body))
        return f"?- {inner}."
