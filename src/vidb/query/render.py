"""Rendering ASTs back to concrete syntax (the unparser).

``parse_program(render_program(p))`` reconstructs ``p`` exactly — the
round-trip property the test suite checks — which makes rules storable,
diffable and printable: the engine can persist its program next to a
database snapshot, and tools can show users the rules they loaded.
"""

from __future__ import annotations

from fractions import Fraction
from hashlib import sha256
from typing import Union

from vidb.constraints.dense import And, Comparison, Constraint, Or, _Truth
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
    Program,
    Query,
    Rule,
    SubsetAtom,
    Symbol,
    Term,
    Variable,
)


def render_term(term: Term) -> str:
    if isinstance(term, Variable):
        return term.name
    if isinstance(term, Symbol):
        return term.name
    if isinstance(term, ConcatTerm):
        return f"{render_term(term.left)} ++ {render_term(term.right)}"
    if isinstance(term, Oid):
        # Oid constants render as their (atomic) name — they re-parse as
        # symbols and resolve back to the same oid against the database.
        if term.is_composite:
            raise QueryError(
                f"composite oid {term} has no concrete syntax; refer to it "
                "via the symbols of its parts"
            )
        return term.name
    if isinstance(term, str):
        escaped = term.replace("\\", "\\\\").replace('"', '\\"')
        return f'"{escaped}"'
    if isinstance(term, Fraction):
        if term.denominator == 1:
            return str(term.numerator)
        return str(float(term))
    return str(term)


def render_path(path: AttrPath) -> str:
    return f"{render_term(path.subject)}.{path.attr}"


def _render_operand(side: Union[AttrPath, Term]) -> str:
    if isinstance(side, AttrPath):
        return render_path(side)
    return render_term(side)


def render_constraint(constraint: Constraint) -> str:
    """A parenthesised inline constraint expression."""
    return "(" + _render_constraint_inner(constraint, top=True) + ")"


def _render_constraint_inner(constraint: Constraint, top: bool = False) -> str:
    if isinstance(constraint, Comparison):
        left = (constraint.left.name if isinstance(constraint.left, Var)
                else render_term(constraint.left))
        right = (constraint.right.name if isinstance(constraint.right, Var)
                 else render_term(constraint.right))
        return f"{left} {constraint.op} {right}"
    if isinstance(constraint, And):
        inner = " and ".join(
            _render_constraint_inner(p) if not isinstance(p, Or)
            else "(" + _render_constraint_inner(p) + ")"
            for p in constraint.parts)
        return inner
    if isinstance(constraint, Or):
        return " or ".join(_render_constraint_inner(p)
                           for p in constraint.parts)
    if isinstance(constraint, _Truth):
        # TRUE/FALSE have no literal syntax; encode as tautology/absurdity.
        return "0 = 0" if constraint.is_true() else "0 != 0"
    raise QueryError(f"cannot render constraint {constraint!r}")


def render_body_item(item: BodyItem) -> str:
    if isinstance(item, Literal):
        inner = ", ".join(render_term(a) for a in item.args)
        return f"{item.predicate}({inner})"
    if isinstance(item, NegatedLiteral):
        return "not " + render_body_item(item.literal)
    if isinstance(item, MembershipAtom):
        return f"{render_term(item.element)} in {render_path(item.collection)}"
    if isinstance(item, SubsetAtom):
        if isinstance(item.subset, AttrPath):
            left = render_path(item.subset)
        else:
            left = "{" + ", ".join(render_term(t) for t in item.subset) + "}"
        return f"{left} subset {render_path(item.superset)}"
    if isinstance(item, ComparisonAtom):
        return (f"{_render_operand(item.left)} {item.op} "
                f"{_render_operand(item.right)}")
    if isinstance(item, EntailmentAtom):
        left = (render_path(item.left) if isinstance(item.left, AttrPath)
                else render_constraint(item.left))
        right = (render_path(item.right) if isinstance(item.right, AttrPath)
                 else render_constraint(item.right))
        return f"{left} => {right}"
    raise QueryError(f"cannot render body item {item!r}")


def render_rule(rule: Rule) -> str:
    head = render_body_item(rule.head)
    prefix = f"{rule.name}: " if rule.name else ""
    if rule.is_fact:
        return f"{prefix}{head}."
    body = ", ".join(render_body_item(item) for item in rule.body)
    return f"{prefix}{head} :- {body}."


def render_program(program: Program) -> str:
    return "\n".join(render_rule(rule) for rule in program)


def render_query(query: Query) -> str:
    body = ", ".join(render_body_item(item) for item in query.body)
    return f"?- {body}."


def program_fingerprint(program: Program) -> str:
    """A stable hex digest of a program's canonical rendering.

    Rule order matters semantically for provenance but not for the
    computed relations; we hash the sorted rendering so two engines
    with the same rules in different order share analysis cache entries.
    """
    rendered = sorted(render_rule(rule) for rule in program)
    return sha256("\n".join(rendered).encode("utf-8")).hexdigest()
