"""Unit tests for the AST-to-text renderer."""

import pytest

from vidb.constraints.dense import FALSE, TRUE
from vidb.constraints.terms import Var
from vidb.errors import QueryError
from vidb.model.oid import Oid
from vidb.query.ast import (
    AttrPath,
    ConcatTerm,
    EntailmentAtom,
    Literal,
    Rule,
    Symbol,
    Variable,
)
from vidb.query.parser import parse_program, parse_query, parse_rule
from vidb.query.render import (
    program_fingerprint,
    render_body_item,
    render_constraint,
    render_program,
    render_query,
    render_rule,
    render_term,
)


class TestTerms:
    def test_variable_and_symbol(self):
        assert render_term(Variable("X")) == "X"
        assert render_term(Symbol("gi1")) == "gi1"

    def test_string_escaping(self):
        assert render_term('say "hi"') == '"say \\"hi\\""'
        assert render_term("back\\slash") == '"back\\\\slash"'

    def test_numbers(self):
        assert render_term(5) == "5"
        assert render_term(-3) == "-3"
        from fractions import Fraction

        assert render_term(Fraction(5, 2)) == "2.5"
        assert render_term(Fraction(4, 1)) == "4"

    def test_atomic_oid_renders_as_symbol(self):
        assert render_term(Oid.entity("o1")) == "o1"

    def test_composite_oid_rejected(self):
        composite = Oid.concat(Oid.interval("a"), Oid.interval("b"))
        with pytest.raises(QueryError):
            render_term(composite)

    def test_concat_term(self):
        term = ConcatTerm(Variable("G1"), Variable("G2"))
        assert render_term(term) == "G1 ++ G2"


class TestConstraints:
    def test_truth_values_have_encodings(self):
        assert "0 = 0" in render_constraint(TRUE)
        assert "0 != 0" in render_constraint(FALSE)

    def test_precedence_preserved(self):
        t = Var("t")
        c = ((t < 1) | (t > 5)) & (t < 9)
        text = render_constraint(c)
        from vidb.query.parser import parse_constraint

        assert parse_constraint(text).dnf() == c.dnf()


class TestStatements:
    def test_fact(self):
        assert render_rule(parse_rule("p(a, 3).")) == "p(a, 3)."

    def test_named_rule_keeps_name(self):
        rule = parse_rule("r1: q(X) :- p(X).")
        assert render_rule(rule).startswith("r1: ")
        assert parse_rule(render_rule(rule)).name == "r1"

    def test_negation_rendered(self):
        rule = parse_rule("q(X) :- p(X), not r(X).")
        assert "not r(X)" in render_rule(rule)

    def test_entailment_between_paths(self):
        rule = parse_rule(
            "contains(G1, G2) :- interval(G1), interval(G2), "
            "G2.duration => G1.duration.")
        assert "G2.duration => G1.duration" in render_rule(rule)

    def test_program_one_rule_per_line(self):
        program = parse_program("a(x).\nb(y).\n")
        assert render_program(program).count("\n") == 1

    def test_query_prefix(self):
        query = parse_query("?- object(O).")
        assert render_query(query) == "?- object(O)."

    def test_render_accepts_manual_ast(self):
        t = Var("t")
        rule = Rule(
            Literal("q", [Variable("G")]),
            [Literal("interval", [Variable("G")]),
             EntailmentAtom(AttrPath(Variable("G"), "duration"),
                            (t > 0) & (t < 9))],
        )
        assert parse_rule(render_rule(rule)) == rule


class TestProgramFingerprint:
    def test_order_insensitive(self):
        a = parse_program("p(X) :- object(X).\nq(X) :- interval(X).")
        b = parse_program("q(X) :- interval(X).\np(X) :- object(X).")
        assert program_fingerprint(a) == program_fingerprint(b)

    def test_sees_rule_changes(self):
        a = parse_program("p(X) :- object(X).")
        b = parse_program("p(X) :- interval(X).")
        assert program_fingerprint(a) != program_fingerprint(b)

    def test_empty_program(self):
        assert isinstance(program_fingerprint(parse_program("")), str)
