"""Tests for the expression language and the command-line front end."""

import ast
import decimal
import json
import operator
import os
import random
import shlex
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import random_cpoly, random_ncpoly, two_copies_of_b
from sclim import cli, exprs, pbw
from sclim.cli import main
from sclim.errors import BudgetExceeded, ParseError
from sclim.exprs import parse_cpoly, parse_expression, parse_scalar
from sclim.pbw import (B, B_q, PBWPresentation, SwapRule, Usl2, casimir,
                       multiply, presentation_to_json)
from sclim.arith import Scalar
from sclim.poisson import CPoly


class TestParsing:
    def test_quadratic_central_element(self):
        bq = B_q()
        parsed = parse_expression("4*e*f + h^2 - 2*(q-1)*h", bq)
        assert parsed == casimir(bq)

    def test_products_normalize(self):
        b = B()
        assert parse_expression("f*e", b) == multiply(b.generator(1),
                                                      b.generator(0))

    def test_zero_power(self):
        assert parse_expression("e^0", B()) == B().one()

    def test_rational_literals(self):
        assert parse_expression("3/4*e", B()) == B().generator(0).scale(
            Scalar.of("3/4", "t"))

    def test_division_by_scalar_expression(self):
        bq = B_q()
        parsed = parse_expression("e/(q-1)", bq)
        assert parsed == bq.generator(0).scale(
            (Scalar.variable("q") - 1).inverse())

    def test_division_by_generator_rejected(self):
        with pytest.raises(ParseError):
            parse_expression("e/f", B())

    def test_error_position(self):
        with pytest.raises(ParseError) as excinfo:
            parse_expression("e + $", B())
        assert excinfo.value.position == 4

    @pytest.mark.parametrize("text", ["e^\u00b2", "e^\u0663"])
    def test_non_ascii_digits_rejected(self, text):
        # Superscript two and Arabic-Indic three pass str.isdigit.
        for parse in (lambda: parse_expression(text, B()),
                      lambda: parse_cpoly(text, ("e", "f", "h")),
                      lambda: parse_scalar(text.replace("e", "t"), "t")):
            with pytest.raises(ParseError) as excinfo:
                parse()
            assert excinfo.value.position == 2

    def test_unknown_symbol(self):
        with pytest.raises(ParseError):
            parse_expression("e + x", B())
        with pytest.raises(ParseError):
            parse_cpoly("q*e", ("e", "f", "h"))

    def test_scalar_parsing(self):
        assert parse_scalar("-2*(t-1)", "t") == -2 * (Scalar.variable("t") - 1)
        assert parse_scalar("1/(q-1)", "q") == \
            (Scalar.variable("q") - 1).inverse()
        with pytest.raises(ParseError, match=r"^division by zero \(at position 5\)$"):
            parse_scalar("(t+1)/(t-t)", "t")


def reference_tokenize(text):
    """`exprs._tokenize` as it was before it tested operators first."""
    tokens, k = [], 0
    while k < len(text):
        ch = text[k]
        if ch.isspace():
            k += 1
            continue
        if ch in "+-*/^()":
            tokens.append((ch, ch, k))
            k += 1
            continue
        if ch in "0123456789":
            start = k
            while k < len(text) and text[k] in "0123456789":
                k += 1
            tokens.append(("int", text[start:k], start))
            continue
        if ch.isalpha() or ch == "_":
            start = k
            while k < len(text) and (text[k].isalnum() or text[k] == "_"):
                k += 1
            tokens.append(("name", text[start:k], start))
            continue
        raise ParseError(f"unexpected character {ch!r}", k)
    end = tokens[-1][2] + len(tokens[-1][1]) if tokens else 0
    tokens.append(("end", "", end))
    return tokens


def tokenize_outcome(tokenize, text):
    try:
        return tokenize(text)
    except ParseError as exc:
        return str(exc), exc.position


class TestTokenizer:
    # Characters where the classes differ: Unicode spaces and separators,
    # non-ASCII digits and numerals, letters of other scripts, marks.
    tricky = st.sampled_from(
        list(" \t\n\r\x0b\x0c\x1c\x1f\x85\xa0\u2003\u3000\u200b_09+-*/^().$")
        + list("\u00b2\u0663\u00bd\u2167\u00e9\u0301\u03b1\u4e00\U0001d7d8"))

    @settings(max_examples=400, derandomize=True, database=None, deadline=None)
    @given(text=st.one_of(st.text(), st.text(tricky), st.text(st.one_of(tricky, st.characters()))))
    def test_matches_the_reference(self, text):
        assert (tokenize_outcome(exprs._tokenize, text)
                == tokenize_outcome(reference_tokenize, text))

    @pytest.mark.parametrize("text", ["x\u00b2", "\u00b2", "3\u0663", "e + 2e",
                                      " _a1 \u3000( ", "a\u0301b", "\u2167", "12ab"])
    def test_edge_cases_match_the_reference(self, text):
        assert (tokenize_outcome(exprs._tokenize, text)
                == tokenize_outcome(reference_tokenize, text))


class TestRoundTrip:
    def test_ncpoly_print_parse(self):
        rng = random.Random(601)
        for p in (B(), B_q()):
            for _ in range(50):
                z = random_ncpoly(rng, p, max_degree=3, coeff_degree=2)
                assert parse_expression(str(z), p) == z

    def test_ncpoly_with_rational_function_coefficients(self):
        bq = B_q()
        inv = (Scalar.variable("q") - 1).inverse()
        z = bq.generator(0).scale(inv) + bq.monomial((0, 1, 2), inv * inv)
        assert parse_expression(str(z), bq) == z

    def test_cpoly_print_parse(self):
        rng = random.Random(602)
        for _ in range(50):
            p = random_cpoly(rng, max_degree=3)
            assert parse_cpoly(str(p), ("e", "f", "h")) == p

    def test_zero_prints_and_parses(self):
        assert str(B().zero()) == "0"
        assert parse_expression("0", B()).is_zero()


# The oracle for the parser lifts every literal and the parameter into the
# ring first, and divides by a constant ring element by scaling with its
# inverse.  Trees print with only the parentheses that precedence and
# left-associativity need, and each '/' knows its position in the text.

PARSER_RINGS = {"B": B, "B_q": B_q, "Usl2": Usl2,
                "B_lambda(3/2)": lambda: pbw.B_lambda(Fraction(3, 2)), "CPoly": None,
                "Scalar": None}


def _ring(name):
    """(atom names -> ring elements, literal -> ring element, parse function)."""
    if name == "CPoly":
        variables = ("e", "f", "h")
        atoms = {v: CPoly.variable(v, variables) for v in variables}
        return atoms, lambda n: CPoly.const(n, variables), \
            lambda text: parse_cpoly(text, variables)
    if name == "Scalar":
        return {"t": Scalar.variable("t")}, lambda n: Scalar.of(n, "t"), \
            lambda text: parse_scalar(text, "t")
    p = PARSER_RINGS[name]()
    atoms = {g: p.gen(g) for g in p.generators}
    if p.parameter is not None:
        atoms[p.parameter] = p.scalar(p.parameter_scalar())
    return atoms, p.scalar, lambda text: parse_expression(text, p)


def _expression_trees(names):
    leaves = st.one_of(st.integers(0, 4).map(lambda n: ("int", n)),
                       st.sampled_from(names).map(lambda n: ("name", n)))

    def extend(children):
        return st.one_of(st.tuples(st.sampled_from("+-*/"), children, children),
                         st.tuples(st.just("neg"), children),
                         st.tuples(st.just("^"), children, st.integers(0, 2)))

    return st.recursive(leaves, extend, max_leaves=8)


# How tightly each node binds: a child binding looser than its slot needs
# parentheses.  A right operand needs them at its operator's own level too,
# since every binary operator associates to the left.
_BINDING = {"+": 1, "-": 1, "*": 2, "/": 2, "neg": 3, "^": 4, "int": 5, "name": 5}


def _child(tree, floor: int, start: int):
    """(text, start of the child's own text) of a child printed at `start`."""
    if _BINDING[tree[0]] >= floor:
        return _text(tree), start
    return f"({_text(tree)})", start + 1


def _text(tree) -> str:
    """The text of a tree, with only the parentheses it needs."""
    kind = tree[0]
    if kind in ("int", "name"):
        return str(tree[1])
    if kind == "neg":
        return "-" + _child(tree[1], 3, 0)[0]
    if kind == "^":
        return f"{_child(tree[1], 5, 0)[0]}^{tree[2]}"
    level = _BINDING[kind]
    return _child(tree[1], level, 0)[0] + kind + _child(tree[2], level + 1, 0)[0]


def _lifted(tree, atoms, lift, start=0):
    """Value of a tree printed at `start`; a bad division raises ParseError at its '/'."""
    kind = tree[0]
    if kind == "int":
        return lift(tree[1])
    if kind == "name":
        return atoms[tree[1]]
    if kind == "neg":
        return -_lifted(tree[1], atoms, lift, _child(tree[1], 3, start + 1)[1])
    if kind == "^":
        return _lifted(tree[1], atoms, lift, _child(tree[1], 5, start)[1]) ** tree[2]
    level = _BINDING[kind]
    left, left_start = _child(tree[1], level, start)
    a = _lifted(tree[1], atoms, lift, left_start)
    pos = start + len(left)
    b = _lifted(tree[2], atoms, lift, _child(tree[2], level + 1, pos + 1)[1])
    if kind != "/":
        return {"+": operator.add, "-": operator.sub, "*": operator.mul}[kind](a, b)
    if isinstance(b, Scalar):
        if not b:
            raise ParseError("division by zero", pos)
        return a / b
    if b.degree() > 0:
        raise ParseError("can only divide by a constant", pos)
    if b.is_zero():
        raise ParseError("division by zero", pos)
    (c,) = b.terms.values()
    return a.scale(1 / c)


def _precedence_cases():
    """(tree over names a, b, c, its text) pairs."""
    a, b, c = (("name", x) for x in "abc")
    return [
        (("-", ("-", a, b), c), "a-b-c"),
        (("-", a, ("-", b, c)), "a-(b-c)"),
        (("/", ("/", a, ("int", 2)), ("int", 3)), "a/2/3"),
        (("/", a, ("/", ("int", 2), ("int", 3))), "a/(2/3)"),
        (("neg", ("^", a, 2)), "-a^2"),
        (("^", ("neg", a), 2), "(-a)^2"),
        (("*", ("int", 2), ("neg", a)), "2*-a"),
        (("+", a, ("*", b, c)), "a+b*c"),
        (("*", ("+", a, b), c), "(a+b)*c"),
        (("-", ("neg", a), ("neg", ("int", 3))), "-a--3"),
        (("neg", ("*", a, b)), "-(a*b)"),
    ]


PRECEDENCE_CASES = _precedence_cases()


def _renamed(tree, names):
    """The tree with each name leaf renamed through `names`."""
    if tree[0] == "name":
        return ("name", names[tree[1]])
    return (tree[0], *(_renamed(x, names) if isinstance(x, tuple) else x for x in tree[1:]))


class TestParserOracle:
    @pytest.mark.parametrize("name", sorted(PARSER_RINGS))
    @settings(max_examples=60, derandomize=True, database=None, deadline=None)
    @given(data=st.data())
    def test_literals_as_coefficients_match_lifting_them_first(self, name, data):
        atoms, lift, parse = _ring(name)
        tree = data.draw(_expression_trees(sorted(atoms)))
        text = _text(tree)
        try:
            expected = _lifted(tree, atoms, lift)
        except ParseError as exc:
            expected = (str(exc), exc.position)
        try:
            got = parse(text)
        except ParseError as exc:
            got = (str(exc), exc.position)
        assert got == expected, text
        if not isinstance(got, tuple):
            assert str(got) == str(expected)

    @pytest.mark.parametrize("tree, text", PRECEDENCE_CASES)
    def test_printer_writes_only_needed_parentheses(self, tree, text):
        assert _text(tree) == text

    @pytest.mark.parametrize("name", sorted(PARSER_RINGS))
    def test_precedence_and_left_associativity(self, name):
        atoms, lift, parse = _ring(name)
        names = sorted(atoms)
        placeholders = {x: names[k % len(names)] for k, x in enumerate("abc")}
        for tree, _ in PRECEDENCE_CASES:
            tree = _renamed(tree, placeholders)
            assert parse(_text(tree)) == _lifted(tree, atoms, lift), _text(tree)

    @pytest.mark.parametrize("text, message, position", [
        ("e/(t-t)", "division by zero", 1),
        ("e/f", "can only divide by a constant", 1),
        ("3/0", "division by zero", 1),
        ("(2)/(t-t)", "division by zero", 3),
        ("e/(e-e)", "division by zero", 1),
        ("e/(e-e+f)", "can only divide by a constant", 1),
    ])
    def test_division_errors(self, text, message, position):
        with pytest.raises(ParseError) as excinfo:
            parse_expression(text, B())
        assert excinfo.value.position == position
        assert str(excinfo.value) == f"{message} (at position {position})"

    @pytest.mark.parametrize("text, message, position", [
        ("", "unexpected end of expression", 0),
        ("e+", "unexpected end of expression", 2),
        ("e +  ", "unexpected end of expression", 3),
        ("(", "unexpected end of expression", 1),
        ("(e", "unexpected end of expression", 2),
        ("e^", "unexpected end of expression", 2),
        ("e)", "unexpected trailing ')'", 1),
        ("e^2^3", "unexpected trailing '^'", 3),
        ("(e f", "expected ')'", 3),
        ("e^f", "expected int, found 'f'", 2),
        (")", "unexpected ')'", 0),
        ("e + $", "unexpected character '$'", 4),
    ])
    @pytest.mark.parametrize("target", ["NCPoly", "CPoly", "Scalar"])
    def test_syntax_errors(self, target, text, message, position):
        parse = {"NCPoly": lambda s: parse_expression(s, B()),
                 "CPoly": lambda s: parse_cpoly(s, ("e", "f", "h")),
                 "Scalar": lambda s: parse_scalar(s, "e")}[target]
        with pytest.raises(ParseError) as excinfo:
            parse(text)
        assert excinfo.value.position == position
        assert str(excinfo.value) == f"{message} (at position {position})"


class TestCommands:
    def test_nf(self, capsys):
        assert main(["nf", "--algebra", "B", "f*e"]) == 0
        out = capsys.readouterr().out.strip()
        assert parse_expression(out, B()) == multiply(B().generator(1),
                                                      B().generator(0))

    def test_comm(self, capsys):
        assert main(["comm", "--algebra", "B_q", "e", "f"]) == 0
        out = capsys.readouterr().out.strip()
        qm1 = Scalar.variable("q") - 1
        assert parse_expression(out, B_q()) == B_q().generator(2).scale(qm1)

    def test_bracket(self, capsys):
        assert main(["bracket", "e", "f"]) == 0
        assert capsys.readouterr().out.strip() == "h"

    @pytest.mark.parametrize("argv, answer", [
        (["nf", "-e"], "-e"),
        (["nf", "--algebra", "B_q", "-3/2*e"], "-3/2*e"),
        (["nf", "-e", "--algebra", "B_q"], "-e"),
        (["nf", "--", "-e"], "-e"),
        (["comm", "-3/2*e", "f"], "(-3/2*t+3/2)*h"),
        (["comm", "--algebra", "B_q", "-e", "-f"], "(q-1)*h"),
        (["bracket", "-e", "f"], "-h"),
        (["bracket", "e", "-2*f"], "-2*h"),
        (["member", "--ideal", "-e^2", "--poly", "-e^3"], "member"),
    ])
    def test_expression_with_a_leading_minus(self, capsys, argv, answer):
        # A value that starts with one '-' and names no option is read as
        # an expression, before or after the options.
        assert main(argv) == 0
        assert capsys.readouterr().out.strip() == answer

    def test_help_still_wins_over_a_leading_minus(self, capsys):
        assert main(["nf", "-h"]) == 0
        assert "usage: sclim nf" in capsys.readouterr().out

    def test_unknown_long_option_exits_two(self, capsys):
        assert main(["nf", "--no-such-option", "e"]) == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_member_not_a_member(self, capsys):
        code = main(["member",
                     "--ideal", "e^2, e*f, e*h, f^2, f*h, h^2",
                     "--poly", "e"])
        assert code == 0
        assert "not a member" in capsys.readouterr().out

    def test_member_positive(self, capsys):
        code = main(["member", "--ideal", "e^2, 4*e*f+h^2", "--poly", "e^2"])
        assert code == 0
        assert capsys.readouterr().out.strip() == "member"

    def test_closure(self, capsys):
        assert main(["closure", "--ideal", "e^2, 4*e*f+h^2"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["vars"] == ["e", "f", "h"]
        assert sorted(data["closure_basis"]) == sorted(
            ["e^2", "e*f", "e*h", "f^2", "f*h", "h^2"])

    def test_limit(self, capsys):
        assert main(["limit", "--algebra", "B"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["verdict"] == "pass"
        table = json.loads(report["checks"][0]["details"])
        assert table["brackets"] == {"e,f": "h", "e,h": "-2*e", "f,h": "2*f"}

    def test_gk(self, capsys):
        assert main(["gk", "--algebra", "B", "--dmax", "12"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["dimensions"][2] == 10
        assert 2.8 <= data["slope_float"] <= 3.2

    def test_overlaps_pass(self, capsys):
        assert main(["overlaps", "--algebra", "B_q"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["verdict"] == "pass"

    def test_verify_markdown(self, capsys):
        code = main(["verify-paper", "--n-min", "2", "--n-max", "2",
                     "--samples", "3", "--format", "markdown"])
        assert code == 0
        out = capsys.readouterr().out
        assert "| check | status |" in out
        assert "verdict: **pass**" in out


def _strip_timings(record):
    if isinstance(record, dict):
        return {k: _strip_timings(v) for k, v in record.items() if k != "timing"}
    if isinstance(record, list):
        return [_strip_timings(x) for x in record]
    return record


class TestExitCodeCorpus:
    def test_passing_run_exits_zero(self, capsys):
        assert main(["verify-paper", "--n-min", "2", "--n-max", "2",
                     "--samples", "3"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["verdict"] == "pass"
        names = [c["name"] for c in report["checks"]]
        assert len(names) == 6 and all(name.startswith("n=2:") for name in names)

    def test_corrupted_presentation_exits_one(self, tmp_path, capsys):
        data = presentation_to_json(B())
        # Damage the h*e rule: its tail lands on f instead of e.
        data["relations"][1]["rhs"][0]["monomial"] = {"f": 1}
        path = tmp_path / "corrupted.json"
        path.write_text(json.dumps(data))
        assert main(["overlaps", "--file", str(path)]) == 1
        report = json.loads(capsys.readouterr().out)
        assert report["verdict"] == "fail"

    def test_malformed_file_exits_two(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{ this is not json")
        assert main(["overlaps", "--file", str(path)]) == 2

    @pytest.mark.parametrize("field, value", [
        ("parameter", {"value": "2"}),
        ("parameter", "t"),
        ("relations", 5),
        ("monomial", 5),
        ("symbol", "E"),
        ("symbol", 5),
        ("generators", [["e"], "f", "h"]),
    ])
    def test_malformed_presentation_exits_two(self, tmp_path, capsys, field, value):
        # Usl2's coefficients are constants, so a bad symbol is its only fault.
        data = presentation_to_json(Usl2() if field == "symbol" else B())
        if field == "monomial":
            data["relations"][0]["rhs"][0]["monomial"] = value
        elif field == "symbol":
            data["parameter"] = {"symbol": value, "value": None}
        else:
            data[field] = value
        path = tmp_path / "malformed.json"
        path.write_text(json.dumps(data))
        for argv in (["nf", "--file", str(path), data["generators"][-1]],
                     ["overlaps", "--file", str(path)]):
            assert main(argv) == 2
            err = capsys.readouterr().err
            assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("field, message", [
        ("generators", "generators must be a list"),
        ("lhs", "bad relation entry: lhs must be a list"),
        ("exponent", "bad relation entry: exponent True of h must be an integer"),
    ])
    def test_schema_types_exit_two(self, tmp_path, capsys, field, message):
        # Unchecked, "efh" reads as three generators, "fe" as the pair
        # [f, e] and the exponent true as 1, and the file loads.
        data = presentation_to_json(B())
        if field == "generators":
            data["generators"] = "efh"
        elif field == "lhs":
            data["relations"][0]["lhs"] = "fe"
        else:
            data["relations"][0]["rhs"][0]["monomial"] = {"h": True}
        path = tmp_path / "mistyped.json"
        path.write_text(json.dumps(data))
        for argv in (["nf", "--file", str(path), "h"], ["overlaps", "--file", str(path)]):
            assert main(argv) == 2
            assert capsys.readouterr().err == f"error: {message}\n"

    @pytest.mark.parametrize("fault, message", [
        ("algebra", "zero denominator in '1/0'"),
        ("value", "bad parameter entry: zero denominator in '1/0'"),
        ("relation", "division by zero (at position 1)"),
        ("generators", "generator names must be distinct"),
        ("algebra abc", "not a rational number: 'abc'"),
        ("value abc", "bad parameter entry: not a rational number: 'abc'"),
    ])
    def test_zero_denominator_or_repeated_generator_exits_two(
            self, tmp_path, capsys, fault, message):
        # A fault names the entry it damages and, after a space, the literal
        # written there (default "1/0").
        fault, _, literal = fault.partition(" ")
        literal = literal or "1/0"
        data = presentation_to_json(B())
        if fault == "value":
            data["parameter"]["value"] = literal
        elif fault == "relation":
            data["relations"][0]["coeff"] = "1/0"
        elif fault == "generators":
            data["generators"] = ["e", "f", "e"]
        path = tmp_path / "malformed.json"
        path.write_text(json.dumps(data))
        argv = (["nf", "--algebra", f"B_lambda:{literal}", "e"] if fault == "algebra"
                else ["nf", "--file", str(path), "e"])
        assert main(argv) == 2
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_nesting_past_the_recursion_limit_exits_two(self, tmp_path, capsys):
        # Each '(' takes at least one interpreter frame.
        depth = sys.getrecursionlimit()
        data = presentation_to_json(B())
        data["relations"][0]["coeff"] = "(" * depth + "1" + ")" * depth
        path = tmp_path / "deep.json"
        path.write_text(json.dumps(data))
        for argv in (["nf", "--algebra", "B", "(" * depth + "e" + ")" * depth],
                     ["nf", "--file", str(path), "e"]):
            assert main(argv) == 2
            err = capsys.readouterr().err
            assert err.startswith("error: expression nested too deeply (at position ")
            assert err.count("\n") == 1
        assert main(["nf", "--algebra", "B", "(" * 400 + "e" + ")" * 400]) == 0
        assert capsys.readouterr().out == "e\n"

    def test_overlaps_certifies_once(self, tmp_path, capsys, monkeypatch):
        # `overlaps` prints the certificate the presentation was built with.
        calls = []
        original = pbw.check_pbw_overlaps

        def counted(p):
            calls.append(p.name)
            return original(p)

        monkeypatch.setattr(pbw, "check_pbw_overlaps", counted)
        # Count calls made through a name `cli` imports, too.
        monkeypatch.setattr(cli, "check_pbw_overlaps", counted, raising=False)
        path = tmp_path / "b.json"
        path.write_text(json.dumps(presentation_to_json(B())))
        assert main(["overlaps", "--file", str(path)]) == 0
        assert json.loads(capsys.readouterr().out)["verdict"] == "pass"
        assert calls == ["B"]

    def test_bad_expression_exits_two(self):
        assert main(["nf", "--algebra", "B", "e +"]) == 2

    @pytest.mark.parametrize("argv, message", [
        (["nf", "e/f"], "can only divide by a constant"),
        (["nf", "e/(t-t)"], "division by zero"),
        (["member", "--ideal", "e", "--poly", "e/h"], "can only divide by a constant"),
        (["member", "--ideal", "e", "--poly", "e/0"], "division by zero"),
    ])
    def test_division_rule_exits_two(self, capsys, argv, message):
        # One rule for both polynomial rings: divide only by a nonzero constant.
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {message} ") and err.count("\n") == 1

    def test_repeated_variable_exits_two(self, capsys):
        assert main(["member", "--vars", "e,e", "--ideal", "e", "--poly", "e"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_bad_config_exits_two(self):
        assert main(["verify-paper", "--n-min", "1", "--n-max", "2"]) == 2
        assert main(["verify-paper", "--n-min", "2", "--n-max", "2",
                     "--samples", "2"]) == 2

    def test_unknown_algebra_exits_two(self):
        assert main(["nf", "--algebra", "Nope", "e"]) == 2

    def test_usage_error_exits_two(self, capsys):
        assert main(["no-such-command"]) == 2
        capsys.readouterr()

    def test_kernel_cap_exits_two(self, capsys, monkeypatch):
        # z x = x z + z^2 fails validation; installed afterwards, it makes
        # z^2 y depend on itself, which the product table's guard reports.
        one = Scalar.of(1, "t")
        p = PBWPresentation("loop", ("x", "y", "z"), {
            (1, 0): SwapRule(one, {}), (2, 0): SwapRule(one, {}),
            (2, 1): SwapRule(one, {(1, 1, 0): one})})
        p.swap_rules[(2, 0)] = SwapRule(one, {(0, 0, 2): one})
        p._table.clear()
        monkeypatch.setattr(cli, "B", lambda: p)
        assert main(["nf", "z^2*y"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "did not terminate" in err
        assert err.count("\n") == 1 and "Traceback" not in err
        assert issubclass(BudgetExceeded, RuntimeError)

    def test_large_n_runs(self, capsys):
        # The closure of e^50 takes more than 100 bracket passes.
        assert main(["verify-paper", "--n-min", "50", "--n-max", "50",
                     "--samples", "3"]) == 0
        report = json.loads(capsys.readouterr().out)
        details = next(c["details"] for c in report["checks"]
                       if c["name"] == "n=50:poisson_closure")
        basis = ast.literal_eval(details.split("closure basis: ", 1)[1])
        assert len(basis) == 2 * 50 + 2


class TestReportStability:
    def test_json_reports_identical_modulo_timing(self, capsys):
        argv = ["verify-paper", "--n-min", "2", "--n-max", "3", "--samples", "4"]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert main(argv) == 0
        second = capsys.readouterr().out
        a = json.dumps(_strip_timings(json.loads(first)), sort_keys=False)
        b = json.dumps(_strip_timings(json.loads(second)), sort_keys=False)
        assert a == b

    def test_verify_paper_matches_the_golden_report(self, capsys):
        # Every certificate's text and verdict for n = 2..12 at 5 samples, in
        # report order; only `timing` and the package version are left out.
        golden = Path(__file__).resolve().parent / "data" / "verify_paper_n2-12_samples5.json"
        assert main(["verify-paper", "--n-min", "2", "--n-max", "12",
                     "--samples", "5", "--format", "json"]) == 0
        report = _strip_timings(json.loads(capsys.readouterr().out))
        del report["version"]
        expected = json.loads(golden.read_text(encoding="utf-8"))
        assert json.dumps(report, indent=1) == json.dumps(expected, indent=1)

    def test_check_timings_fit_in_wall_time(self, capsys):
        # Each check times itself, so the six timings of one n cannot add up
        # to more than the whole command took.
        started = time.perf_counter()
        assert main(["verify-paper", "--n-min", "3", "--n-max", "3"]) == 0
        wall_ms = (time.perf_counter() - started) * 1000
        report = json.loads(capsys.readouterr().out)
        timings = [check["timing"] for check in report["checks"]]
        assert len(timings) == 6
        assert all(t > 0 for t in timings)
        assert sum(timings) <= wall_ms

    def test_overlap_timings_fit_in_wall_time(self, tmp_path, capsys):
        # Each triple times its own two reductions, so the timings of one
        # report cannot add up to more than the whole command took.  Two
        # commuting copies of B have twenty triples, B only one.
        path = tmp_path / "two_copies.json"
        path.write_text(json.dumps(presentation_to_json(two_copies_of_b())))
        for argv, count in ((["overlaps", "--algebra", "B"], 1),
                            (["overlaps", "--file", str(path)], 20)):
            started = time.perf_counter()
            assert main(argv) == 0
            wall_ms = (time.perf_counter() - started) * 1000
            timings = [check["timing"] for check in
                       json.loads(capsys.readouterr().out)["checks"]]
            assert len(timings) == count
            assert sum(timings) <= wall_ms

    def test_report_schema(self, capsys):
        assert main(["verify-paper", "--n-min", "2", "--n-max", "2",
                     "--samples", "3"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert list(report) == ["version", "config", "checks", "verdict"]
        for check in report["checks"]:
            assert list(check) == ["name", "status", "details", "timing"]


def _fresh_python(*args: str) -> subprocess.CompletedProcess:
    """Run `python *args` in a new interpreter that imports sclim from src."""
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    return subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          env=env, timeout=120)


def _without_timings(out: str):
    try:
        return _strip_timings(json.loads(out))
    except json.JSONDecodeError:
        return out


class TestModuleEntry:
    def test_python_dash_m_runs_the_cli(self):
        done = _fresh_python("-m", "sclim", "nf", "--algebra", "B", "f*e")
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip() == "e*f + (-t+1)*h"

    @pytest.mark.parametrize("expr", ["(2*h)^20000", "2^20000*h^20000"],
                             ids=["power", "literal"])
    def test_prints_and_reads_ints_past_the_digit_limit(self, expr):
        # 2^20000 has 6,021 digits, more than the 4,300 to which Python
        # limits int-text conversion by default.  Decimal digits are built
        # here without that conversion.
        with decimal.localcontext() as context:
            context.prec = 7000
            digits = str(decimal.Decimal(2) ** 20000)
        if expr == "2^20000*h^20000":
            expr = f"{digits}*h^20000"
        done = _fresh_python("-m", "sclim", "nf", "--algebra", "B", expr)
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip() == f"{digits}*h^20000"

    # In-process tests run after every module is imported; a fresh
    # interpreter loads only what the command's handler imports.
    @pytest.mark.parametrize("argv", [
        ["nf", "--algebra", "B", "f*e"],
        ["comm", "--algebra", "B_q", "h", "e"],
        ["bracket", "e", "f"],
        ["limit", "--algebra", "B"],
        ["closure", "--ideal", "e^2"],
        ["member", "--ideal", "e,f", "--poly", "e*f + h"],
        ["gk", "--algebra", "B", "--dmax", "6"],
        ["overlaps", "--algebra", "B"],
        ["verify-paper", "--n-min", "2", "--n-max", "3"],
    ], ids=lambda argv: argv[0])
    def test_each_command_matches_in_process(self, capsys, argv):
        done = _fresh_python("-m", "sclim", *argv)
        code = main(argv)
        assert done.returncode == code, done.stderr
        assert _without_timings(done.stdout) == _without_timings(capsys.readouterr().out)

    def test_cold_import_loads_only_what_it_runs(self):
        # One fresh interpreter runs the commands in turn and records, after
        # each, the sclim modules loaded and whether `dataclasses` or
        # `inspect` has been imported.
        code = "\n".join([
            "import contextlib, io, json, sys",
            "def loaded(): return sorted(m for m in sys.modules if m.startswith('sclim'))",
            "def heavy(): return sorted({'dataclasses', 'inspect'} & set(sys.modules))",
            "steps = []",
            "import sclim",
            "steps.append(['import sclim', loaded(), heavy()])",
            "import sclim.cli",
            "steps.append(['import sclim.cli', loaded(), heavy()])",
            "for argv in json.loads(sys.argv[1]):",
            "    with contextlib.redirect_stdout(io.StringIO()):",
            "        sclim.cli.main(argv)",
            "    steps.append([argv[0], loaded(), heavy()])",
            "print(json.dumps(steps))",
        ])
        commands = [["verify-paper", "--n-min", "2", "--n-max", "2"],
                    ["nf", "--algebra", "B", "f*e"],
                    ["closure", "--ideal", "e^2"],
                    ["member", "--ideal", "e,f", "--poly", "e*f + h"]]
        done = _fresh_python("-c", code, json.dumps(commands))
        assert done.returncode == 0, done.stderr
        steps = json.loads(done.stdout)
        assert [name for name, _, _ in steps] == [
            "import sclim", "import sclim.cli", "verify-paper", "nf", "closure",
            "member"]
        modules = {name: mods for name, mods, _ in steps}
        assert modules["import sclim"] == ["sclim"]
        cli = ["sclim", "sclim.arith", "sclim.cli", "sclim.errors", "sclim.pbw"]
        assert modules["import sclim.cli"] == cli
        verify = sorted(cli + ["sclim.ideals", "sclim.limitmap", "sclim.poisson"])
        assert modules["verify-paper"] == verify
        assert modules["nf"] == sorted(verify + ["sclim.exprs"])
        assert all(not imported for _, _, imported in steps)


def _readme_cli_lines() -> list[tuple[list[str], str]]:
    """(argv, comment) for each `sclim ...` line of README's `## CLI` block."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("\n## CLI\n", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    lines = []
    for line in block.splitlines():
        command, _, comment = line.partition("#")
        lines.append((shlex.split(command)[1:], comment.strip()))
    return lines


README_CLI = _readme_cli_lines()


def _readme_cli_ids() -> list[str]:
    """The subcommand for each line; a repeated one is numbered from its second line on."""
    ids, seen = [], {}
    for argv, _ in README_CLI:
        seen[argv[0]] = seen.get(argv[0], 0) + 1
        ids.append(argv[0] if seen[argv[0]] == 1 else f"{argv[0]}-{seen[argv[0]]}")
    return ids


class TestReadme:
    @pytest.mark.parametrize("argv, comment", README_CLI, ids=_readme_cli_ids())
    def test_cli_block_runs(self, capsys, argv, comment):
        assert main(argv) == 0
        out = capsys.readouterr().out
        # nf, comm and bracket print their answer, and the comment starts with it.
        if argv[0] in ("nf", "comm", "bracket"):
            assert out == comment.split("  ")[0] + "\n"
