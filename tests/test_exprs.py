"""The parser evaluates on term dicts; the ring operators are its oracle."""

import json
import operator
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sclim import exprs, pbw
from sclim.arith import Scalar
from sclim.errors import ParseError
from sclim.exprs import parse_cpoly, parse_expression, parse_scalar
from sclim.pbw import B, B_lambda, B_q, Usl2
from sclim.poisson import CPoly
from test_pbw import scaled_sl2_file

VARIABLES = ("e", "f", "h")


class Ring:
    """One target: its atoms and literals as values the ring operators act on."""

    def __init__(self, name):
        self.name = name
        if name == "CPoly":
            self.atoms = {v: CPoly.variable(v, VARIABLES) for v in VARIABLES}
            self.lift = lambda c: CPoly.const(c, VARIABLES)
            self.parse = lambda text: parse_cpoly(text, VARIABLES)
        elif name == "Scalar":
            self.atoms = {"t": Scalar.variable("t")}
            self.lift = lambda c: Scalar.of(c, "t")
            self.parse = lambda text: parse_scalar(text, "t")
        else:
            p = {"B": B, "B_q": B_q, "Usl2": Usl2, "S": scaled_sl2_file,
                 "B_lambda(3/2)": lambda: B_lambda(Fraction(3, 2))}[name]()
            self.atoms = {g: p.gen(g) for g in p.generators}
            if p.parameter is not None:
                self.atoms[p.parameter] = p.scalar(p.parameter_scalar())
            self.lift = p.scalar
            self.parse = lambda text: parse_expression(text, p)

    def divide(self, a, b, pos):
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


RINGS = ["B", "B_q", "Usl2", "B_lambda(3/2)", "CPoly", "Scalar"]

# How tightly each node binds.  A child binding looser than its slot is
# printed in parentheses; a right operand needs them at its operator's own
# level, as all binary operators associate to the left.  A rational literal
# p/q is a division.
_BINDING = {"+": 1, "-": 1, "*": 2, "/": 2, "rat": 2, "neg": 3, "pos": 3, "^": 4,
            "int": 5, "name": 5, "paren": 5}


def _opens(tree, floor: int) -> int:
    return 0 if _BINDING[tree[0]] >= floor else 1


def _wrapped(tree, floor: int) -> str:
    return f"({_text(tree)})" if _opens(tree, floor) else _text(tree)


def _text(tree) -> str:
    kind = tree[0]
    if kind in ("int", "name"):
        return str(tree[1])
    if kind == "rat":
        return f"{tree[1]}/{tree[2]}"
    if kind == "paren":
        return f"({_text(tree[1])})"
    if kind in ("neg", "pos"):
        return {"neg": "-", "pos": "+"}[kind] + _wrapped(tree[1], 3)
    if kind == "^":
        return f"{_wrapped(tree[1], 5)}^{tree[2]}"
    level = _BINDING[kind]
    return _wrapped(tree[1], level) + kind + _wrapped(tree[2], level + 1)


def _value(tree, ring: Ring, start: int = 0):
    """The tree's value by the ring operators, literals lifted first, with the
    text at `start`; a bad division raises ParseError at its '/'."""
    kind = tree[0]
    if kind == "int":
        return ring.lift(tree[1])
    if kind == "rat":
        return ring.lift(Fraction(tree[1], tree[2]))
    if kind == "name":
        return ring.atoms[tree[1]]
    if kind == "paren":
        return _value(tree[1], ring, start + 1)
    if kind in ("neg", "pos"):
        x = _value(tree[1], ring, start + 1 + _opens(tree[1], 3))
        return -x if kind == "neg" else x
    if kind == "^":
        return _value(tree[1], ring, start + _opens(tree[1], 5)) ** tree[2]
    level = _BINDING[kind]
    a = _value(tree[1], ring, start + _opens(tree[1], level))
    pos = start + len(_wrapped(tree[1], level))
    b = _value(tree[2], ring, pos + 1 + _opens(tree[2], level + 1))
    if kind == "/":
        return ring.divide(a, b, pos)
    return {"+": operator.add, "-": operator.sub, "*": operator.mul}[kind](a, b)


def _degree(tree) -> int:
    """A bound on the tree's degree in the atoms."""
    kind = tree[0]
    if kind in ("int", "rat"):
        return 0
    if kind == "name":
        return 1
    if kind == "^":
        return _degree(tree[1]) * tree[2]
    if kind == "*":
        return _degree(tree[1]) + _degree(tree[2])
    return max(_degree(child) for child in tree[1:] if isinstance(child, tuple))


def _trees(names):
    # Long ints as well as digits, so that literals such as 6/4 reduce on both.
    ints, dens = (st.one_of(st.integers(lo, 9), st.integers(lo, 10**30)) for lo in (0, 1))
    leaves = st.one_of(
        ints.map(lambda n: ("int", n)),
        st.tuples(st.just("rat"), ints, dens),
        st.sampled_from(names).map(lambda n: ("name", n)))

    def extend(children):
        return st.one_of(st.tuples(st.sampled_from("+-*/"), children, children),
                         st.tuples(st.sampled_from(["neg", "pos", "paren"]), children),
                         st.tuples(st.just("^"), children, st.integers(0, 3)))

    return st.recursive(leaves, extend, max_leaves=8).filter(lambda t: _degree(t) <= 6)


def _outcome(compute):
    try:
        return compute()
    except ParseError as exc:
        return (str(exc), exc.position)


class TestParserAgainstRingOperators:
    @pytest.mark.parametrize("name", RINGS)
    @settings(max_examples=80, derandomize=True, database=None, deadline=None)
    @given(data=st.data())
    def test_a_tree_parses_to_its_value(self, name, data):
        ring = Ring(name)
        tree = data.draw(_trees(sorted(ring.atoms)))
        text = _text(tree)
        expected = _outcome(lambda: _value(tree, ring))
        got = _outcome(lambda: ring.parse(text))
        assert got == expected, text
        if not isinstance(got, tuple):
            assert type(got) is type(expected)
            assert str(got) == str(expected), text

    @pytest.mark.parametrize("text, build", [
        ("e", lambda x: x["e"]),
        ("e + e + 2*e", lambda x: x["e"] * 4),
        ("(e+1)^2 - e", lambda x: (x["e"] + 1) ** 2 - x["e"]),
        ("-e*t*3 + t", lambda x: -x["e"] * x["t"] * 3 + x["t"])])
    @pytest.mark.parametrize("name", ["B", "B_lambda(3/2)", "CPoly"])
    def test_parsing_again_gives_the_same_value(self, name, text, build):
        # Sums build into dicts in place; no parse writes into a later one.
        ring = Ring(name)
        atoms = dict(ring.atoms)
        if name == "CPoly":
            text, atoms["t"] = text.replace("t", "h"), atoms["h"]
        first = ring.parse(text)
        assert ring.parse(text) == first == build(atoms)

    def test_a_generator_shadows_the_parameter_of_its_name(self):
        one = Scalar.of(1, "t")
        p = pbw.PBWPresentation("S_t", ("t", "x"), {(1, 0): pbw.SwapRule(one, {})},
                                parameter="t")
        assert parse_expression("t*x + 2*t", p).terms == {(1, 1): one, (1, 0): one * 2}

    @pytest.mark.parametrize("text, products", [
        ("e*f", 1), ("2*e*3", 0), ("(e+f)^3", 2), ("e^0*f", 1), ("(e-e)*f", 1),
        ("(t+1)^4*e/2", 0), ("e^1", 0), ("(e*f)^2*h", 3), ("1/(e-e+2)*f", 0)])
    def test_products_are_those_of_the_ring_operators(self, monkeypatch, text, products):
        calls = []

        def multiply(a, b):
            calls.append(1)
            return product(a, b)

        product = pbw.multiply
        monkeypatch.setattr(pbw, "multiply", multiply)
        parse_expression(text, B())
        assert len(calls) == products


class TestCPolyContext:
    """`parse_cpoly` shares one context per variable list, and the context holds no state."""

    def test_a_failed_parse_leaves_nothing_behind(self):
        with pytest.raises(ParseError):
            parse_cpoly("e + (f", VARIABLES)
        fresh = exprs._cpoly_context.__wrapped__(VARIABLES)
        for text in ("e + f", "(e - 2/3*h)^2*f", "7/4"):
            assert parse_cpoly(text, VARIABLES) == fresh.parse(text)

    def test_a_list_and_a_tuple_of_the_same_names_share_one_entry(self):
        exprs._cpoly_context.cache_clear()
        assert parse_cpoly("e", list(VARIABLES)) == CPoly.variable("e", VARIABLES)
        assert parse_cpoly("f", VARIABLES) == CPoly.variable("f", VARIABLES)
        info = exprs._cpoly_context.cache_info()
        assert (info.misses, info.hits, info.currsize) == (1, 1, 1)

    def test_more_variable_lists_than_the_cache_holds(self):
        for k in list(range(70)) + [0, 1]:
            variables = (f"x{k}", "y")
            assert parse_cpoly(f"2*x{k}*y - 6/4", variables) == \
                CPoly(variables, {(1, 1): 2, (0, 0): Fraction(-3, 2)})
            assert exprs._cpoly_context.cache_info().currsize <= 64


# The text `str` prints for elements of each ring, recorded byte for byte:
# integer, negative, fractional, long, polynomial and rational-function
# coefficients.  S's brackets carry 1/(t-1).
PRINTED = json.loads((Path(__file__).parent / "data" / "printed_text.json").read_text())


class TestPrintedText:
    @pytest.mark.parametrize("name", ["B", "B_q", "Usl2", "B_lambda(3/2)", "S", "CPoly"])
    def test_str_is_the_recorded_text(self, name):
        rows = [row for row in PRINTED if row["ring"] == name]
        assert rows
        parse = Ring(name).parse
        assert [str(parse(row["text"])) for row in rows] == [row["printed"] for row in rows]


class BoundedMemo(dict):
    """A monomial-text memo that fails as soon as it holds more than `bound`."""

    def __init__(self, bound):
        super().__init__()
        self.bound, self.writes = bound, 0

    def __setitem__(self, key, value):
        super().__setitem__(key, value)
        self.writes += 1
        assert len(self) <= self.bound


class TestMonomialTexts:
    def test_a_memo_of_two_prints_the_recorded_text(self, monkeypatch):
        memo = BoundedMemo(2)
        monkeypatch.setattr(pbw, "_MAX_MONOMIAL_TEXTS", 2)
        monkeypatch.setattr(pbw, "_MONOMIAL_TEXT", memo)
        rings = {name: Ring(name).parse for name in {row["ring"] for row in PRINTED}}
        for row in PRINTED:
            assert str(rings[row["ring"]](row["text"])) == row["printed"]
        # The memo was emptied many times on the way.
        assert memo.writes > 100

    @pytest.mark.parametrize("text, printed", [
        ("2*t*e", "2*t*e"),
        ("-t*e", "-t*e"),
        ("(1/2)*t^3*e", "1/2*t^3*e"),
        ("2*t", "2*t"),
        ("(t-1)*e", "(t-1)*e"),
        ("-(t-1)*e", "(-t+1)*e"),
        ("t-1", "(t-1)"),
        ("(t^2-1/3)*e*f + 2*t*h^2 - t*e", "(t^2-1/3)*e*f + 2*t*h^2 - t*e"),
        ("t*e/(t-1)", "(t/(t-1))*e"),
        ("(t+1)*e/(t-1)", "((t+1)/(t-1))*e"),
    ])
    def test_polynomial_coefficients_keep_their_parentheses(self, text, printed):
        assert str(parse_expression(text, B())) == printed

    def test_cpoly_and_ncpoly_share_entries(self, monkeypatch):
        memo = BoundedMemo(pbw._MAX_MONOMIAL_TEXTS)
        monkeypatch.setattr(pbw, "_MONOMIAL_TEXT", memo)
        text = "e*f^2 + 2*h^2 - 3*e + 1"
        p = B()
        assert p.generators == VARIABLES
        assert str(parse_expression(text, p)) == text
        entries = dict(memo)
        assert len(entries) == 4
        assert str(parse_cpoly(text, VARIABLES)) == text
        assert memo == entries


# Every kind of ParseError with its message and position, for each target it
# can reach.  Nesting past the recursion limit fails at whichever '(' the
# interpreter's limit is met, which depends on the caller's stack: None.
DEPTH = sys.getrecursionlimit()
ERRORS = [
    ("e + $", "unexpected character '$'", 4, RINGS),
    ("e *", "unexpected end of expression", 3, RINGS),
    ("e)", "unexpected trailing ')'", 1, RINGS),
    ("e + x", "unknown symbol 'x'", 4, RINGS),
    ("(" * DEPTH + "e" + ")" * DEPTH, "expression nested too deeply", None, RINGS),
    ("(e f", "expected ')'", 3, RINGS),
    ("e*/f", "unexpected '/'", 2, RINGS),
    ("e^-1", "expected int, found '-'", 2, RINGS),
    ("e/f", "can only divide by a constant", 1, ["B", "CPoly"]),
    ("e/(e-e)", "division by zero", 1, RINGS),
    ("3/0", "division by zero", 1, RINGS),
]


class TestParseErrors:
    @pytest.mark.parametrize("text, message, position, rings",
                             ERRORS, ids=[e[1] for e in ERRORS])
    def test_message_and_position(self, text, message, position, rings):
        for name in rings:
            ring = Ring(name)
            # The same text over each ring's own names.
            names = {"Usl2": {"e": "E", "f": "F"}, "Scalar": {"e": "t"}}.get(name, {})
            text_here = text.translate(str.maketrans(names))
            with pytest.raises(ParseError) as excinfo:
                ring.parse(text_here)
            at = excinfo.value.position
            if position is None:
                assert text_here[at] == "("
            else:
                assert at == position
            assert str(excinfo.value) == f"{message} (at position {at})"
