"""Small expression language shared by the CLI and the presentation files.

Grammar (whitespace insensitive)::

    expr   := term (('+' | '-') term)*
    term   := factor (('*' | '/') factor)*
    factor := ('-' | '+') factor | power
    power  := atom ('^' INTEGER)?
    atom   := INTEGER | NAME | '(' expr ')'

Products need an explicit '*'; '^' takes a non-negative integer literal.
Rational literals are just division of integers ("3/4"), so '/' doubles as
the division operator; dividing by anything but a nonzero constant of the
target ring is a parse error.

The same parser serves three targets: noncommutative elements over a
presentation, commutative polynomials over a variable list, and bare
coefficient scalars.  Printing (`str`) of any of these re-parses to an equal
value.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from .arith import Scalar
from .errors import ParseError, ZeroDenominator
from .pbw import NCPoly, PBWPresentation, SparsePoly
from .poisson import CPoly

_OPERATORS = set("+-*/^()")


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    k = 0
    while k < len(text):
        ch = text[k]
        if ch.isspace():
            k += 1
            continue
        if ch in _OPERATORS:
            tokens.append((ch, ch, k))
            k += 1
            continue
        # ASCII digits only: str.isdigit also takes "²" and other scripts' digits.
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
    return tokens


class _Parser:
    """Recursive descent over a token list, building into a ring context."""

    def __init__(self, text: str, context):
        self.tokens = _tokenize(text)
        self.pos = 0
        self.context = context

    def peek(self):
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def take(self, kind: str | None = None):
        tok = self.peek()
        if tok is None:
            raise ParseError("unexpected end of expression",
                             len_hint(self.tokens))
        if kind is not None and tok[0] != kind:
            raise ParseError(f"expected {kind}, found {tok[1]!r}", tok[2])
        self.pos += 1
        return tok

    def parse(self):
        value = self.expr()
        tok = self.peek()
        if tok is not None:
            raise ParseError(f"unexpected trailing {tok[1]!r}", tok[2])
        return value

    def expr(self):
        value = self.term()
        while (tok := self.peek()) and tok[0] in "+-":
            self.take()
            rhs = self.term()
            value = value + rhs if tok[0] == "+" else value - rhs
        return value

    def term(self):
        value = self.factor()
        while (tok := self.peek()) and tok[0] in "*/":
            self.take()
            rhs = self.factor()
            if tok[0] == "*":
                value = value * rhs
            else:
                value = self.context.divide(value, rhs, tok[2])
        return value

    def factor(self):
        tok = self.peek()
        if tok and tok[0] in "+-":
            self.take()
            inner = self.factor()
            return inner if tok[0] == "+" else -inner
        return self.power()

    def power(self):
        base = self.atom()
        if (tok := self.peek()) and tok[0] == "^":
            self.take()
            exp_tok = self.take("int")
            return base ** int(exp_tok[1])
        return base

    def atom(self):
        tok = self.take()
        kind, text, pos = tok
        if kind == "int":
            return self.context.const(int(text))
        if kind == "name":
            return self.context.atom(text, pos)
        if kind == "(":
            value = self.expr()
            closing = self.take()
            if closing[0] != ")":
                raise ParseError("expected ')'", closing[2])
            return value
        raise ParseError(f"unexpected {text!r}", pos)


def len_hint(tokens) -> int:
    return tokens[-1][2] + len(tokens[-1][1]) if tokens else 0


class _ScalarContext:
    def __init__(self, var: str):
        self.var = var

    def const(self, n: int) -> Scalar:
        return Scalar.of(n, self.var)

    def atom(self, name: str, pos: int) -> Scalar:
        if name != self.var:
            raise ParseError(f"unknown symbol {name!r}", pos)
        return Scalar.variable(self.var)

    def divide(self, a: Scalar, b: Scalar, pos: int) -> Scalar:
        try:
            return a / b
        except ZeroDenominator as exc:
            raise ParseError(str(exc), pos) from exc


class _RingContext:
    """A polynomial ring (`NCPoly` or `CPoly`): its coefficients and named atoms.

    A subexpression with no generator stays a coefficient (`const` makes one
    from an int).  It becomes a ring element when it meets one, through
    `SparsePoly`'s scalar coercion, or by `lift` at the end of `parse`.
    """

    def __init__(self, const, lift, atoms: dict):
        self.const = const
        self.lift = lift
        self.atoms = atoms

    def parse(self, text: str) -> SparsePoly:
        value = _Parser(text, self).parse()
        return value if isinstance(value, SparsePoly) else self.lift(value)

    def atom(self, name: str, pos: int):
        if name not in self.atoms:
            raise ParseError(f"unknown symbol {name!r}", pos)
        return self.atoms[name]

    def divide(self, a, b, pos: int):
        if isinstance(b, SparsePoly):
            if b.degree() > 0:
                raise ParseError("can only divide by a constant", pos)
            b = next(iter(b.terms.values()), 0)
        if not b:
            raise ParseError("division by zero", pos)
        return a.scale(1 / b) if isinstance(a, SparsePoly) else a / b


def parse_expression(text: str, presentation: PBWPresentation) -> NCPoly:
    """Parse an element of a PBW algebra; products are normalized."""
    p = presentation
    # A generator named like the parameter shadows it.
    atoms = {} if p.parameter is None else {p.parameter: p.parameter_scalar()}
    atoms.update((g, p.gen(g)) for g in p.generators)
    return _RingContext(lambda n: Scalar.of(n, p.coeff_var), p.scalar, atoms).parse(text)


def parse_cpoly(text: str, variables: Sequence[str]) -> CPoly:
    """Parse a commutative polynomial over the given variables."""
    atoms = {v: CPoly.variable(v, variables) for v in variables}
    return _RingContext(Fraction, lambda c: CPoly.const(c, variables), atoms).parse(text)


def parse_scalar(text: str, var: str) -> Scalar:
    """Parse a rational function in the single variable `var`."""
    return _Parser(text, _ScalarContext(var)).parse()
