"""Small expression language shared by the CLI and the presentation files.

Grammar (whitespace insensitive)::

    expr   := term (('+' | '-') term)*
    term   := factor (('*' | '/') factor)*
    factor := ('-' | '+') factor | power
    power  := atom ('^' INTEGER)?
    atom   := INTEGER | NAME | '(' expr ')'

Products need an explicit '*'; '^' takes a non-negative integer literal.
Rational literals are just division of integers ("3/4", one `Fraction`), so
'/' doubles as the division operator; dividing by anything but a nonzero
constant of the target ring is a parse error.

The parser reads a token list closed by an "end" token.  One precedence loop
handles every binary operator: '+' and '-' bind at level 1, '*' and '/' at
level 2, and all four associate to the left, so the loop recurses only for a
right operand, at one level above its operator.  One operand routine reads
the unary signs, an atom or a parenthesized expression, and '^ INTEGER'.

The same parser and one context class serve three targets: noncommutative
elements over a presentation, commutative polynomials over a variable list,
and bare coefficient scalars (a ring whose only atom is the variable).  It
evaluates on term dicts and coefficients and builds the ring element once,
at the end.  A context holds no parse state, so the parses over one variable
list share one (the last 64 lists are kept).  Printing (`str`) of any of
these re-parses to an equal value.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from typing import TYPE_CHECKING, Sequence

from .arith import Scalar
from .errors import ParseError
from .pbw import NCPoly, PBWPresentation, _accumulate, _add_scaled, _bump

if TYPE_CHECKING:
    from .poisson import CPoly

_OPERATORS = set("+-*/^()")
# ASCII digits only: str.isdigit also takes "²" and other scripts' digits.
_DIGITS = set("0123456789")
# The level each binary operator binds at; all associate to the left.
_BINARY = {"+": 1, "-": 1, "*": 2, "/": 2}


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    """(kind, text, position) per token, then an "end" token where the last one ends.

    One character at a time, the most frequent kinds first: a compiled
    pattern costs more per token than this loop on these short texts.
    """
    tokens = []
    k, n = 0, len(text)
    while k < n:
        ch = text[k]
        if ch in _OPERATORS:
            tokens.append((ch, ch, k))
            k += 1
        elif ch.isspace():
            k += 1
        elif ch in _DIGITS:
            start = k
            while k < n and text[k] in _DIGITS:
                k += 1
            tokens.append(("int", text[start:k], start))
        elif ch.isalpha() or ch == "_":
            start = k
            while k < n and (text[k].isalnum() or text[k] == "_"):
                k += 1
            tokens.append(("name", text[start:k], start))
        else:
            raise ParseError(f"unexpected character {ch!r}", k)
    end = tokens[-1][2] + len(tokens[-1][1]) if tokens else 0
    tokens.append(("end", "", end))
    return tokens


def _unexpected(token, message: str) -> ParseError:
    """`message` at a token; running into the end token has its own message."""
    kind, _, pos = token
    return ParseError("unexpected end of expression" if kind == "end" else message, pos)


class _RingContext:
    """A target ring (`NCPoly`, `CPoly` or `Scalar`): its coefficients and named atoms.

    Values are term dicts (exponents -> coefficient) or coefficients: a
    subexpression with no generator stays one, literals as ints and
    `Fraction`s.  `coeff` makes a coefficient a ring coefficient where it
    meets a dict: it is summed in (`_accumulate`) or scales the dict
    (`_add_scaled`, which skips a generator's coefficient `one`).  A
    generator, named in `gens` with its index, is a new one-term dict where
    it is read, so sums go into their dicts in place; a name in `scalars`
    (the parameter, which a generator of the same name shadows) is a
    coefficient.  Two dicts multiply, and a dict takes a power, as the ring
    elements `wrap` makes of them, and `parse` wraps its result; `wrap` is
    None for `Scalar`.
    """

    def __init__(self, coeff, wrap, unit, one, gens: dict, scalars: dict):
        self.coeff, self.wrap, self.unit, self.one = coeff, wrap, unit, one
        self.gens, self.scalars = gens, scalars

    def parse(self, text: str):
        tokens = _tokenize(text)
        value, k = self._expr(tokens, 0, 1)
        kind, word, pos = tokens[k]
        if kind != "end":
            raise ParseError(f"unexpected trailing {word!r}", pos)
        if type(value) is not dict:
            if self.wrap is None:
                return self.coeff(value)
            value = self._terms(value)
        return self.wrap(value)

    def _expr(self, tokens, k: int, floor: int):
        """Operands joined by operators of level `floor` or above: (value, next index)."""
        value, k = self._operand(tokens, k)
        while (level := _BINARY.get(tokens[k][0], 0)) >= floor:
            op, _, pos = tokens[k]
            rhs, k = self._expr(tokens, k + 1, level + 1)
            if op == "*":
                value = self._times(value, rhs)
            elif op == "/":
                value = self._divide(value, rhs, pos)
            else:
                value = self._add(value, rhs, op == "-")
        return value, k

    def _operand(self, tokens, k: int):
        """Unary signs, an atom or '(' expr ')', then '^ INTEGER': (value, next index)."""
        negate = False
        while tokens[k][0] in ("+", "-"):
            negate ^= tokens[k][0] == "-"
            k += 1
        kind, word, pos = tokens[k]
        if kind == "int":
            value = int(word)
        elif kind == "name":
            if word in self.gens:
                value = {_bump(self.unit, self.gens[word]): self.one}
            elif word in self.scalars:
                value = self.scalars[word]
            else:
                raise ParseError(f"unknown symbol {word!r}", pos)
        elif kind == "(":
            try:
                value, k = self._expr(tokens, k + 1, 1)
            except RecursionError:
                raise ParseError("expression nested too deeply", pos) from None
            if tokens[k][0] != ")":
                raise _unexpected(tokens[k], "expected ')'")
        else:
            raise _unexpected(tokens[k], f"unexpected {word!r}")
        if tokens[k + 1][0] == "^":
            exponent = tokens[k + 2]
            if exponent[0] != "int":
                raise _unexpected(exponent, f"expected int, found {exponent[1]!r}")
            value = self._power(value, int(exponent[1]))
            k += 2
        if negate:
            value = {e: -c for e, c in value.items()} if type(value) is dict else -value
        return value, k + 1

    def _terms(self, c) -> dict:
        """The coefficient c as a term dict."""
        return {self.unit: self.coeff(c)} if c else {}

    def _add(self, a, b, minus: bool):
        if type(a) is not dict and type(b) is not dict:
            return a - b if minus else a + b
        a = a if type(a) is dict else self._terms(a)
        for e, c in (b if type(b) is dict else self._terms(b)).items():
            _accumulate(a, e, -c if minus else c)
        return a

    def _times(self, a, b):
        if type(a) is dict and type(b) is dict:
            return (self.wrap(a) * self.wrap(b)).terms
        if type(a) is not dict and type(b) is not dict:
            return a * b
        a, b = (a, b) if type(a) is dict else (b, a)
        out: dict = {}
        _add_scaled(out, a, self.coeff(b), self.one)
        return out

    def _power(self, a, k: int):
        """a^k."""
        if type(a) is not dict:
            return a ** k
        return (self.wrap(a) ** k).terms

    def _divide(self, a, b, pos: int):
        if type(b) is dict:
            if any(e != self.unit for e in b):
                raise ParseError("can only divide by a constant", pos)
            b = b.get(self.unit, 0)
        if not b:
            raise ParseError("division by zero", pos)
        if type(a) is int and type(b) is int:
            return Fraction(a, b)
        return self._times(a, Fraction(1, b) if type(b) is int else 1 / b)


def parse_expression(text: str, presentation: PBWPresentation) -> NCPoly:
    """Parse an element of a PBW algebra; products are normalized."""
    p = presentation
    scalars = {} if p.parameter is None else {p.parameter: p.parameter_scalar()}
    zero = p.zero()
    return _RingContext(zero._coeff, zero._new, (0,) * len(p.generators), p._one,
                        {g: k for k, g in enumerate(p.generators)}, scalars).parse(text)


@lru_cache(maxsize=64)
def _cpoly_context(variables: tuple[str, ...]) -> _RingContext:
    """The context of a variable list, shared by its parses: it holds no parse state."""
    from .poisson import CPoly  # here, so that `nf` never loads poisson
    zero = CPoly.zero(variables)
    return _RingContext(zero._coeff, zero._new, (0,) * len(variables), Fraction(1),
                        {v: k for k, v in enumerate(variables)}, {})


def parse_cpoly(text: str, variables: Sequence[str]) -> CPoly:
    """Parse a commutative polynomial over the given variables."""
    return _cpoly_context(tuple(variables)).parse(text)


def parse_scalar(text: str, var: str) -> Scalar:
    """Parse a rational function in the single variable `var`."""
    return _RingContext(lambda c: c if isinstance(c, Scalar) else Scalar.of(c, var),
                        None, None, None, {}, {var: Scalar.variable(var)}).parse(text)
