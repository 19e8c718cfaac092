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

The parser reads a token list closed by an "end" token.  One precedence loop
handles every binary operator: '+' and '-' bind at level 1, '*' and '/' at
level 2, and all four associate to the left, so the loop recurses only for a
right operand, at one level above its operator.  One operand routine reads
the unary signs, an atom or a parenthesized expression, and '^ INTEGER'.

The same parser and one context class serve three targets: noncommutative
elements over a presentation, commutative polynomials over a variable list,
and bare coefficient scalars (a ring whose only atom is the variable).
Printing (`str`) of any of these re-parses to an equal value.
"""

from __future__ import annotations

from fractions import Fraction
from typing import TYPE_CHECKING, Sequence

from .arith import Scalar
from .errors import ParseError
from .pbw import NCPoly, PBWPresentation, SparsePoly

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

    A subexpression with no generator stays a coefficient (`const` makes one
    from an int).  It becomes a ring element when it meets one, through
    `SparsePoly`'s scalar coercion, or by `lift` at the end of `parse`.
    """

    def __init__(self, const, lift, atoms: dict):
        self.const = const
        self.lift = lift
        self.atoms = atoms

    def parse(self, text: str):
        tokens = _tokenize(text)
        value, k = self._expr(tokens, 0, 1)
        kind, word, pos = tokens[k]
        if kind != "end":
            raise ParseError(f"unexpected trailing {word!r}", pos)
        return value if isinstance(value, SparsePoly) else self.lift(value)

    def _expr(self, tokens, k: int, floor: int):
        """Operands joined by operators of level `floor` or above: (value, next index)."""
        value, k = self._operand(tokens, k)
        while (level := _BINARY.get(tokens[k][0], 0)) >= floor:
            op, _, pos = tokens[k]
            rhs, k = self._expr(tokens, k + 1, level + 1)
            if op == "+":
                value = value + rhs
            elif op == "-":
                value = value - rhs
            elif op == "*":
                value = value * rhs
            else:
                value = self._divide(value, rhs, pos)
        return value, k

    def _operand(self, tokens, k: int):
        """Unary signs, an atom or '(' expr ')', then '^ INTEGER': (value, next index)."""
        negate = False
        while tokens[k][0] in ("+", "-"):
            negate ^= tokens[k][0] == "-"
            k += 1
        kind, word, pos = tokens[k]
        if kind == "int":
            value = self.const(int(word))
        elif kind == "name":
            if word not in self.atoms:
                raise ParseError(f"unknown symbol {word!r}", pos)
            value = self.atoms[word]
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
            value = value ** int(exponent[1])
            k += 2
        return (-value if negate else value), k + 1

    @staticmethod
    def _divide(a, b, pos: int):
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
    from .poisson import CPoly  # here, so that `nf` never loads poisson
    atoms = {v: CPoly.variable(v, variables) for v in variables}
    return _RingContext(Fraction, lambda c: CPoly.const(c, variables), atoms).parse(text)


def parse_scalar(text: str, var: str) -> Scalar:
    """Parse a rational function in the single variable `var`."""
    return _RingContext(lambda n: Scalar.of(n, var), lambda c: c,
                        {var: Scalar.variable(var)}).parse(text)
