"""Exact scalar arithmetic: rationals, univariate polynomials, rational functions.

Every coefficient in the package lives in one of three nested exact domains:
arbitrary-precision rationals (`fractions.Fraction`), dense univariate
polynomials over the rationals (`UniPoly`), and reduced rational functions in
one named variable (`Scalar`).  Nothing here ever rounds; equality is
structural equality of canonical forms.

Canonical forms:

* `UniPoly` stores ints over one denominator, as FLINT's `fmpq_poly` does:
  a tuple of ints with no trailing zero and an int `den > 0` with
  gcd(den, *ints) == 1, so den is the least common denominator of the
  coefficients and the pair is unique; zero is ``((), 1)``.  Arithmetic runs
  on ints, with one `math.gcd` per result whose denominator is not 1.
* `Scalar` keeps numerator and denominator coprime with a monic denominator,
  so zero tests and equality are cheap and exact.  Sums, differences,
  products, negatives and quotients by a nonzero constant of polynomial
  scalars (denominator 1) run on the ints and build num/1 with no `UniPoly` op.

A scalar whose denominator is a power of the variable is "Laurent"; one whose
denominator does not vanish at a point is "regular" there and can be
evaluated exactly.  Rationals serialize as decimal strings ``p/q`` (``q``
omitted when 1), which is exactly ``str(Fraction)``.
"""

from __future__ import annotations

import operator
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm
from typing import Iterable, Sequence

from .errors import DuplicateNode, PoleAtPoint, ZeroDenominator

# The coefficient field: arbitrary-precision rationals.
Rational = Fraction


def _as_rational(value: int | str | Rational) -> Rational:
    if isinstance(value, Fraction):
        return value
    try:
        return Fraction(value)
    except ZeroDivisionError:
        raise ZeroDenominator(f"zero denominator in {value!r}") from None
    except ValueError:
        raise ValueError(f"not a rational number: {value!r}") from None


def _join_vars(a: "UniPoly", b: "UniPoly") -> str:
    """Variable of a binary operation; constants adopt the other side's."""
    if a.var == b.var:
        return a.var
    if a.is_constant():
        return b.var
    if b.is_constant():
        return a.var
    raise ValueError(f"cannot mix variables {a.var!r} and {b.var!r}")


def _ints_sum(x: Sequence[int], dx: int, y: Sequence[int],
              dy: int) -> tuple[list[int], int]:
    """x/dx + y/dy as (ints, den); trailing zeros and common content stay."""
    if dx != dy:
        g = gcd(dx, dy)
        if dy != g:
            x = [c * (dy // g) for c in x]
            dx *= dy // g
        if dx != dy:
            y = [c * (dx // dy) for c in y]
    if len(x) == 1 == len(y):
        return [x[0] + y[0]], dx
    if len(x) < len(y):
        x, y = y, x
    out = list(map(operator.add, x, y))
    out += x[len(y):]
    return out, dx


def _ints_product(x: Sequence[int], y: Sequence[int]) -> list[int]:
    """The ints of the product of two int polynomials, constant term first."""
    if len(y) == 1:
        x, y = y, x
    if len(x) != 1:
        out = [0] * (len(x) + len(y) - 1)
        for i, c in enumerate(x):
            if c:
                for j, d in enumerate(y):
                    out[i + j] += c * d
        return out
    if len(y) == 1:
        return [x[0] * y[0]]
    c = x[0]
    return [c * d for d in y]


def _horner(ints: Sequence[int], x: int) -> int:
    """The int polynomial `ints` (constant term first) evaluated at the int x."""
    acc = 0
    for c in reversed(ints):
        acc = acc * x + c
    return acc


def _agrees(s: "Scalar", point: Rational, value: Rational) -> bool:
    """s.evaluate(point) == value; cross-multiplied ints for a polynomial s at an int."""
    num = s.num
    if len(s.den._ints) == 1 and point.denominator == 1:
        return (_horner(num._ints, point.numerator) * value.denominator
                == value.numerator * num._den)
    return s.evaluate(point) == value


def _canonical(ints: list[int], den: int, var: str) -> "UniPoly":
    """ints/den in canonical form: trailing zeros and gcd(den, *ints) removed."""
    while ints and not ints[-1]:
        ints.pop()
    if den != 1:
        g = gcd(den, *ints)
        if g != 1:
            ints = [x // g for x in ints]
            den //= g
    return UniPoly._raw(tuple(ints), den, var)


class UniPoly:
    """Dense univariate polynomial over Q in a named variable: sum(ints[i] var^i) / den."""

    __slots__ = ("_ints", "_den", "var")

    def __init__(self, coeffs: Iterable[int | str | Rational] = (), var: str = "t"):
        cs = [_as_rational(c) for c in coeffs]
        while cs and not cs[-1]:
            cs.pop()
        # The lcm of reduced denominators leaves no factor common to all.
        den = lcm(*[c.denominator for c in cs])
        self._ints = tuple(c.numerator * (den // c.denominator) for c in cs)
        self._den = den
        self.var = var

    @classmethod
    def _raw(cls, ints: tuple[int, ...], den: int, var: str) -> "UniPoly":
        """Wrap a pair that is already canonical."""
        out = cls.__new__(cls)
        out._ints = ints
        out._den = den
        out.var = var
        return out

    @classmethod
    def const(cls, value: int | str | Rational, var: str = "t") -> "UniPoly":
        c = value if isinstance(value, int) else _as_rational(value)
        return cls._raw((c.numerator,) if c else (), c.denominator, var)

    @classmethod
    def variable(cls, var: str = "t") -> "UniPoly":
        return cls._raw((0, 1), 1, var)

    @property
    def coeffs(self) -> tuple[Rational, ...]:
        """Coefficients as reduced Fractions, constant term first."""
        den = self._den
        return tuple(Fraction(x, den) for x in self._ints)

    @property
    def degree(self) -> int:
        """Degree of the polynomial; -1 for the zero polynomial."""
        return len(self._ints) - 1

    def is_zero(self) -> bool:
        return not self._ints

    def is_constant(self) -> bool:
        return len(self._ints) <= 1

    def constant_value(self) -> Rational:
        if not self.is_constant():
            raise ValueError(f"{self} is not constant")
        return Fraction(self._ints[0], self._den) if self._ints else Fraction(0)

    def leading_coeff(self) -> Rational:
        return Fraction(self._ints[-1], self._den) if self._ints else Fraction(0)

    def is_monic(self) -> bool:
        return bool(self._ints) and self._ints[-1] == self._den

    def evaluate(self, point: int | Rational) -> Rational:
        """Exact value at `point` (Horner on ints, homogenized in its denominator)."""
        if not self._ints:
            return Fraction(0)
        x = _as_rational(point)
        p, q = x.numerator, x.denominator
        acc, qk = 0, 1
        for c in reversed(self._ints):
            acc = acc * p + c * qk
            qk *= q
        return Fraction(acc, self._den * (qk // q))

    def shift(self, k: int) -> "UniPoly":
        """Multiply by var**k (k >= 0)."""
        if k < 0:
            raise ValueError("shift exponent must be non-negative")
        if self.is_zero():
            return self
        return UniPoly._raw((0,) * k + self._ints, self._den, self.var)

    def scale(self, factor: int | Rational) -> "UniPoly":
        f = _as_rational(factor)
        return _canonical([x * f.numerator for x in self._ints],
                          self._den * f.denominator, self.var)

    def __add__(self, other: "UniPoly") -> "UniPoly":
        var = _join_vars(self, other)
        return _canonical(*_ints_sum(self._ints, self._den, other._ints, other._den), var)

    def __sub__(self, other: "UniPoly") -> "UniPoly":
        return self + (-other)

    def __neg__(self) -> "UniPoly":
        return UniPoly._raw(tuple([-x for x in self._ints]), self._den, self.var)

    def __mul__(self, other: "UniPoly") -> "UniPoly":
        var = _join_vars(self, other)
        return _canonical(_ints_product(self._ints, other._ints),
                          self._den * other._den, var)

    def __divmod__(self, other: "UniPoly") -> tuple["UniPoly", "UniPoly"]:
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        var = _join_vars(self, other)
        # Pseudo-division on the ints, s*a == q*b + r, scaling by the least
        # factor that keeps each quotient coefficient an integer.
        b = other._ints
        lb, db = b[-1], len(b) - 1
        r = list(self._ints)
        q = [0] * max(len(r) - db, 0)
        s = 1
        while len(r) > db:
            k = len(r) - 1 - db
            top = r[-1]
            if top % lb:
                f = abs(lb) // gcd(top, lb)
                r = [x * f for x in r]
                q = [x * f for x in q]
                s *= f
                top *= f
            c = top // lb
            q[k] = c
            for j, y in enumerate(b):
                r[k + j] -= c * y
            while r and not r[-1]:
                r.pop()
        # With a = self's ints: a/da = (q*db / (s*da)) * (b/db) + r / (s*da).
        den = s * self._den
        return (_canonical([x * other._den for x in q], den, var),
                _canonical(r, den, var))

    def monic(self) -> "UniPoly":
        if self.is_zero() or self.is_monic():
            return self
        # (ints[i]/den) / (ints[-1]/den) is ints[i]/ints[-1].
        sign = 1 if self._ints[-1] > 0 else -1
        return _canonical([x * sign for x in self._ints], abs(self._ints[-1]), self.var)

    @staticmethod
    def gcd(a: "UniPoly", b: "UniPoly") -> "UniPoly":
        """Monic greatest common divisor (Euclid)."""
        while b._ints:
            a, b = b, divmod(a, b)[1]
        return a.monic()

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, UniPoly):
            return NotImplemented
        if self._ints != other._ints or self._den != other._den:
            return False
        # Constants compare equal regardless of the variable name.
        return self.is_constant() or self.var == other.var

    def __hash__(self) -> int:
        return hash((self._ints, self._den))

    def __str__(self) -> str:
        return self._text()[0] or "0"

    def _text(self) -> tuple[str, int]:
        """The text, highest power first, and the number of nonzero ints; each
        ints[k]/den, reduced by one gcd, prints as a Fraction."""
        den, parts = self._den, []
        for exp in range(len(self._ints) - 1, -1, -1):
            x = self._ints[exp]
            if not x:
                continue
            g = gcd(x, den)
            body = str(x // g) if g == den else f"{x // g}/{den // g}"
            if exp:
                head = self.var if exp == 1 else f"{self.var}^{exp}"
                if body == "1":
                    body = head
                elif body == "-1":
                    body = f"-{head}"
                else:
                    body = f"{body}*{head}"
            parts.append("+" + body if parts and body[0] != "-" else body)
        return "".join(parts), len(parts)

    def __repr__(self) -> str:
        return f"UniPoly({self})"


class Scalar:
    """Reduced rational function num/den with a monic denominator.

    Every scalar is canonical, so two scalars are equal in the
    rational-function field iff their stored parts are identical.  The
    constructor canonicalizes through a gcd when the denominator is not
    constant; `Scalar.of`, and `+ - * neg` of polynomials (denominator 1)
    and their `/` by a nonzero constant, build num/1 directly, which already is.
    """

    __slots__ = ("num", "den")

    def __init__(self, num: UniPoly, den: UniPoly | None = None):
        if den is None:
            den = _unit(num.var)
        if den.is_zero():
            raise ZeroDenominator(f"zero denominator under {num}")
        var = _join_vars(num, den)
        if num.is_zero():
            num, den = UniPoly._raw((), 1, var), _unit(var)
        elif not den.is_constant():
            g = UniPoly.gcd(num, den)
            if g.degree > 0:
                num, den = divmod(num, g)[0], divmod(den, g)[0]
        lc = den.leading_coeff()
        if lc != 1:
            num = num.scale(1 / lc)
            den = den.monic()
        self.num = UniPoly._raw(num._ints, num._den, var)
        self.den = UniPoly._raw(den._ints, den._den, var)

    @classmethod
    def of(cls, value: int | str | Rational, var: str = "t") -> "Scalar":
        return _over(UniPoly.const(value, var), _unit(var))

    @classmethod
    def variable(cls, var: str = "t") -> "Scalar":
        return _over(UniPoly.variable(var), _unit(var))

    @property
    def var(self) -> str:
        return self.num.var

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def __bool__(self) -> bool:
        # False exactly for zero, as for `Fraction`.
        return bool(self.num._ints)

    def is_constant(self) -> bool:
        return self.num.is_constant() and self.den.is_constant()

    def constant_value(self) -> Rational:
        if len(self.den._ints) == 1:        # the monic constant 1
            return self.num.constant_value()
        return self.num.constant_value() / self.den.constant_value()

    def is_polynomial(self) -> bool:
        return self.den.is_constant()

    def is_laurent(self) -> bool:
        """True iff the denominator is a power of the variable."""
        return not any(self.den._ints[:-1])

    def is_regular_at(self, point: int | Rational) -> bool:
        return self.den.evaluate(point) != 0

    def evaluate(self, point: int | Rational) -> Rational:
        if len(self.den._ints) == 1:
            return self.num.evaluate(point)
        d = self.den.evaluate(point)
        if d == 0:
            raise PoleAtPoint(f"{self} has a pole at {_as_rational(point)}")
        return self.num.evaluate(point) / d

    def at(self, point: int | Rational) -> "Scalar":
        """The constant scalar `evaluate(point)`, in this scalar's variable."""
        num = self.num
        if len(self.den._ints) == 1 and point.denominator == 1:
            acc = _horner(num._ints, point.numerator)
            return _over(_canonical([acc], num._den, num.var), self.den)
        return Scalar.of(self.evaluate(point), num.var)

    def compose(self, inner: "Scalar") -> "Scalar":
        """Substitute `inner` for the variable (exact rational composition)."""
        num = _eval_poly_at_scalar(self.num, inner)
        den = _eval_poly_at_scalar(self.den, inner)
        return num / den

    def _coerce(self, other) -> "Scalar | None":
        if isinstance(other, Scalar):
            return other
        if isinstance(other, (int, Fraction)):
            return Scalar.of(other, self.var)
        return None

    def __add__(self, other) -> "Scalar":
        o = other if other.__class__ is Scalar else self._coerce(other)
        if o is None:
            return NotImplemented
        a, b = self.num, o.num
        if len(self.den._ints) != 1 or len(o.den._ints) != 1:
            return Scalar(a * o.den + b * self.den, self.den * o.den)
        return _poly_result(self, o, *_ints_sum(a._ints, a._den, b._ints, b._den))

    __radd__ = __add__

    def __sub__(self, other) -> "Scalar":
        o = other if other.__class__ is Scalar else self._coerce(other)
        if o is None:
            return NotImplemented
        a, b = self.num, o.num
        if len(self.den._ints) != 1 or len(o.den._ints) != 1:
            return Scalar(a * o.den - b * self.den, self.den * o.den)
        neg = [-c for c in b._ints]
        return _poly_result(self, o, *_ints_sum(a._ints, a._den, neg, b._den))

    def __rsub__(self, other) -> "Scalar":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o - self

    def __neg__(self) -> "Scalar":
        n = self.num
        if len(self.den._ints) != 1:
            return Scalar(-n, self.den)
        return _poly_result(self, self, [-c for c in n._ints], n._den)

    def __mul__(self, other) -> "Scalar":
        o = other if other.__class__ is Scalar else self._coerce(other)
        if o is None:
            return NotImplemented
        a, b = self.num, o.num
        if len(self.den._ints) != 1 or len(o.den._ints) != 1:
            return Scalar(a * b, self.den * o.den)
        return _poly_result(self, o, _ints_product(a._ints, b._ints), a._den * b._den)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "Scalar":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if o.is_zero():
            raise ZeroDenominator(f"division of {self} by zero")
        a, b = self.num, o.num
        if len(b._ints) == 1 == len(o.den._ints) == len(self.den._ints):
            # A polynomial over the constant n/d: times d/n on the ints.
            n = b._ints[0]
            d = b._den if n > 0 else -b._den
            return _poly_result(self, o, [c * d for c in a._ints], a._den * abs(n))
        return Scalar(a * o.den, self.den * b)

    def __rtruediv__(self, other) -> "Scalar":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o / self

    def inverse(self) -> "Scalar":
        if self.is_zero():
            raise ZeroDenominator("inverse of zero")
        return Scalar(self.den, self.num)

    def __pow__(self, exponent: int) -> "Scalar":
        if exponent < 0:
            return self.inverse() ** (-exponent)
        # Square and multiply over the bits, highest first; canonical forms
        # make the result equal to that of repeated products.
        result = Scalar.of(1, self.var)
        for bit in bin(exponent)[2:]:
            result = result * result if bit == "0" else result * result * self
        return result

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (int, Fraction)):
            other = Scalar.of(other, self.var)
        if not isinstance(other, Scalar):
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self) -> int:
        # A constant hashes as its Fraction, which it equals; the variable
        # name is omitted so that constants hash alike.
        if self.is_constant():
            return hash(self.constant_value())
        return hash((self.num, self.den))

    def __str__(self) -> str:
        if self.den.is_constant():
            return str(self.num)
        num, count = self.num._text()
        return f"({num})/({self.den})" if count > 1 else f"{num}/({self.den})"

    def __repr__(self) -> str:
        return f"Scalar({self})"


@lru_cache(maxsize=64)
def _unit(var: str) -> UniPoly:
    return UniPoly.const(1, var)


def _over(num: UniPoly, den: UniPoly) -> Scalar:
    """num/den from parts that are already canonical, in one variable."""
    out = Scalar.__new__(Scalar)
    out.num, out.den = num, den
    return out


def _poly_result(a: Scalar, b: Scalar, ints: list[int], den: int) -> Scalar:
    """ints/den over 1, computed from polynomial scalars a and b, without Euclid.

    Trailing zeros and the content common to den are removed here.  The
    variable is the one the constructor would pick: a constant result takes
    b's, whose denominator it shares; any other its nonconstant operand's.
    Nonconstant operands in two variables raise ValueError, as in `UniPoly`.
    """
    x, y = a.num, b.num
    if len(x._ints) > 1 < len(y._ints) and x.var != y.var:
        raise ValueError(f"cannot mix variables {x.var!r} and {y.var!r}")
    while ints and not ints[-1]:
        ints.pop()
    src = b if len(ints) <= 1 or len(y._ints) > 1 else a
    return _over(_canonical(ints, den, src.num.var), src.den)


def _eval_poly_at_scalar(p: UniPoly, point: Scalar) -> Scalar:
    acc = Scalar.of(0, point.var)
    for c in reversed(p.coeffs):
        acc = acc * point + Scalar.of(c, point.var)
    return acc


def interpolate_band(points: Sequence[tuple[Rational, Rational]],
                     band_min: int = 0, var: str = "t") -> Scalar:
    """Unique scalar of the form x**band_min * p(x) through the given points.

    `p` has degree < len(points).  For negative `band_min` all nodes must be
    nonzero.  Raises `DuplicateNode` on repeated nodes.
    """
    pts = [(_as_rational(x), _as_rational(y)) for x, y in points]
    xs = [x for x, _ in pts]
    basis = _lagrange_basis(tuple(xs), var)
    if band_min < 0 and any(x == 0 for x in xs):
        raise ValueError("nodes must be nonzero when band_min < 0")
    # Divide the band factor out of the samples, sum the cached Lagrange
    # basis on ints over one common denominator, put the factor back.
    ys = [y / x ** band_min if band_min else y for x, y in pts]
    parts = [(y.numerator, y.denominator * b._den, b._ints)
             for b, y in zip(basis, ys) if y]
    den = lcm(*[d for _, d, _ in parts])
    out = [0] * len(xs)
    for y, d, ints in parts:
        y *= den // d
        for k, c in enumerate(ints):
            out[k] += y * c
    if band_min >= 0:
        return _over(_canonical([0] * band_min + out, den, var), _unit(var))
    return Scalar(_canonical(out, den, var), UniPoly.const(1, var).shift(-band_min))


@lru_cache(maxsize=64)
def _lagrange_basis(xs: tuple[Rational, ...], var: str) -> tuple[UniPoly, ...]:
    """The polynomials that are 1 at one node of xs and 0 at the others."""
    if len(set(xs)) != len(xs):
        raise DuplicateNode(f"repeated interpolation node in {list(xs)}")
    out = []
    for i, xi in enumerate(xs):
        basis = UniPoly.const(1, var)
        for j, xj in enumerate(xs):
            if j != i:
                basis = basis * UniPoly([-xj, 1], var).scale(1 / (xi - xj))
        out.append(basis)
    return tuple(out)


class ScalarMatrix:
    """Dense matrix of scalars, row-major.

    No kernel code uses it.  It keeps only its input-checking constructor
    and `__mul__`, which the benchmark's tracer (`perfbench/tracer.py`)
    targets; see the FOUND line about it in CHANGES.md.
    """

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, rows: int, cols: int, entries: Sequence[Scalar]):
        if rows <= 0 or cols <= 0:
            raise ValueError("matrix dimensions must be positive")
        entries = tuple(entries)
        if len(entries) != rows * cols:
            raise ValueError("entry count does not match dimensions")
        self.rows = rows
        self.cols = cols
        self.entries = entries

    def __mul__(self, other):
        if isinstance(other, ScalarMatrix):
            if self.cols != other.rows:
                raise ValueError("inner dimensions do not match")
            # Row by row over nonzero entries only: the module matrices are
            # diagonal or bidiagonal, so almost every product is of zeros.
            zero = Scalar.of(0, self.entries[0].var)
            n, m = self.cols, other.cols
            out = []
            for i in range(self.rows):
                row: list[Scalar | None] = [None] * m
                for k, a in enumerate(self.entries[i * n:(i + 1) * n]):
                    if not a:
                        continue
                    for j, b in enumerate(other.entries[k * m:(k + 1) * m]):
                        if b:
                            acc = row[j]
                            row[j] = a * b if acc is None else acc + a * b
                out.extend(zero if x is None else x for x in row)
            return ScalarMatrix(self.rows, m, out)
        return NotImplemented
