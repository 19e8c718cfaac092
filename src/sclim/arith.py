"""Exact scalar arithmetic: rationals, univariate polynomials, rational functions.

Every coefficient in the package lives in one of three nested exact domains:
arbitrary-precision rationals (`fractions.Fraction`), dense univariate
polynomials over the rationals (`UniPoly`), and reduced rational functions in
one named variable (`Scalar`).  Nothing here ever rounds; equality is
structural equality of canonical forms.

Canonical forms:

* `UniPoly` stores a dense coefficient tuple with no trailing zeros; the zero
  polynomial is the empty tuple.
* `Scalar` keeps numerator and denominator coprime with a monic denominator,
  so zero tests and equality are cheap and exact.

A scalar whose denominator is a power of the variable is "Laurent"; one whose
denominator does not vanish at a point is "regular" there and can be
evaluated exactly.  Rationals serialize as decimal strings ``p/q`` (``q``
omitted when 1), which is exactly ``str(Fraction)``.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Sequence

from .errors import DuplicateNode, PoleAtPoint, ZeroDenominator

# The coefficient field: arbitrary-precision rationals.
Rational = Fraction


def _as_rational(value: int | str | Rational) -> Rational:
    return value if isinstance(value, Fraction) else Fraction(value)


def _join_vars(a: "UniPoly", b: "UniPoly") -> str:
    """Variable of a binary operation; constants adopt the other side's."""
    if a.var == b.var:
        return a.var
    if a.is_constant():
        return b.var
    if b.is_constant():
        return a.var
    raise ValueError(f"cannot mix variables {a.var!r} and {b.var!r}")


class UniPoly:
    """Dense univariate polynomial over the rationals in a named variable."""

    __slots__ = ("coeffs", "var")

    def __init__(self, coeffs: Iterable[int | str | Rational] = (), var: str = "t"):
        cs = [_as_rational(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs: tuple[Rational, ...] = tuple(cs)
        self.var = var

    @classmethod
    def const(cls, value: int | str | Rational, var: str = "t") -> "UniPoly":
        return cls([_as_rational(value)], var)

    @classmethod
    def variable(cls, var: str = "t") -> "UniPoly":
        return cls([0, 1], var)

    @classmethod
    def monomial(cls, exponent: int, var: str = "t",
                 coeff: int | Rational = 1) -> "UniPoly":
        return cls([0] * exponent + [coeff], var)

    @property
    def degree(self) -> int:
        """Degree of the polynomial; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def is_constant(self) -> bool:
        return len(self.coeffs) <= 1

    def constant_value(self) -> Rational:
        if not self.is_constant():
            raise ValueError(f"{self} is not constant")
        return self.coeffs[0] if self.coeffs else Fraction(0)

    def leading_coeff(self) -> Rational:
        return self.coeffs[-1] if self.coeffs else Fraction(0)

    def is_monic(self) -> bool:
        return bool(self.coeffs) and self.coeffs[-1] == 1

    def evaluate(self, point: int | Rational) -> Rational:
        """Exact value at `point` (Horner)."""
        x = _as_rational(point)
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def shift(self, k: int) -> "UniPoly":
        """Multiply by var**k (k >= 0)."""
        if k < 0:
            raise ValueError("shift exponent must be non-negative")
        if self.is_zero():
            return self
        return UniPoly((Fraction(0),) * k + self.coeffs, self.var)

    def scale(self, factor: int | Rational) -> "UniPoly":
        f = _as_rational(factor)
        return UniPoly([c * f for c in self.coeffs], self.var)

    def __add__(self, other: "UniPoly") -> "UniPoly":
        var = _join_vars(self, other)
        n = max(len(self.coeffs), len(other.coeffs))
        a = self.coeffs + (Fraction(0),) * (n - len(self.coeffs))
        b = other.coeffs + (Fraction(0),) * (n - len(other.coeffs))
        return UniPoly([x + y for x, y in zip(a, b)], var)

    def __sub__(self, other: "UniPoly") -> "UniPoly":
        return self + (-other)

    def __neg__(self) -> "UniPoly":
        return UniPoly([-c for c in self.coeffs], self.var)

    def __mul__(self, other: "UniPoly") -> "UniPoly":
        var = _join_vars(self, other)
        if self.is_zero() or other.is_zero():
            return UniPoly((), var)
        out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return UniPoly(out, var)

    def __pow__(self, exponent: int) -> "UniPoly":
        if exponent < 0:
            raise ValueError("negative power of a polynomial")
        result = UniPoly.const(1, self.var)
        for _ in range(exponent):
            result = result * self
        return result

    def __divmod__(self, other: "UniPoly") -> tuple["UniPoly", "UniPoly"]:
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        var = _join_vars(self, other)
        rem = list(self.coeffs)
        quot = [Fraction(0)] * max(len(rem) - len(other.coeffs) + 1, 0)
        dlc = other.leading_coeff()
        dd = other.degree
        while len(rem) - 1 >= dd and rem:
            k = len(rem) - 1 - dd
            c = rem[-1] / dlc
            quot[k] = c
            for j, b in enumerate(other.coeffs):
                rem[k + j] -= c * b
            while rem and rem[-1] == 0:
                rem.pop()
        return UniPoly(quot, var), UniPoly(rem, var)

    def __floordiv__(self, other: "UniPoly") -> "UniPoly":
        return divmod(self, other)[0]

    def __mod__(self, other: "UniPoly") -> "UniPoly":
        return divmod(self, other)[1]

    def monic(self) -> "UniPoly":
        if self.is_zero() or self.is_monic():
            return self
        return self.scale(1 / self.leading_coeff())

    @staticmethod
    def gcd(a: "UniPoly", b: "UniPoly") -> "UniPoly":
        """Monic greatest common divisor (Euclid)."""
        while not b.is_zero():
            a, b = b, a % b
        return a.monic()

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, UniPoly):
            return NotImplemented
        if self.coeffs != other.coeffs:
            return False
        # Constants compare equal regardless of the variable name.
        return self.is_constant() or self.var == other.var

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __str__(self) -> str:
        if not self.coeffs:
            return "0"
        parts: list[str] = []
        for exp in range(len(self.coeffs) - 1, -1, -1):
            c = self.coeffs[exp]
            if c == 0:
                continue
            if exp == 0:
                body = str(c)
            else:
                head = self.var if exp == 1 else f"{self.var}^{exp}"
                if c == 1:
                    body = head
                elif c == -1:
                    body = f"-{head}"
                else:
                    body = f"{c}*{head}"
            if parts and not body.startswith("-"):
                parts.append("+" + body)
            else:
                parts.append(body)
        return "".join(parts)

    def __repr__(self) -> str:
        return f"UniPoly({self})"

    def to_json(self) -> dict:
        """Exponent-to-coefficient map with string keys and `p/q` values."""
        return {str(i): str(c) for i, c in enumerate(self.coeffs) if c != 0}


class Scalar:
    """Reduced rational function num/den with a monic denominator.

    Construction always canonicalizes, so two scalars are equal in the
    rational-function field iff their stored parts are identical.
    """

    __slots__ = ("num", "den")

    def __init__(self, num: UniPoly, den: UniPoly | None = None):
        if den is None:
            den = UniPoly.const(1, num.var)
        if den.is_zero():
            raise ZeroDenominator(f"zero denominator under {num}")
        var = _join_vars(num, den)
        if num.is_zero():
            self.num = UniPoly((), var)
            self.den = UniPoly.const(1, var)
            return
        g = UniPoly.gcd(num, den)
        if g.degree > 0:
            num = num // g
            den = den // g
        lc = den.leading_coeff()
        if lc != 1:
            num = num.scale(1 / lc)
            den = den.scale(1 / lc)
        self.num = UniPoly(num.coeffs, var)
        self.den = UniPoly(den.coeffs, var)

    @classmethod
    def of(cls, value: int | str | Rational, var: str = "t") -> "Scalar":
        return cls(UniPoly.const(_as_rational(value), var))

    @classmethod
    def variable(cls, var: str = "t") -> "Scalar":
        return cls(UniPoly.variable(var))

    @property
    def var(self) -> str:
        return self.num.var

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def __bool__(self) -> bool:
        # False exactly for zero, as for `Fraction`.
        return bool(self.num.coeffs)

    def is_constant(self) -> bool:
        return self.num.is_constant() and self.den.is_constant()

    def constant_value(self) -> Rational:
        return self.num.constant_value() / self.den.constant_value()

    def is_polynomial(self) -> bool:
        return self.den.is_constant()

    def is_laurent(self) -> bool:
        """True iff the denominator is a power of the variable."""
        return all(c == 0 for c in self.den.coeffs[:-1])

    def is_regular_at(self, point: int | Rational) -> bool:
        return self.den.evaluate(point) != 0

    def evaluate(self, point: int | Rational) -> Rational:
        d = self.den.evaluate(point)
        if d == 0:
            raise PoleAtPoint(f"{self} has a pole at {_as_rational(point)}")
        return self.num.evaluate(point) / d

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
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return Scalar(self.num * o.den + o.num * self.den, self.den * o.den)

    __radd__ = __add__

    def __sub__(self, other) -> "Scalar":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return Scalar(self.num * o.den - o.num * self.den, self.den * o.den)

    def __rsub__(self, other) -> "Scalar":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o - self

    def __neg__(self) -> "Scalar":
        return Scalar(-self.num, self.den)

    def __mul__(self, other) -> "Scalar":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return Scalar(self.num * o.num, self.den * o.den)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "Scalar":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if o.is_zero():
            raise ZeroDenominator(f"division of {self} by zero")
        return Scalar(self.num * o.den, self.den * o.num)

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
        result = Scalar.of(1, self.var)
        for _ in range(exponent):
            result = result * self
        return result

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (int, Fraction)):
            other = Scalar.of(other, self.var)
        if not isinstance(other, Scalar):
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self) -> int:
        # Variable name deliberately omitted so that constants hash alike.
        return hash((self.num.coeffs, self.den.coeffs))

    def __str__(self) -> str:
        if self.den.is_constant():
            return str(self.num)
        num = str(self.num)
        if len([c for c in self.num.coeffs if c != 0]) > 1:
            num = f"({num})"
        return f"{num}/({self.den})"

    def __repr__(self) -> str:
        return f"Scalar({self})"

    def to_json(self) -> dict:
        return {"var": self.var, "num": self.num.to_json(), "den": self.den.to_json()}


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
    if len(set(xs)) != len(xs):
        raise DuplicateNode(f"repeated interpolation node in {xs}")
    if band_min < 0 and any(x == 0 for x in xs):
        raise ValueError("nodes must be nonzero when band_min < 0")
    # Divide the band factor out of the samples, interpolate, put it back.
    ys = [y / x ** band_min if band_min else y for x, y in pts]
    p = _lagrange(xs, ys, var)
    if band_min >= 0:
        return Scalar(p.shift(band_min))
    return Scalar(p, UniPoly.monomial(-band_min, var))


def _lagrange(xs: Sequence[Rational], ys: Sequence[Rational], var: str) -> UniPoly:
    total = UniPoly((), var)
    for i, (xi, yi) in enumerate(zip(xs, ys)):
        if yi == 0:
            continue
        basis = UniPoly.const(yi, var)
        for j, xj in enumerate(xs):
            if j == i:
                continue
            basis = basis * UniPoly([-xj, 1], var).scale(1 / (xi - xj))
        total = total + basis
    return total


class ScalarMatrix:
    """Dense matrix of scalars, row-major; used for finite representations."""

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

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[Scalar]]) -> "ScalarMatrix":
        flat = [x for row in rows for x in row]
        return cls(len(rows), len(rows[0]), flat)

    @classmethod
    def zeros(cls, n: int, var: str = "t") -> "ScalarMatrix":
        z = Scalar.of(0, var)
        return cls(n, n, [z] * (n * n))

    @classmethod
    def identity(cls, n: int, var: str = "t") -> "ScalarMatrix":
        z, one = Scalar.of(0, var), Scalar.of(1, var)
        return cls(n, n, [one if i == j else z for i in range(n) for j in range(n)])

    def entry(self, i: int, j: int) -> Scalar:
        return self.entries[i * self.cols + j]

    def is_zero(self) -> bool:
        return all(x.is_zero() for x in self.entries)

    def __add__(self, other: "ScalarMatrix") -> "ScalarMatrix":
        self._check_shape(other)
        return ScalarMatrix(self.rows, self.cols,
                            [a + b for a, b in zip(self.entries, other.entries)])

    def __sub__(self, other: "ScalarMatrix") -> "ScalarMatrix":
        self._check_shape(other)
        return ScalarMatrix(self.rows, self.cols,
                            [a - b for a, b in zip(self.entries, other.entries)])

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
        if isinstance(other, (int, Fraction, Scalar)):
            return self.scale(other)
        return NotImplemented

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction, Scalar)):
            return self.scale(other)
        return NotImplemented

    def scale(self, factor: int | Fraction | Scalar) -> "ScalarMatrix":
        return ScalarMatrix(self.rows, self.cols, [x * factor for x in self.entries])

    def __pow__(self, exponent: int) -> "ScalarMatrix":
        if self.rows != self.cols:
            raise ValueError("can only raise square matrices to powers")
        if exponent < 0:
            raise ValueError("negative matrix power")
        var = self.entries[0].var if self.entries else "t"
        result = ScalarMatrix.identity(self.rows, var)
        for _ in range(exponent):
            result = result * self
        return result

    def _check_shape(self, other: "ScalarMatrix") -> None:
        if self.rows != other.rows or self.cols != other.cols:
            raise ValueError("matrix shapes do not match")

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ScalarMatrix):
            return NotImplemented
        return (self.rows, self.cols) == (other.rows, other.cols) and \
            self.entries == other.entries

    def __hash__(self) -> int:
        return hash((self.rows, self.cols, self.entries))

    def __repr__(self) -> str:
        rows = []
        for i in range(self.rows):
            rows.append("[" + ", ".join(str(self.entry(i, j)) for j in range(self.cols)) + "]")
        return "[" + ", ".join(rows) + "]"
