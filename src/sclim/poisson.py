"""Commutative polynomials with a Poisson bracket given on generators.

`CPoly` is a commutative polynomial over the rationals in a fixed variable
list (default e, f, h), stored as a map from exponent vectors to nonzero
coefficients.  A `PoissonAlgebra` adds a bracket table b_ij = {x_i, x_j} for
i < j, and owns the derivation table built from it once, from which
{x^a, x_k} = sum_i a_i x^(a - u_i) b_ik, u_i the i-th unit vector:
`poisson_bracket` reads it on term dicts, and `ideals` onto packed
monomials.  The bracket of two polynomials is the biderivation extension

    {a, b} = sum_k {a, x_k} db/dx_k,

which is antisymmetric and Leibniz by construction.  Whether the Jacobi
identity holds is a property of the table; it is checked on generator triples
at construction and the residuals are kept as a certificate.

`semiclassical_limit` extracts such a bracket table from a parametric PBW
presentation: each generator commutator, read off its swap rule, must vanish
at 1, is divided exactly by (par - 1), and is then evaluated at 1.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from functools import lru_cache
from typing import Mapping, Sequence

from .arith import Rational, Scalar, _as_rational
from .errors import NotCommutativeAtOne, PoleAtPoint
from .pbw import B, PBWPresentation, SparsePoly, _accumulate, _add_shifted, _format_terms

Exponents = tuple[int, ...]

DEFAULT_VARIABLES = ("e", "f", "h")


class CPoly(SparsePoly):
    """Commutative polynomial with exact rational coefficients."""

    __slots__ = ("variables",)

    _scalars = (int, Fraction)

    def __init__(self, variables: Sequence[str],
                 terms: Mapping[Exponents, int | Rational] = ()):
        self.variables = tuple(variables)
        clean: dict[Exponents, Rational] = {}
        for exps, c in dict(terms).items():
            c = _as_rational(c)
            if c:
                clean[tuple(exps)] = c
        self.terms = clean

    @classmethod
    def zero(cls, variables: Sequence[str] = DEFAULT_VARIABLES) -> "CPoly":
        return cls(variables)

    @classmethod
    def const(cls, value, variables: Sequence[str] = DEFAULT_VARIABLES) -> "CPoly":
        return cls(variables, {(0,) * len(variables): _as_rational(value)})

    @classmethod
    def variable(cls, name: str,
                 variables: Sequence[str] = DEFAULT_VARIABLES) -> "CPoly":
        idx = tuple(variables).index(name)
        exps = tuple(1 if k == idx else 0 for k in range(len(variables)))
        return cls(variables, {exps: Fraction(1)})

    @classmethod
    def monomial(cls, exps: Sequence[int], coeff=1,
                 variables: Sequence[str] = DEFAULT_VARIABLES) -> "CPoly":
        return cls(variables, {tuple(exps): _as_rational(coeff)})

    def _new(self, terms: dict[Exponents, Rational]) -> "CPoly":
        out = CPoly.__new__(CPoly)
        out.variables = self.variables
        out.terms = terms
        return out

    _coeff = staticmethod(_as_rational)

    def _const(self, value) -> "CPoly":
        return CPoly.const(value, self.variables)

    def _same_ring(self, other: "CPoly") -> bool:
        return self.variables == other.variables

    def _check_compatible(self, other: "CPoly") -> None:
        if not self._same_ring(other):
            raise ValueError(
                f"mixed variable lists {self.variables} and {other.variables}")

    def _product(self, other: "CPoly") -> "CPoly":
        self._check_compatible(other)
        out: dict[Exponents, Rational] = {}
        for ea, ca in self.terms.items():
            _add_shifted(out, other.terms, ca, ea)
        return self._new(out)

    def __hash__(self) -> int:
        # A constant hashes as the Fraction it equals, as `Scalar` does.
        if self.degree() <= 0:
            return hash(next(iter(self.terms.values()), 0))
        return hash((self.variables, tuple(sorted(self.terms.items()))))

    def __str__(self) -> str:
        def coeff_str(c: Rational) -> tuple[str, bool]:
            return str(c), False

        return _format_terms(self.terms, self.variables, coeff_str)


class PoissonAlgebra:
    """Polynomial ring plus a bracket table on generator pairs.

    The table stores b_ij = {x_i, x_j} for i < j only; antisymmetry is
    structural.  Jacobi residuals for all generator triples are computed at
    construction and kept in `jacobi_certificate`; the bracket is honest
    (a Lie bracket) iff they are all zero.
    """

    def __init__(self, variables: Sequence[str],
                 table: Mapping[tuple[str, str], CPoly]):
        self.variables = tuple(variables)
        index = {v: k for k, v in enumerate(self.variables)}
        self._table: dict[tuple[int, int], CPoly] = {}
        for (a, b), poly in table.items():
            i, j = index[a], index[b]
            if i >= j:
                raise ValueError(f"bracket key ({a},{b}) must be an ordered pair")
            if poly.variables != self.variables:
                raise ValueError("bracket entry over the wrong variable list")
            self._table[(i, j)] = poly
        zero = CPoly.zero(self.variables)
        n = len(self.variables)
        for i in range(n):
            for j in range(i + 1, n):
                self._table.setdefault((i, j), zero)
        # Per k, the pairs (i, terms of {x_i, x_k}) over the nonzero entries.
        self._derivations = [
            [(i, entry.terms) for i in range(n)
             if (entry := self.bracket_entry(i, k)).terms]
            for k in range(n)]
        self.jacobi_certificate = tuple(jacobi_residuals(self))

    @property
    def is_jacobi(self) -> bool:
        return all(r.is_zero() for r in self.jacobi_certificate)

    def var(self, name: str) -> CPoly:
        return CPoly.variable(name, self.variables)

    def zero(self) -> CPoly:
        return CPoly.zero(self.variables)

    def bracket_entry(self, i: int, j: int) -> CPoly:
        """{x_i, x_j} for any pair of generator indices."""
        if i == j:
            return CPoly.zero(self.variables)
        if i < j:
            return self._table[(i, j)]
        return -self._table[(j, i)]

    def bracket_of(self, a: str, b: str) -> CPoly:
        index = {v: k for k, v in enumerate(self.variables)}
        return self.bracket_entry(index[a], index[b])

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PoissonAlgebra):
            return NotImplemented
        return self.variables == other.variables and self._table == other._table

    __hash__ = None

    def __repr__(self) -> str:
        entries = ", ".join(
            f"{{{self.variables[i]},{self.variables[j]}}}={poly}"
            for (i, j), poly in sorted(self._table.items()))
        return f"PoissonAlgebra({', '.join(self.variables)}; {entries})"

    def to_json(self) -> dict:
        brackets = {}
        for (i, j) in sorted(self._table):
            key = f"{self.variables[i]},{self.variables[j]}"
            brackets[key] = str(self._table[(i, j)])
        return {"vars": list(self.variables), "brackets": brackets}


def poisson_bracket(algebra: PoissonAlgebra, a: CPoly, b: CPoly) -> CPoly:
    """{a, b} = sum_k {a, x_k} db/dx_k, {a, x_k} from the derivation table."""
    if a.variables != algebra.variables or b.variables != algebra.variables:
        raise ValueError("operands are not over this algebra's variables")
    out: dict[Exponents, Rational] = {}
    for k, row in enumerate(algebra._derivations):
        ad_k: dict[Exponents, Rational] = {}
        for e, c in a.terms.items():
            for i, entry in row:
                if e[i]:  # e_i x^(e - u_i) {x_i, x_k}
                    _add_shifted(ad_k, entry, c * e[i], e[:i] + (e[i] - 1,) + e[i + 1:])
        for eb, cb in b.terms.items():
            if eb[k]:
                _add_shifted(out, ad_k, cb * eb[k],
                             eb[:k] + (eb[k] - 1,) + eb[k + 1:])
    return a._new(out)


def jacobi_residuals(algebra: PoissonAlgebra) -> list[CPoly]:
    """{x,{y,z}} + {y,{z,x}} + {z,{x,y}} for each generator triple."""
    out = []
    gens = [algebra.var(v) for v in algebra.variables]
    for i, j, k in itertools.combinations(range(len(gens)), 3):
        x, y, z = gens[i], gens[j], gens[k]
        residual = (poisson_bracket(algebra, x, poisson_bracket(algebra, y, z))
                    + poisson_bracket(algebra, y, poisson_bracket(algebra, z, x))
                    + poisson_bracket(algebra, z, poisson_bracket(algebra, x, y)))
        out.append(residual)
    return out


def semiclassical_limit(p: PBWPresentation) -> PoissonAlgebra:
    """Bracket table of the commutative fiber at parameter value 1.

    For each generator pair reads the commutator off its swap rule, checks
    that every coefficient vanishes at 1 (else `NotCommutativeAtOne`),
    divides exactly by (par - 1) and evaluates at 1.
    """
    if not p.has_symbolic_parameter():
        raise ValueError(f"{p.name} has no symbolic parameter")
    if not p.is_confluent:
        raise ValueError(f"{p.name}: overlap check failed")
    shift = Scalar.variable(p.coeff_var) - 1
    table: dict[tuple[str, str], CPoly] = {}
    n = len(p.generators)
    for i in range(n):
        for j in range(i + 1, n):
            # [x_i, x_j] = x_i x_j - (c·x_i x_j + tail), x_i x_j first.
            cm = {exps: -c for exps, c in p._rhs(j, i).items()}
            _accumulate(cm, next(iter(cm)), p._one)
            entry: dict[Exponents, Rational] = {}
            for exps, c in cm.items():
                try:
                    at_one = c.evaluate(1)
                except PoleAtPoint as exc:
                    raise NotCommutativeAtOne(
                        f"[{p.generators[i]},{p.generators[j]}] has a pole at 1") from exc
                if at_one != 0:
                    raise NotCommutativeAtOne(
                        f"[{p.generators[i]},{p.generators[j]}] does not vanish at 1: "
                        f"coefficient {c} of {exps}")
                entry[exps] = (c / shift).evaluate(1)
            table[(p.generators[i], p.generators[j])] = CPoly(p.generators, entry)
    return PoissonAlgebra(p.generators, table)


@lru_cache(maxsize=None)
def B1() -> PoissonAlgebra:
    """sl2* with its linear bracket: the semiclassical limit of B, built once."""
    return semiclassical_limit(B())
