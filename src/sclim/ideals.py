"""Groebner bases over the rationals, Poisson ideals and non-primeness witnesses.

The engine is plain Buchberger with the coprime-leading-term criterion and
full interreduction, so the cached basis of a `CommIdeal` is *the* reduced
Groebner basis: auto-reduced, monic, and unique for (ideal, order).  Default
order is degree-reverse-lexicographic with the ambient variable list as
precedence; lexicographic is available.

On top of membership sit the Poisson-theoretic operations: `is_poisson_ideal`
tests bracket stability on basis elements against generators (enough, by
Leibniz), `poisson_closure` augments an ideal with such brackets until the
reduced basis stabilizes, and `nilpotent_nonprime_witness` certifies
non-primeness from a pair g, k with g**k inside and g outside.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional, Sequence

from .poisson import CPoly, PoissonAlgebra, poisson_bracket

Exponents = tuple[int, ...]

_MAX_CLOSURE_ROUNDS = 100


@dataclass(frozen=True)
class MonomialOrder:
    """Total degree-compatible monomial order with explicit precedence."""

    kind: str = "degrevlex"
    precedence: tuple[str, ...] = ()

    def __post_init__(self):
        if self.kind not in ("degrevlex", "lex"):
            raise ValueError(f"unknown order kind {self.kind!r}")

    def key_for(self, variables: Sequence[str]):
        """Sort key on exponent vectors over `variables`; larger = bigger."""
        precedence = self.precedence or tuple(variables)
        if set(precedence) != set(variables):
            raise ValueError("precedence list must mention every variable once")
        positions = [variables.index(v) for v in precedence]
        if self.kind == "lex":
            def key(exps: Exponents):
                return tuple(exps[p] for p in positions)
        else:
            def key(exps: Exponents):
                ordered = [exps[p] for p in positions]
                return (sum(exps), tuple(-x for x in reversed(ordered)))
        return key


def leading_term(p: CPoly, key) -> tuple[Exponents, Fraction]:
    exps = max(p.terms, key=key)
    return exps, p.terms[exps]


def _divides(a: Exponents, b: Exponents) -> bool:
    return all(x <= y for x, y in zip(a, b))


def _quot(a: Exponents, b: Exponents) -> Exponents:
    return tuple(x - y for x, y in zip(a, b))


def _lcm(a: Exponents, b: Exponents) -> Exponents:
    return tuple(max(x, y) for x, y in zip(a, b))


def reduce_poly(p: CPoly, basis: Sequence[CPoly], key) -> CPoly:
    """Full remainder of multivariate division of p by the basis."""
    remainder = CPoly.zero(p.variables)
    lead = [leading_term(g, key) for g in basis]
    work = p
    while not work.is_zero():
        exps, coeff = leading_term(work, key)
        for g, (gexps, gcoeff) in zip(basis, lead):
            if _divides(gexps, exps):
                factor = CPoly.monomial(_quot(exps, gexps), coeff / gcoeff,
                                        p.variables)
                work = work - factor * g
                break
        else:
            work = work - CPoly.monomial(exps, coeff, p.variables)
            remainder = remainder + CPoly.monomial(exps, coeff, p.variables)
    return remainder


def s_polynomial(f: CPoly, g: CPoly, key) -> CPoly:
    (fe, fc), (ge, gc) = leading_term(f, key), leading_term(g, key)
    lcm = _lcm(fe, ge)
    mf = CPoly.monomial(_quot(lcm, fe), Fraction(1) / fc, f.variables)
    mg = CPoly.monomial(_quot(lcm, ge), Fraction(1) / gc, g.variables)
    return mf * f - mg * g


def _monic(p: CPoly, key) -> CPoly:
    _, c = leading_term(p, key)
    return p.scale(Fraction(1) / c)


def groebner(gens: Iterable[CPoly], order: MonomialOrder | None = None,
             variables: Sequence[str] | None = None) -> list[CPoly]:
    """Reduced Groebner basis; deterministic for fixed input and order."""
    gens = [g for g in gens if not g.is_zero()]
    if not gens:
        return []
    variables = tuple(variables or gens[0].variables)
    order = order or MonomialOrder(precedence=variables)
    key = order.key_for(variables)

    basis = [_monic(g, key) for g in gens]
    pairs = [(i, j) for i in range(len(basis)) for j in range(i + 1, len(basis))]
    while pairs:
        # Normal selection: smallest lcm first, for determinism and speed.
        pairs.sort(key=lambda ij: key(_lcm(leading_term(basis[ij[0]], key)[0],
                                           leading_term(basis[ij[1]], key)[0])),
                   reverse=True)
        i, j = pairs.pop()
        fe = leading_term(basis[i], key)[0]
        ge = leading_term(basis[j], key)[0]
        if _lcm(fe, ge) == tuple(x + y for x, y in zip(fe, ge)):
            continue  # coprime leading terms: S-polynomial reduces to zero
        s = reduce_poly(s_polynomial(basis[i], basis[j], key), basis, key)
        if s.is_zero():
            continue
        basis.append(_monic(s, key))
        pairs.extend((k, len(basis) - 1) for k in range(len(basis) - 1))
    return _interreduce(basis, key, variables)


def _interreduce(basis: list[CPoly], key, variables: Sequence[str]) -> list[CPoly]:
    # Drop elements whose leading term another element's leading term divides,
    # then tail-reduce each survivor against the rest.
    basis = list(basis)
    changed = True
    while changed:
        changed = False
        for idx in range(len(basis)):
            rest = basis[:idx] + basis[idx + 1:]
            if not rest:
                continue
            reduced = reduce_poly(basis[idx], rest, key)
            if reduced.is_zero():
                basis.pop(idx)
                changed = True
                break
            reduced = _monic(reduced, key)
            if reduced != basis[idx]:
                basis[idx] = reduced
                changed = True
                break
    return sorted(basis, key=lambda g: key(leading_term(g, key)[0]))


class CommIdeal:
    """Ideal with an eagerly computed reduced Groebner basis."""

    def __init__(self, ambient: PoissonAlgebra | Sequence[str],
                 generators: Iterable[CPoly],
                 order: MonomialOrder | None = None):
        if isinstance(ambient, PoissonAlgebra):
            self.variables = ambient.variables
        else:
            self.variables = tuple(ambient)
        self.generators = tuple(generators)
        for g in self.generators:
            if g.variables != self.variables:
                raise ValueError("generator over the wrong variable list")
        self.order = order or MonomialOrder(precedence=self.variables)
        self._key = self.order.key_for(self.variables)
        self.reduced_gb = tuple(groebner(self.generators, self.order,
                                         self.variables))

    def reduce(self, p: CPoly) -> CPoly:
        """Remainder of p modulo the ideal (zero iff p is a member)."""
        if not self.reduced_gb:
            return p
        return reduce_poly(p, self.reduced_gb, self._key)

    def contains(self, p: CPoly) -> bool:
        return self.reduce(p).is_zero()

    def is_trivial(self) -> bool:
        """True iff the ideal is the whole ring."""
        return any(g.degree() == 0 for g in self.reduced_gb)

    def with_extra_generators(self, extra: Iterable[CPoly]) -> "CommIdeal":
        return CommIdeal(self.variables, list(self.reduced_gb) + list(extra),
                         self.order)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CommIdeal):
            return NotImplemented
        return ideal_equal(self, other)

    __hash__ = None

    def __repr__(self) -> str:
        return f"CommIdeal<{', '.join(str(g) for g in self.reduced_gb)}>"

    def basis_strings(self) -> list[str]:
        """Deterministic serialization: basis as strings, sorted by leading term."""
        return [str(g) for g in self.reduced_gb]


def membership(p: CPoly, ideal: CommIdeal) -> tuple[bool, CPoly]:
    """Membership verdict together with the division remainder."""
    remainder = ideal.reduce(p)
    return remainder.is_zero(), remainder


def ideal_equal(a: CommIdeal, b: CommIdeal) -> bool:
    """True iff the reduced bases coincide (same ambient, same order)."""
    if a.variables != b.variables or a.order != b.order:
        raise ValueError("ideals live in different ambient settings")
    return list(a.reduced_gb) == list(b.reduced_gb)


def is_poisson_ideal(ideal: CommIdeal, algebra: PoissonAlgebra) -> bool:
    """True iff {g, x} lies in the ideal for every basis element g and
    variable x; by Leibniz this already gives {I, A} contained in I."""
    if ideal.variables != algebra.variables:
        raise ValueError("ideal is not over the algebra's variables")
    gens = [algebra.var(v) for v in algebra.variables]
    return all(ideal.contains(poisson_bracket(algebra, g, x))
               for g in ideal.reduced_gb for x in gens)


def poisson_closure(ideal: CommIdeal, algebra: PoissonAlgebra) -> CommIdeal:
    """Smallest Poisson ideal containing the given one.

    Each round adjoins the brackets of all current basis elements with the
    generators and recomputes the reduced basis; the ascending chain of
    ideals stabilizes, and the fixpoint is bracket-stable.
    """
    if ideal.variables != algebra.variables:
        raise ValueError("ideal is not over the algebra's variables")
    gens = [algebra.var(v) for v in algebra.variables]
    current = ideal
    for _ in range(_MAX_CLOSURE_ROUNDS):
        new = [poisson_bracket(algebra, g, x)
               for g in current.reduced_gb for x in gens]
        new = [p for p in new if not current.contains(p)]
        if not new:
            return current
        current = current.with_extra_generators(new)
    raise RuntimeError("poisson closure did not stabilize")


@dataclass(frozen=True)
class PrimalityCertificate:
    """Outcome of the nilpotent-witness test.

    For a `NotPrime` verdict, `witness` and `power` satisfy
    witness**power in I and witness not in I, re-checked in __post_init__.
    """

    verdict: str                    # "NotPrime" | "Inconclusive"
    ideal: CommIdeal
    witness: Optional[CPoly] = None
    power: Optional[int] = None

    def __post_init__(self):
        if self.verdict not in ("NotPrime", "Inconclusive"):
            raise ValueError(f"unknown verdict {self.verdict!r}")
        if self.verdict == "NotPrime":
            if self.witness is None or self.power is None:
                raise ValueError("NotPrime requires a witness and power")
            if self.ideal.contains(self.witness):
                raise ValueError("witness lies in the ideal")
            if not self.ideal.contains(self.witness ** self.power):
                raise ValueError("witness power does not lie in the ideal")

    def to_json(self) -> dict:
        out = {"verdict": self.verdict}
        if self.verdict == "NotPrime":
            out["witness"] = str(self.witness)
            out["power"] = self.power
        return out


def nilpotent_nonprime_witness(ideal: CommIdeal, g: CPoly,
                               k_max: int) -> PrimalityCertificate:
    """Search for the least k <= k_max with g**k in the ideal while g is not.

    Such a pair certifies the ideal is not prime (a prime ideal containing
    g**k contains g).  Returns Inconclusive when g is already a member or no
    power lands inside.
    """
    if ideal.contains(g):
        return PrimalityCertificate("Inconclusive", ideal)
    power = g
    for k in range(2, k_max + 1):
        power = power * g
        if ideal.contains(power):
            return PrimalityCertificate("NotPrime", ideal, g, k)
    return PrimalityCertificate("Inconclusive", ideal)
