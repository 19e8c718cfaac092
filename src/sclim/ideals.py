"""Groebner bases over the rationals, Poisson ideals and non-primeness witnesses.

The engine is Buchberger with the coprime-leading-term criterion and full
interreduction, so the cached basis of a `CommIdeal` is *the* reduced
Groebner basis: auto-reduced, monic, and unique for (ideal, order).  Default
order is degree-reverse-lexicographic with the ambient variable list as
precedence; lexicographic is available.

Pairs wait in a heap and follow Buchberger's normal selection strategy:
smallest lcm first and, among equal lcms, the newest pair.  Each basis
element's leading term is found once, when it enters the basis, and
reduction works on one mutable term dict.  The engine only ever extends a
reduced basis: `groebner` extends the empty one by its generators, and
`CommIdeal.with_extra_generators` extends the ideal's own.  Only pairs with
at least one new element are formed.  Pairs of two old elements would be
wasted work, because the S-polynomial of two elements of a Groebner basis
reduces to zero modulo that basis, and so modulo any larger set.

On top of membership sit the Poisson-theoretic operations: `is_poisson_ideal`
tests bracket stability on basis elements against generators (enough, by
Leibniz), `poisson_closure` augments an ideal with such brackets until the
reduced basis stabilizes, and `nilpotent_nonprime_witness` certifies
non-primeness from a pair g, k with g**k inside and g outside.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional, Sequence

from .errors import BudgetExceeded
from .pbw import _accumulate
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
    return _entry(p.terms, key)[:2]


def _divides(a: Exponents, b: Exponents) -> bool:
    return all(x <= y for x, y in zip(a, b))


def _lcm(a: Exponents, b: Exponents) -> Exponents:
    return tuple(max(x, y) for x, y in zip(a, b))


# The engine works on term dicts.  A basis element is kept as an entry
# (leading exponents, leading coefficient, terms), its leading term found
# once, when it enters the basis.
Terms = dict[Exponents, Fraction]
Entry = tuple[Exponents, Fraction, Terms]


def _entry(terms: Terms, key) -> Entry:
    lead = max(terms, key=key)
    return lead, terms[lead], terms


def _polys(variables: Sequence[str], basis: Sequence[Entry]) -> list[CPoly]:
    zero = CPoly.zero(variables)
    return [zero._new(terms) for _, _, terms in basis]


def _monic_entry(terms: Terms, key) -> Entry:
    lead, c, terms = _entry(terms, key)
    if c != 1:
        terms = {e: x / c for e, x in terms.items()}
    return lead, Fraction(1), terms


def _reduce(terms: Terms, basis: Sequence[Entry], key) -> Terms:
    """Full remainder of multivariate division, on one mutable term dict."""
    work = dict(terms)
    remainder: Terms = {}
    while work:
        exps = max(work, key=key)
        coeff = work.pop(exps)
        for gexps, gcoeff, gterms in basis:
            if _divides(gexps, exps):
                factor = coeff / gcoeff
                shift = tuple(x - y for x, y in zip(exps, gexps))
                for e, c in gterms.items():
                    if e != gexps:  # the leading term cancels exactly
                        _accumulate(work, tuple(x + y for x, y in zip(e, shift)),
                                    -factor * c)
                break
        else:
            remainder[exps] = coeff
    return remainder


def _s_terms(f: Entry, g: Entry) -> Terms:
    """S-polynomial of two entries; the leading terms cancel and are skipped."""
    (fe, fc, ft), (ge, gc, gt) = f, g
    lcm = _lcm(fe, ge)
    out: Terms = {}
    for lead, coeff, terms, sign in ((fe, fc, ft, 1), (ge, gc, gt, -1)):
        shift = tuple(x - y for x, y in zip(lcm, lead))
        scale = sign / coeff
        for e, c in terms.items():
            if e != lead:
                _accumulate(out, tuple(x + y for x, y in zip(e, shift)), c * scale)
    return out


def reduce_poly(p: CPoly, basis: Sequence[CPoly], key) -> CPoly:
    """Full remainder of multivariate division of p by the basis."""
    for g in basis:
        p._check_compatible(g)
    return p._new(_reduce(p.terms, [_entry(g.terms, key) for g in basis], key))


def s_polynomial(f: CPoly, g: CPoly, key) -> CPoly:
    f._check_compatible(g)
    return f._new(_s_terms(_entry(f.terms, key), _entry(g.terms, key)))


def _extend(basis: Sequence[Entry], new: Iterable[Terms], key) -> list[Entry]:
    """Reduced Groebner basis of the ideal of a reduced basis plus `new`.

    Buchberger with B. Buchberger's normal selection strategy: pending pairs
    sit in a heap keyed by (key(lcm), -insertion number), so the smallest
    lcm is taken first and, among equal lcms, the newest pair.  Pairs with
    coprime leading terms are never queued: their S-polynomials reduce to
    zero.  Pairs of two elements of `basis` are never formed either: `basis`
    is a Groebner basis, so their S-polynomials already reduce to zero
    modulo it, and a fortiori modulo any larger set, which is all
    Buchberger's criterion asks of a pair.
    """
    basis = list(basis)
    heap: list = []
    seq = itertools.count()

    def add(terms: Terms) -> None:
        g = _monic_entry(terms, key)
        lead, j = g[0], len(basis)
        for i, (other, _, _) in enumerate(basis):
            lcm = _lcm(other, lead)
            if lcm != tuple(x + y for x, y in zip(other, lead)):
                heapq.heappush(heap, (key(lcm), -next(seq), i, j))
        basis.append(g)

    for terms in new:
        remainder = _reduce(terms, basis, key)
        if remainder:
            add(remainder)
    while heap:
        _, _, i, j = heapq.heappop(heap)
        remainder = _reduce(_s_terms(basis[i], basis[j]), basis, key)
        if remainder:
            add(remainder)
    return _interreduce(basis, key)


def _interreduce(basis: Sequence[Entry], key) -> list[Entry]:
    """Reduced basis from a monic Groebner basis, sorted by leading term.

    Drops every element whose leading monomial another element's divides
    (of equal ones, all but the first), then replaces each survivor's tail
    by its remainder modulo the others; leading monomials do not change, so
    one pass suffices.
    """
    minimal = [g for i, g in enumerate(basis)
               if not any(_divides(h[0], g[0]) and (h[0] != g[0] or k < i)
                          for k, h in enumerate(basis) if k != i)]
    reduced = []
    for i, (lead, coeff, terms) in enumerate(minimal):
        tail = {e: c for e, c in terms.items() if e != lead}
        tail = _reduce(tail, minimal[:i] + minimal[i + 1:], key)
        tail[lead] = coeff
        reduced.append((lead, coeff, tail))
    return sorted(reduced, key=lambda g: key(g[0]))


def groebner(gens: Iterable[CPoly], order: MonomialOrder | None = None,
             variables: Sequence[str] | None = None) -> list[CPoly]:
    """Reduced Groebner basis; deterministic for fixed input and order.

    The empty basis extended by the generators.
    """
    gens = [g for g in gens if not g.is_zero()]
    if not gens:
        return []
    variables = tuple(variables or gens[0].variables)
    order = order or MonomialOrder(precedence=variables)
    key = order.key_for(variables)
    return _polys(gens[0].variables, _extend([], [g.terms for g in gens], key))


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
        self._check_variables(self.generators)
        self.order = order or MonomialOrder(precedence=self.variables)
        self._key = self.order.key_for(self.variables)
        self._set_basis(groebner(self.generators, self.order, self.variables))

    def _check_variables(self, polys: Iterable[CPoly]) -> None:
        for g in polys:
            if g.variables != self.variables:
                raise ValueError("generator over the wrong variable list")

    def _set_basis(self, basis: Iterable[CPoly]) -> None:
        self.reduced_gb = tuple(basis)
        self._basis = [_entry(g.terms, self._key) for g in self.reduced_gb]

    def reduce(self, p: CPoly) -> CPoly:
        """Remainder of p modulo the ideal (zero iff p is a member)."""
        if p.variables != self.variables:
            raise ValueError("polynomial over the wrong variable list")
        if not self.reduced_gb:
            return p
        return p._new(_reduce(p.terms, self._basis, self._key))

    def contains(self, p: CPoly) -> bool:
        return self.reduce(p).is_zero()

    def is_trivial(self) -> bool:
        """True iff the ideal is the whole ring."""
        return any(g.degree() == 0 for g in self.reduced_gb)

    def with_extra_generators(self, extra: Iterable[CPoly]) -> "CommIdeal":
        """The ideal plus `extra`, extending this ideal's reduced basis."""
        extra = tuple(extra)
        self._check_variables(extra)
        out = CommIdeal.__new__(CommIdeal)
        out.variables, out.order, out._key = self.variables, self.order, self._key
        out.generators = self.reduced_gb + extra
        basis = _extend(self._basis, [g.terms for g in extra if g.terms], self._key)
        out._set_basis(_polys(self.variables, basis))
        return out

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

    Each round brackets the basis elements not bracketed before with the
    generators and extends the reduced basis by the brackets outside the
    ideal.  A basis element kept from an earlier round needs no new bracket:
    its brackets already lie in the earlier, smaller ideal.  The ascending
    chain of ideals stabilizes, and the fixpoint is bracket-stable.
    """
    if ideal.variables != algebra.variables:
        raise ValueError("ideal is not over the algebra's variables")
    gens = [algebra.var(v) for v in algebra.variables]
    current = ideal
    bracketed: set[CPoly] = set()
    for _ in range(_MAX_CLOSURE_ROUNDS):
        fresh = [g for g in current.reduced_gb if g not in bracketed]
        bracketed.update(fresh)
        new = [poisson_bracket(algebra, g, x) for g in fresh for x in gens]
        new = [p for p in new if not current.contains(p)]
        if not new:
            return current
        current = current.with_extra_generators(new)
    raise BudgetExceeded(
        f"poisson closure did not stabilize within {_MAX_CLOSURE_ROUNDS} rounds")


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
