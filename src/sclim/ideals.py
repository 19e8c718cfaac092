"""Groebner bases over the rationals, Poisson ideals and non-primeness witnesses.

The engine is Buchberger with the coprime-leading-term criterion and full
interreduction, so the cached basis of a `CommIdeal` is *the* reduced
Groebner basis: auto-reduced, monic, and unique for (ideal, order).  Default
order is degree-reverse-lexicographic with the ambient variable list as
precedence; lexicographic is available.

Pairs wait in a heap and follow Buchberger's normal selection strategy:
smallest lcm first and, among equal lcms, the newest pair.  Each basis
element is split once, when it enters the basis, into its leading term and
its tail; reduction works on one mutable term dict and adds only tails, so
no leading term is added just to cancel.  The engine computes the reduced
basis of a list of generators and nothing else; `CommIdeal.__init__` is the
only way to build an ideal, and every ideal gets its basis from `groebner`.

On top of membership sit the Poisson-theoretic operations: `is_poisson_ideal`
tests bracket stability on basis elements against generators (enough, by
Leibniz), `poisson_closure` builds the smallest Poisson ideal containing an
ideal, and `nilpotent_nonprime_witness` certifies non-primeness from a pair
g, k with g**k inside and g outside.  All three bracket through
`PoissonAlgebra.ad`, {p, x_k} on term dicts.

The closure has two routes, picked from the bracket table alone.  When every
entry {x_i, x_j} has degree <= 1 (a Lie-Poisson table, possibly with
constants, such as B1 = sl2*), ad_x = {-, x} never raises degree.  The
smallest subspace M that contains the ideal's generators and is stable under
every ad_x is then finite-dimensional, and the closure is the ideal (M): by
Leibniz, {a*m, x} = {a, x}*m + a*{m, x} lies in (M) for every m in M, so (M)
is Poisson, and every Poisson ideal that contains the generators contains
M.  M is spanned breadth-first against a row echelon, and the closure costs
one Groebner basis.  A table with an entry of degree >= 2 takes rounds of
bracketing what the last round added and extending the basis by it.
"""

from __future__ import annotations

import heapq
import itertools
import operator
from fractions import Fraction
from typing import Iterable, Optional, Sequence

from .errors import BudgetExceeded
from .pbw import _add_scaled, _add_shifted
from .poisson import CPoly, PoissonAlgebra

Exponents = tuple[int, ...]

# Rounds of `_closure_by_rounds`, whose ascending chain of ideals has no
# bound known in advance.  The span route of `poisson_closure` needs no cap.
_MAX_CLOSURE_ROUNDS = 1000


# The records here and in `limitmap` are plain slotted classes: `dataclasses`
# would cost every cold `verify-paper`, `closure` and `member` process the
# import of `inspect`, `ast` and `dis`, and each record an `exec`.
class MonomialOrder:
    """Total degree-compatible monomial order with explicit precedence."""

    __slots__ = ("kind", "precedence")

    def __init__(self, kind: str = "degrevlex", precedence: tuple[str, ...] = ()):
        if kind not in ("degrevlex", "lex"):
            raise ValueError(f"unknown order kind {kind!r}")
        self.kind = kind
        self.precedence = precedence

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, MonomialOrder):
            return NotImplemented
        return (self.kind, self.precedence) == (other.kind, other.precedence)

    def __hash__(self) -> int:
        return hash((self.kind, self.precedence))

    def __repr__(self) -> str:
        return f"MonomialOrder(kind={self.kind!r}, precedence={self.precedence!r})"

    def key_for(self, variables: Sequence[str]):
        """Sort key on exponent vectors over `variables`; larger = bigger."""
        precedence = self.precedence or tuple(variables)
        if (len(set(precedence)) != len(precedence)
                or sorted(precedence) != sorted(variables)):
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


def _divides(a: Exponents, b: Exponents) -> bool:
    return all(x <= y for x, y in zip(a, b))


def _lcm(a: Exponents, b: Exponents) -> Exponents:
    return tuple(max(x, y) for x, y in zip(a, b))


def _shift(a: Exponents, b: Exponents) -> Exponents:
    """The exponents of x^a / x^b, for b dividing a."""
    return tuple(map(operator.sub, a, b))


# The engine works on term dicts.  A basis element is kept as an entry
# (leading exponents, leading coefficient, tail), split once, when it enters
# the basis; the tail holds every other term.
Terms = dict[Exponents, Fraction]
Entry = tuple[Exponents, Fraction, Terms]
_ONE = Fraction(1)


def _entry(terms: Terms, key) -> Entry:
    lead = max(terms, key=key)
    tail = dict(terms)
    return lead, tail.pop(lead), tail


def _polys(variables: Sequence[str], basis: Sequence[Entry]) -> list[CPoly]:
    zero = CPoly.zero(variables)
    return [zero._new({lead: coeff, **tail}) for lead, coeff, tail in basis]


def _monic_entry(terms: Terms, key) -> Entry:
    lead, c, tail = _entry(terms, key)
    if c != 1:
        tail = {e: x / c for e, x in tail.items()}
    return lead, _ONE, tail


def _reduce(terms: Terms, basis: Sequence[Entry], key) -> Terms:
    """Full remainder of multivariate division, on one mutable term dict."""
    work = dict(terms)
    remainder: Terms = {}
    while work:
        exps = max(work, key=key)
        coeff = work.pop(exps)
        for gexps, gcoeff, gtail in basis:
            if _divides(gexps, exps):
                _add_shifted(work, gtail, -coeff / gcoeff, _shift(exps, gexps))
                break
        else:
            remainder[exps] = coeff
    return remainder


def _s_terms(f: Entry, g: Entry) -> Terms:
    """S-polynomial of two entries, from their tails: the leading terms cancel."""
    (fe, fc, ft), (ge, gc, gt) = f, g
    lcm = _lcm(fe, ge)
    out: Terms = {}
    _add_shifted(out, ft, 1 / fc, _shift(lcm, fe))
    _add_shifted(out, gt, -1 / gc, _shift(lcm, ge))
    return out


def reduce_poly(p: CPoly, basis: Sequence[CPoly], key) -> CPoly:
    """Full remainder of multivariate division of p by the basis."""
    for g in basis:
        p._check_compatible(g)
    return p._new(_reduce(p.terms, [_entry(g.terms, key) for g in basis], key))


def s_polynomial(f: CPoly, g: CPoly, key) -> CPoly:
    f._check_compatible(g)
    return f._new(_s_terms(_entry(f.terms, key), _entry(g.terms, key)))


def _extend(new: Iterable[Terms], key) -> list[Entry]:
    """Reduced Groebner basis of the ideal generated by `new`.

    Buchberger with B. Buchberger's normal selection strategy: pending pairs
    sit in a heap keyed by (key(lcm), -insertion number), so the smallest
    lcm is taken first and, among equal lcms, the newest pair.  Pairs with
    coprime leading terms are never queued: their S-polynomials reduce to
    zero.  `new` is taken smallest leading term first, by a stable sort, so
    the work does not depend on its order.
    """
    basis: list[Entry] = []
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

    for terms in sorted((t for t in new if t), key=lambda t: key(max(t, key=key))):
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
    reduced = [(lead, coeff, _reduce(tail, minimal[:i] + minimal[i + 1:], key))
               for i, (lead, coeff, tail) in enumerate(minimal)]
    return sorted(reduced, key=lambda g: key(g[0]))


def groebner(gens: Iterable[CPoly], order: MonomialOrder | None = None,
             variables: Sequence[str] | None = None) -> list[CPoly]:
    """Reduced Groebner basis; deterministic for fixed input and order."""
    gens = [g for g in gens if not g.is_zero()]
    if not gens:
        return []
    variables = tuple(variables or gens[0].variables)
    order = order or MonomialOrder(precedence=variables)
    key = order.key_for(variables)
    return _polys(gens[0].variables, _extend([g.terms for g in gens], key))


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
        if any(g.variables != self.variables for g in self.generators):
            raise ValueError("generator over the wrong variable list")
        self.order = order or MonomialOrder(precedence=self.variables)
        self._key = self.order.key_for(self.variables)
        self.reduced_gb = tuple(groebner(self.generators, self.order, self.variables))
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
    return not any(_reduce(algebra.ad(g.terms, k), ideal._basis, ideal._key)
                   for g in ideal.reduced_gb for k in range(len(algebra.variables)))


def poisson_closure(ideal: CommIdeal, algebra: PoissonAlgebra) -> CommIdeal:
    """Smallest Poisson ideal containing the given one.

    For a table whose entries all have degree <= 1 this is (M), M the
    smallest ad-stable span of the ideal's generators (see the module
    docstring).  Each breadth-first level brackets the vectors new at the
    level before with every variable and keeps their remainders modulo a
    fully reduced row echelon of M so far; the closure is then the reduced
    Groebner basis of M in the ideal's order.  M starts from the generators,
    not the reduced basis, whose ring multiples (e^(n-1)h^2 and the like)
    would make it far larger.  Other tables go to `_closure_by_rounds`.
    Linear brackets never raise degree, so M lies in the polynomials of
    degree at most the generators' top degree; each level adds at least one
    dimension to M, so the levels end without a cap.
    """
    if ideal.variables != algebra.variables:
        raise ValueError("ideal is not over the algebra's variables")
    if any(p.degree() > 1 for p in algebra._table.values()):
        return _closure_by_rounds(ideal, algebra)
    n = len(algebra.variables)
    key = ideal._key
    # pivot -> tail of the monic row with that pivot; no tail holds a pivot.
    rows: dict[Exponents, Terms] = {}

    def insert(terms: Terms) -> Terms:
        """Remainder of `terms` modulo the rows, added to them when nonzero."""
        work = dict(terms)
        for pivot in [e for e in work if e in rows]:
            _add_scaled(work, rows[pivot], -work.pop(pivot))
        if not work:
            return work
        pivot, _, tail = _monic_entry(work, key)
        for row in rows.values():
            c = row.pop(pivot, None)
            if c:
                _add_scaled(row, tail, -c)
        rows[pivot] = tail
        return {pivot: _ONE, **tail}

    level = [r for g in ideal.generators if (r := insert(g.terms))]
    spanned = len(rows)
    while level:
        level = [r for t in level for k in range(n)
                 if (r := insert(algebra.ad(t, k)))]
    if len(rows) == spanned:  # the generators span an ad-stable space
        return ideal
    basis = [(pivot, _ONE, tail) for pivot, tail in rows.items()]
    return CommIdeal(ideal.variables, _polys(ideal.variables, basis), ideal.order)


def _closure_by_rounds(ideal: CommIdeal, algebra: PoissonAlgebra) -> CommIdeal:
    """Poisson closure for any bracket table, by rounds of new bases.

    Each round brackets the remainders the round before added (at first, the
    ideal's generators) with every variable, and takes the ideal generated
    by the current reduced basis and the remainders of those brackets.
    Earlier generators need no new bracket: theirs lie in the current ideal
    already.  So the round that adds nothing leaves an ideal whose
    generators all bracket into it, which by Leibniz is Poisson.  The
    ascending chain of ideals stabilizes.
    """
    zero = CPoly.zero(ideal.variables)
    n = len(algebra.variables)
    current, fresh = ideal, ideal.generators
    for _ in range(_MAX_CLOSURE_ROUNDS):
        fresh = [zero._new(r) for g in fresh for k in range(n)
                 if (r := _reduce(algebra.ad(g.terms, k), current._basis,
                                  current._key))]
        if not fresh:
            return current
        current = CommIdeal(current.variables, current.reduced_gb + tuple(fresh),
                            current.order)
    raise BudgetExceeded(
        f"poisson closure did not stabilize within {_MAX_CLOSURE_ROUNDS} rounds")


class PrimalityCertificate:
    """Outcome of the nilpotent-witness test.

    For a `NotPrime` verdict, `witness` and `power` satisfy
    witness**power in I and witness not in I, re-checked on construction.
    """

    __slots__ = ("verdict", "ideal", "witness", "power")

    def __init__(self, verdict: str, ideal: CommIdeal,
                 witness: Optional[CPoly] = None, power: Optional[int] = None):
        if verdict not in ("NotPrime", "Inconclusive"):
            raise ValueError(f"unknown verdict {verdict!r}")
        if verdict == "NotPrime":
            if witness is None or power is None:
                raise ValueError("NotPrime requires a witness and power")
            if ideal.contains(witness):
                raise ValueError("witness lies in the ideal")
            if not ideal.contains(witness ** power):
                raise ValueError("witness power does not lie in the ideal")
        self.verdict = verdict          # "NotPrime" | "Inconclusive"
        self.ideal = ideal
        self.witness = witness
        self.power = power


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
