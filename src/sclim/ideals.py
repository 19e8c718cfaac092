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
basis of a list of generators or, given a derivation table, of the smallest
Poisson ideal that contains them, and every ideal gets its basis from it:
`CommIdeal.__init__` through `groebner`, a closure from its own run.

The engine runs on packed monomials and integer coefficients (packed
exponent vectors: M. Monagan, R. Pearce, "Polynomial division using dynamic
arrays, heaps, and packed exponent vectors", CASC 2007).  A monomial is one
int made of fixed-width fields, each a linear function of the exponents:
for lex, the exponents, the first variable of the precedence in the most
significant field; for degrevlex, the total degree on top, then deg - a_k
for the variables of the precedence from the last to the second, then the
exponents themselves.  Comparing two such ints compares their fields from
the top, and those fields are the order's sort key (deg - a_k standing for
-a_k between monomials of equal degree), which already determines the
monomial.  So int comparison is the monomial order, `max` over a term dict
needs no key, and, the fields being linear, a product is `+`.  The top bit of each field
is a guard, clear in every valid monomial: x^a divides x^b iff b - a sets
no guard bit, since a field that goes negative borrows into its own guard.
No field ever passes its guard.  Every field is at most the monomial's
degree, and an lcm is packed only below the guard; x^s times a tail is
formed only when s plus the field-wise maximum of the tail sets no guard
bit.  Otherwise `_Overflow` stops the work, which starts again on fields
twice as wide.  Coefficients are integers: a basis element is kept
primitive with a positive leading coefficient, and reduction is
fraction-free, scaling the work and the remainder so far by lc / gcd(c, lc)
when a coefficient c is not a multiple of the divisor's leading coefficient
lc.  `CPoly` is unchanged: polynomials are packed where they enter the
engine and unpacked where they leave it, scaled back to their exact
rational values, the reduced basis monic.

On top of membership sit the Poisson-theoretic operations: `is_poisson_ideal`
tests bracket stability on basis elements against generators (enough, by
Leibniz), `poisson_closure` builds the smallest Poisson ideal containing an
ideal, and `nilpotent_nonprime_witness` certifies non-primeness from a pair
g, k with g**k inside and g outside.  The first two bracket through `_ad`,
which reads `PoissonAlgebra`'s derivation table once per call onto packed terms.

The closure runs inside the Buchberger loop, for every bracket table: given
the derivation table, `_extend` brackets each element that enters the basis
with every variable and reduces those brackets, first in, first out, ahead
of the pairs.  A nonzero remainder enters the basis like an S-polynomial's,
so every basis element brackets into the ideal, which by Leibniz is then
Poisson; and every element that enters has a lead no earlier lead divides,
so the loop ends by Dickson's lemma, as Buchberger's does.
"""

from __future__ import annotations

import heapq
import itertools
from collections import deque
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm
from operator import itemgetter, mul
from typing import Callable, Iterable, Mapping, Optional, Sequence, TypeVar

from .poisson import CPoly, PoissonAlgebra

Exponents = tuple[int, ...]

# Width of one packed exponent field, its guard bit included, before any
# widening: monomials of degree up to 2^15 - 1 fit.
_FIELD_BITS = 16


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

    def key_for(self, variables: Sequence[str]) -> "_Ring":
        """The order over `variables` as the engine's ring, a sort key on exponents."""
        precedence = self.precedence or tuple(variables)
        if (len(set(precedence)) != len(precedence)
                or sorted(precedence) != sorted(variables)):
            raise ValueError("precedence list must mention every variable once")
        return _ring(self.kind, tuple(map(variables.index, precedence)), _FIELD_BITS)


class _Overflow(Exception):
    """A packed exponent field would reach its guard bit."""


class _Ring:
    """A monomial order (`positions`: variable indices, highest precedence
    first) as a sort key on exponents and as their packing, `bits` per field.

    Fields are listed least significant first, each as the coefficients of
    the exponents in it (see the module docstring for the layout).  A
    monomial packs to the sum of exps[i] * weights[i]; `shifts[i]` is the
    position of the field that holds exps[i] itself.
    """

    __slots__ = ("kind", "positions", "bits", "limit", "guard", "weights", "shifts")

    def __init__(self, kind: str, positions: tuple[int, ...], bits: int):
        n = len(positions)
        units = [tuple(int(i == p) for i in range(n)) for p in positions]
        if kind == "lex":
            fields = units[::-1]
        else:
            fields = ([tuple(int(i == k) for i in range(n)) for k in range(n)]
                      + [tuple(1 - u for u in unit) for unit in units[1:]]
                      + [(1,) * n])
        self.kind, self.positions, self.bits = kind, positions, bits
        self.limit = 1 << (bits - 1)
        self.guard = sum(self.limit << (j * bits) for j in range(len(fields)))
        self.weights = tuple(sum(field[i] << (j * bits) for j, field in enumerate(fields))
                             for i in range(n))
        self.shifts = tuple(fields.index(tuple(int(i == k) for i in range(n))) * bits
                            for k in range(n))

    def __call__(self, exps: Exponents):
        """The order's sort key on exponents; `pack` keeps its order."""
        ordered = tuple(exps[p] for p in self.positions)
        if self.kind == "lex":
            return ordered
        return (sum(exps), tuple(-x for x in reversed(ordered)))

    def wider(self) -> "_Ring":
        return _ring(self.kind, self.positions, 2 * self.bits)

    def pack(self, exps: Exponents) -> int:
        if sum(exps) >= self.limit:
            raise _Overflow
        return sum(map(mul, exps, self.weights))

    def unpack(self, m: int) -> Exponents:
        mask = self.limit - 1
        return tuple([(m >> s) & mask for s in self.shifts])

    def top(self, monomials: Iterable[int]) -> int:
        """Field-wise maximum of packed monomials (0 for none), by SWAR: in
        (a | guard) - b each field keeps its guard iff a's field >= b's."""
        guard, low = self.guard, self.bits - 1
        out = 0
        for m in monomials:
            keep = ((out | guard) - m) & guard
            keep -= keep >> low
            out = (out & keep) | (m & ~keep)
        return out


# Rings are built once per (kind, precedence positions, width).
_ring = lru_cache(maxsize=64)(_Ring)


# Term dicts map packed monomials to int coefficients.  A basis element is
# kept as an entry (lead, leading coefficient, tail, field-wise maximum of
# the tail, exponents of the lead), split once, when it enters the basis,
# and divided by its content so that the leading coefficient is positive.
Terms = dict[int, int]
Entry = tuple[int, int, Terms, int, Exponents]
# A derivation row: for one variable x_k, one (shift of x_i's exponent field,
# weight of x_i, packed {x_i, x_k}, its field max) per nonzero table entry.
Row = list[tuple[int, int, Terms, int]]
T = TypeVar("T")


def _on_fields(ring: _Ring, job: Callable[[_Ring], T]) -> tuple[_Ring, T]:
    """(ring, job(ring)) on the narrowest ring, from `ring` up by doubling
    its fields, on which no field overflows."""
    while True:
        try:
            return ring, job(ring)
        except _Overflow:
            ring = ring.wider()


def _denominator(polys: Iterable[Mapping[Exponents, Fraction]]) -> int:
    return lcm(*(c.denominator for terms in polys for c in terms.values()))


def _pack(ring: _Ring, terms: Mapping[Exponents, Fraction], d: int = 0) -> Terms:
    """d times the terms, packed; d clears every denominator, and is their
    lcm unless given."""
    d = d or _denominator([terms])
    return {ring.pack(e): c.numerator * (d // c.denominator) for e, c in terms.items()}


def _unpack(ring: _Ring, terms: Terms, d: int) -> dict[Exponents, Fraction]:
    """The terms divided by d, unpacked."""
    return {ring.unpack(m): Fraction(c, d) for m, c in terms.items()}


def _entry(terms: Terms, ring: _Ring) -> Entry:
    lead = max(terms)
    content = gcd(*terms.values())
    if terms[lead] < 0:
        content = -content
    tail = {m: c // content for m, c in terms.items()} if content != 1 else dict(terms)
    lc = tail.pop(lead)
    return lead, lc, tail, ring.top(tail), ring.unpack(lead)


def _entries(ring: _Ring, polys: Iterable[CPoly]) -> list[Entry]:
    return [_entry(_pack(ring, g.terms), ring) for g in polys]


def _polys(ring: _Ring, variables: Sequence[str], basis: Sequence[Entry]) -> list[CPoly]:
    """Entries as monic polynomials."""
    zero = CPoly.zero(variables)
    return [zero._new(_unpack(ring, {lead: lc, **tail}, lc))
            for lead, lc, tail, *_ in basis]


def _add_shifted(out: Terms, terms: Terms, top: int, factor: int, shift: int,
                 guard: int) -> None:
    """Add factor * x^shift * terms into `out`; `top` is the terms' field max."""
    if (shift + top) & guard:
        raise _Overflow
    get = out.get
    for m, c in terms.items():
        m += shift
        c = get(m, 0) + factor * c
        if c:
            out[m] = c
        else:
            del out[m]


def _reduce(terms: Terms, basis: Sequence[Entry], ring: _Ring) -> tuple[Terms, int]:
    """Full remainder of multivariate division, fraction-free, on one mutable
    term dict: (r, s) with s * terms - r in the ideal of the basis."""
    guard = ring.guard
    work = dict(terms)
    remainder: Terms = {}
    scale = 1
    while work:
        m = max(work)
        c = work.pop(m)
        for g in basis:
            shift = m - g[0]
            if shift & guard:
                continue
            lc = g[1]
            if lc != 1:
                common = gcd(c, lc)
                if common != lc:
                    up = lc // common
                    for e in work:
                        work[e] *= up
                    for e in remainder:
                        remainder[e] *= up
                    scale *= up
                c //= common
            _add_shifted(work, g[2], g[3], -c, shift, guard)
            break
        else:
            remainder[m] = c
    return remainder, scale


def _s_terms(f: Entry, g: Entry, lcm_fg: int, ring: _Ring) -> Terms:
    """S-polynomial of two entries times lcm(lc_f, lc_g), x^lcm_fg the lcm of
    their leads, from their tails: the leading terms cancel."""
    common = gcd(f[1], g[1])
    out: Terms = {}
    if f[2]:
        _add_shifted(out, f[2], f[3], g[1] // common, lcm_fg - f[0], ring.guard)
    if g[2]:
        _add_shifted(out, g[2], g[3], -(f[1] // common), lcm_fg - g[0], ring.guard)
    return out


def reduce_poly(p: CPoly, basis: Sequence[CPoly], key) -> CPoly:
    """Full remainder of multivariate division of p by the basis; `key`
    comes from `MonomialOrder.key_for`."""
    for g in basis:
        p._check_compatible(g)
    d = _denominator([p.terms])

    def job(ring: _Ring) -> dict:
        remainder, scale = _reduce(_pack(ring, p.terms, d), _entries(ring, basis), ring)
        return _unpack(ring, remainder, d * scale)

    return p._new(_on_fields(key, job)[1])


def s_polynomial(f: CPoly, g: CPoly, key) -> CPoly:
    f._check_compatible(g)

    def job(ring: _Ring) -> dict:
        a, b = _entries(ring, [f, g])
        lcm_ab = ring.pack(tuple(map(max, a[4], b[4])))
        # Packing scaled f by lc_a / LC(f), and g likewise.
        d = lcm(a[1], b[1])
        return _unpack(ring, _s_terms(a, b, lcm_ab, ring), d)

    return f._new(_on_fields(key, job)[1])


def _extend(new: Iterable[Terms], ring: _Ring, rows: Sequence[Row] = ()) -> list[Entry]:
    """Reduced Groebner basis of the ideal generated by `new` or, given the
    derivation table's `rows` (`_derivations`), of the smallest Poisson
    ideal that contains `new`.

    Buchberger with B. Buchberger's normal selection strategy: pending pairs
    sit in a heap keyed by (lcm, -insertion number), so the smallest lcm is
    taken first and, among equal lcms, the newest pair.  Pairs with coprime
    leading terms are never queued: their S-polynomials reduce to zero.
    `new` is taken smallest leading term first, by a stable sort, so the
    work does not depend on its order.  With `rows`, each element that
    enters the basis is bracketed with every variable, and the brackets are
    reduced first in, first out, ahead of the heap (see the module
    docstring).
    """
    basis: list[Entry] = []
    heap: list = []
    brackets: deque[Terms] = deque()
    seq = itertools.count()

    def add(terms: Terms) -> None:
        g = _entry(terms, ring)
        lead, j = g[4], len(basis)
        for i, other in enumerate(basis):
            if any(map(min, other[4], lead)):
                lcm_ij = ring.pack(tuple(map(max, other[4], lead)))
                heapq.heappush(heap, (lcm_ij, -next(seq), i, j))
        basis.append(g)
        if rows:
            terms = {g[0]: g[1], **g[2]}
            brackets.extend(_ad(terms, row, ring) for row in rows)

    for terms in sorted((t for t in new if t), key=max):
        remainder, _ = _reduce(terms, basis, ring)
        if remainder:
            add(remainder)
    while brackets or heap:
        if brackets:
            s = brackets.popleft()
        else:
            lcm_ij, _, i, j = heapq.heappop(heap)
            s = _s_terms(basis[i], basis[j], lcm_ij, ring)
        if s and (remainder := _reduce(s, basis, ring)[0]):
            add(remainder)
    return _interreduce(basis, ring)


def _interreduce(basis: Sequence[Entry], ring: _Ring) -> list[Entry]:
    """Reduced basis from a Groebner basis, sorted by leading term.

    Drops every element whose leading monomial another element's divides
    (of equal ones, all but the first), then replaces each survivor's tail
    by its remainder modulo the survivors; leading monomials do not change,
    and no lead divides a term below itself, so one pass suffices.
    """
    guard = ring.guard
    minimal: list[Entry] = []
    for g in sorted(basis, key=itemgetter(0)):
        if all((g[0] - h[0]) & guard for h in minimal):
            minimal.append(g)
    out = []
    for lead, lc, tail, _, _ in minimal:
        remainder, scale = _reduce(tail, minimal, ring)
        out.append(_entry({lead: lc * scale, **remainder}, ring))
    return out


class _Basis(list):
    """A reduced basis as monic polynomials, carrying the engine's packed
    basis and its ring for `CommIdeal`."""

    __slots__ = ("ring", "entries")


def groebner(gens: Iterable[CPoly], order: MonomialOrder | None = None,
             variables: Sequence[str] | None = None) -> list[CPoly]:
    """Reduced Groebner basis; deterministic for fixed input and order."""
    gens = list(gens)
    if not gens and variables is None:
        return []
    variables = tuple(gens[0].variables if variables is None else variables)
    if any(g.variables != variables for g in gens):
        raise ValueError("generator over the wrong variable list")
    gens = [g for g in gens if not g.is_zero()]
    order = order or MonomialOrder(precedence=variables)
    ring, entries = _on_fields(order.key_for(variables), lambda ring: _extend(
        [_pack(ring, g.terms) for g in gens], ring))
    basis = _Basis(_polys(ring, variables, entries))
    basis.ring, basis.entries = ring, entries
    return basis


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
        self.order = order or MonomialOrder(precedence=self.variables)
        basis = groebner(self.generators, self.order, self.variables)
        self.reduced_gb = tuple(basis)
        # The engine's packed basis and its ring, as `groebner` left them.
        self._ring, self._basis = basis.ring, basis.entries

    @classmethod
    def _of_basis(cls, like: "CommIdeal", ring: _Ring, entries: list[Entry]) -> "CommIdeal":
        """The ideal over `like`'s variables and order whose reduced basis,
        packed on `ring`, is `entries`; that basis is its generators too."""
        ideal = cls.__new__(cls)
        ideal.variables, ideal.order = like.variables, like.order
        ideal.generators = ideal.reduced_gb = tuple(_polys(ring, like.variables, entries))
        ideal._ring, ideal._basis = ring, entries
        return ideal

    def _run(self, job: Callable[[_Ring, list[Entry]], T]) -> tuple[_Ring, T]:
        """(ring, job(ring, basis)) on the packed basis; should a field
        overflow, on the basis packed again at twice the width, and so on."""
        return _on_fields(self._ring, lambda ring: job(
            ring, self._basis if ring is self._ring else _entries(ring, self.reduced_gb)))

    def _remainder(self, p: CPoly) -> tuple[_Ring, Terms, int]:
        """(ring, r, d): r / d packed on the ring is p's remainder."""
        if p.variables != self.variables:
            raise ValueError("polynomial over the wrong variable list")
        d = _denominator([p.terms])
        ring, (remainder, scale) = self._run(
            lambda ring, basis: _reduce(_pack(ring, p.terms, d), basis, ring))
        return ring, remainder, d * scale

    def reduce(self, p: CPoly) -> CPoly:
        """Remainder of p modulo the ideal (zero iff p is a member)."""
        return p._new(_unpack(*self._remainder(p)))

    def contains(self, p: CPoly) -> bool:
        return not self._remainder(p)[1]

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


def _derivations(algebra: PoissonAlgebra, ring: _Ring) -> tuple[list[Row], int]:
    """The algebra's derivation table on packed terms, once per call, every
    entry times the entries' common denominator d: (rows by k, d).  A
    constant factor changes no membership."""
    table = algebra._derivations
    d = _denominator(terms for row in table for _, terms in row)
    rows = []
    for row in table:
        packed = []
        for i, terms in row:
            entry = _pack(ring, terms, d)
            packed.append((ring.shifts[i], ring.weights[i], entry, ring.top(entry)))
        rows.append(packed)
    return rows, d


def _ad(terms: Terms, row: Row, ring: _Ring) -> Terms:
    """d * {p, x_k} for p given by its packed terms and x_k by its row:
    {x^a, x_k} = sum_i a_i x^(a - u_i) {x_i, x_k}."""
    out: Terms = {}
    mask, guard = ring.limit - 1, ring.guard
    for m, c in terms.items():
        for shift, unit, entry, top in row:
            a = (m >> shift) & mask
            if a:
                _add_shifted(out, entry, top, c * a, m - unit, guard)
    return out


def is_poisson_ideal(ideal: CommIdeal, algebra: PoissonAlgebra) -> bool:
    """True iff {g, x} lies in the ideal for every basis element g and
    variable x; by Leibniz this already gives {I, A} contained in I."""
    if ideal.variables != algebra.variables:
        raise ValueError("ideal is not over the algebra's variables")

    def job(ring: _Ring, basis: list[Entry]) -> bool:
        rows, _ = _derivations(algebra, ring)
        return not any(_reduce(_ad({lead: lc, **tail}, row, ring), basis, ring)[0]
                       for lead, lc, tail, _, _ in basis for row in rows)

    return ideal._run(job)[1]


def poisson_closure(ideal: CommIdeal, algebra: PoissonAlgebra) -> CommIdeal:
    """Smallest Poisson ideal containing the given one: one run of `_extend`
    with the algebra's derivation table, whatever the degree of its entries.

    The run starts from the ideal's generators, not its reduced basis, whose
    ring multiples (e^(n-1)h^2 and the like) would each be bracketed too.
    """
    if ideal.variables != algebra.variables:
        raise ValueError("ideal is not over the algebra's variables")
    ring, entries = _on_fields(ideal._ring, lambda ring: _extend(
        [_pack(ring, g.terms) for g in ideal.generators], ring,
        _derivations(algebra, ring)[0]))
    return CommIdeal._of_basis(ideal, ring, entries)


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
