"""Noncommutative algebras with ordered generators and swap-rule rewriting.

An algebra is given by a `PBWPresentation`: an ordered list of generators and,
for every out-of-order pair j > i, a rule

    x_j * x_i  =  c * x_i * x_j  +  tail

with `c` a nonzero scalar and `tail` a normal-form combination of total degree
at most two.  Elements (`NCPoly`) are stored in normal form: a map from
exponent vectors to scalars, the exponent vector (i, j, k) standing for the
ordered monomial x_0^i x_1^j x_2^k.

Multiplication reads products of a normal monomial and one generator from a
memoized table, which the swap rules fill one generator at a time on packed
ints (see `PBWPresentation._times`).  The rules are degree-compatible
(rewriting never raises total degree), so products terminate and normal
forms are well defined whenever the overlap check below passes.

`check_pbw_overlaps` is the confluence certificate: for every generator triple
k > j > i it reduces x_k x_j x_i along both association orders, through the
same product table, and compares the results.  If all triples agree, the
ordered monomials are a basis.
"""

from __future__ import annotations

import itertools
import math
import operator
import time
from fractions import Fraction
from functools import lru_cache, reduce
from typing import Iterable, Mapping, Optional, Sequence

from .arith import Rational, Scalar, UniPoly, _as_rational, _canonical, _over, _unit
from .errors import BudgetExceeded, MixedPresentations

Exponents = tuple[int, ...]

# Entries a presentation's product table holds before it is emptied.
_MAX_TABLE_ENTRIES = 20_000

# Entries a presentation's fiber memo holds at most.
_MAX_FIBERS = 64

# Bits per coefficient at which a new product table packs its numerators.
_START_WIDTH = 128


class SwapRule:
    """x_j * x_i  ->  coeff * x_i * x_j + tail  (tail: exponents -> Scalar);
    `ints` is `_split` of coeff, keyed None, and of the tail, keyed by word."""

    __slots__ = ("coeff", "tail", "ints")

    def __init__(self, coeff: Scalar, tail: Mapping[Exponents, Scalar]):
        if coeff.is_zero():
            raise ValueError("swap coefficient must be nonzero")
        self.coeff = coeff
        self.tail = {exps: c for exps, c in tail.items() if not c.is_zero()}
        self.ints = _split({None: coeff, **{_exponents_to_word(t): c
                                            for t, c in self.tail.items()}})[3]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SwapRule):
            return NotImplemented
        return self.coeff == other.coeff and self.tail == other.tail

    __hash__ = None


class PBWPresentation:
    """Ordered generators plus swap rules.

    Fixed once constructed, except two memos, each written without a lock.
    The product table `_table` maps a normal monomial m and a generator index
    i to the record of m·x_i, for every such product with a generator of m
    above i, and a pair (a, b) of normal monomials, b with more than one
    generator, to the record of a·b when it is not a + b.  A record is the
    normal form on ints packed at 2^`_width` (`_combine`), so neither filling
    nor reading the table does rational arithmetic; a numerator that outgrows
    the width doubles it and empties the table (`_widen`).  The table holds
    at most `_MAX_TABLE_ENTRIES` and is emptied when full.
    `_fibers` maps a parameter value to the fiber at that value (see
    `specialize_presentation`) and holds at most `_MAX_FIBERS`; when it is
    full, a new fiber replaces the newest one.
    """

    def __init__(self, name: str, generators: Sequence[str],
                 swap_rules: Mapping[tuple[int, int], SwapRule],
                 parameter: Optional[str] = None,
                 parameter_value: Optional[Rational] = None):
        self.name = name
        self.generators = tuple(generators)
        if len(set(self.generators)) != len(self.generators):
            raise ValueError("generator names must be distinct")
        self.parameter = parameter
        self.parameter_value = (None if parameter_value is None
                                else _as_rational(parameter_value))
        self.coeff_var = parameter if parameter is not None else "t"
        n = len(self.generators)
        expected = {(j, i) for j in range(n) for i in range(j)}
        if set(swap_rules) != expected:
            raise ValueError("need exactly one swap rule per pair j > i")
        self.swap_rules = dict(swap_rules)
        for (j, i), rule in self.swap_rules.items():
            self._validate_tail(j, i, rule)
        self._one = Scalar.of(1, self.coeff_var)
        self._table: dict[tuple[Exponents, int | Exponents], tuple] = {}
        self._width = _START_WIDTH
        self._fibers: dict[Rational, PBWPresentation] = {}
        # The parametric presentation whose fiber this is, set only by
        # `specialize_presentation` before the fiber is handed out.
        self.family: Optional[PBWPresentation] = None
        # Confluence certificate, computed once here so shared presentations
        # never race on it; its products stay in the table.
        self.overlap_report = check_pbw_overlaps(self)

    def _validate_tail(self, j: int, i: int, rule: SwapRule) -> None:
        for exps, _ in rule.tail.items():
            if len(exps) != len(self.generators) or any(e < 0 for e in exps):
                raise ValueError(f"bad tail monomial {exps} in rule ({j},{i})")
            deg = sum(exps)
            if deg > 2:
                raise ValueError("tail degree must be at most 2")
            if deg == 2:
                # Degree-compatible rewriting needs degree-2 tail monomials to
                # sit strictly below the pair (i, j) lexicographically.
                support = [k for k, e in enumerate(exps) for _ in range(e)]
                a, b = support[0], support[-1]
                if (a, b) >= (i, j):
                    raise ValueError(
                        f"degree-2 tail monomial {exps} not below pair ({i},{j})")

    # -- symbolic parameter ------------------------------------------------

    def has_symbolic_parameter(self) -> bool:
        return self.parameter is not None and self.parameter_value is None

    def require_symbolic_parameter(self) -> None:
        if not self.has_symbolic_parameter():
            raise ValueError(f"{self.name} has no symbolic parameter")

    # -- element constructors ----------------------------------------------

    def zero(self) -> "NCPoly":
        return NCPoly(self, {})

    def one(self) -> "NCPoly":
        return self.scalar(1)

    def scalar(self, value) -> "NCPoly":
        return self.monomial((0,) * len(self.generators), value)

    def parameter_scalar(self) -> Scalar:
        if self.parameter is None:
            raise ValueError(f"{self.name} has no parameter")
        if self.parameter_value is not None:
            return Scalar.of(self.parameter_value, self.coeff_var)
        return Scalar.variable(self.coeff_var)

    def gen(self, name: str) -> "NCPoly":
        idx = self.generators.index(name)
        return self.generator(idx)

    def generator(self, index: int) -> "NCPoly":
        exps = tuple(1 if k == index else 0 for k in range(len(self.generators)))
        return NCPoly(self, {exps: Scalar.of(1, self.coeff_var)})

    def monomial(self, exps: Sequence[int], coeff=1) -> "NCPoly":
        exps = tuple(exps)
        if len(exps) != len(self.generators) or any(e < 0 for e in exps):
            raise ValueError(f"bad exponent vector {exps}")
        c = coeff if isinstance(coeff, Scalar) else Scalar.of(coeff, self.coeff_var)
        if c.is_zero():
            return self.zero()
        return NCPoly(self, {exps: c})

    # -- structural identity -------------------------------------------------

    def _signature(self):
        rules = tuple(sorted(
            (pair, rule.coeff, tuple(sorted(rule.tail.items())))
            for pair, rule in self.swap_rules.items()))
        return (self.generators, self.parameter_value, rules)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PBWPresentation):
            return NotImplemented
        if self is other:
            return True
        return self._signature() == other._signature()

    __hash__ = None

    def __repr__(self) -> str:
        tag = ""
        if self.parameter is not None:
            tag = f", {self.parameter}" + (
                f"={self.parameter_value}" if self.parameter_value is not None else "")
        return f"PBWPresentation({self.name}: {' < '.join(self.generators)}{tag})"

    # -- confluence ----------------------------------------------------------

    @property
    def is_confluent(self) -> bool:
        return self.overlap_report.passed

    # -- rewriting engine ----------------------------------------------------

    def _rhs(self, j: int, i: int) -> dict[Exponents, Scalar]:
        """c·x_i x_j + tail, the right-hand side of rule (j, i), as terms,
        x_i x_j first."""
        rule = self.swap_rules[(j, i)]
        return {_bump(_bump((0,) * len(self.generators), i), j): rule.coeff, **rule.tail}

    def _rewrite(self, a: Exponents, b: Exponents) -> tuple:
        """The table's record of a·b, for a pair that is not ordered.

        The record is stored under (a, i) when b is x_i and under (a, b)
        otherwise, so each product is rewritten once while the table holds
        it.
        """
        word = _exponents_to_word(b)
        active: set[tuple[Exponents, int]] = set()
        if len(word) == 1:
            return self._times(a, word[0], active)
        record = self._table.get((a, b))
        if record is None:
            record = self._times(a, word[0], active)
            for g in word[1:]:
                record = self._apply(record, g, active)
            record = self._store((a, b), record)
        return record

    def _apply(self, record: tuple, g: int, active: set) -> tuple:
        """The record of the sum of c·(u·x_g) over the parts c·u of `record`;
        u·x_g is u with x_g appended if u has no generator above g."""
        den, norm, wide, parts = record
        moved = [(u[:g] + (u[g] + 1,) + u[g + 1:], x, r, v, n)
                 for u, x, r, v, n in parts if not any(u[g + 1:])]
        if len(moved) == len(parts):
            return den, norm, wide, moved
        first = [(1, 1, None, 1, (den, norm, wide, moved))] if moved else []
        return _combine(first + [
            (x, den, r, n, self._times(u, g, active)) for u, x, r, _, n in parts
            if any(u[g + 1:])], self._width, self.coeff_var)

    def _times(self, m: Exponents, i: int, active: set) -> tuple:
        """The record of m·x_i, for a monomial m with a generator above i.

        With k the last generator of m and m = m0·x_k^a, (m0 x_k^b)·x_i is
        (m0 x_k^(b-1))·(x_k x_i) with rule (k, i) applied in the middle
        (`_expand`), for b = 1..a.  The loop starts from b = a when the table
        holds (m0 x_k^(a-1))·x_i, and from m0·x_i otherwise, so the recursion
        only ever moves to another generator and its depth does not grow
        with a.  `active` holds the products being built; meeting one of
        them again means the rules loop.
        """
        table = self._table
        key = (m, i)
        found = table.get(key)
        if found is not None:
            return found
        if key in active:
            raise BudgetExceeded("rewriting did not terminate; rules are invalid")
        active.add(key)
        k = max(filter(m.__getitem__, range(len(m))))
        head, rest = m[:k], m[k + 1:]               # m0·x_k^b is head + (b,) + rest
        b = m[k] - 1
        record = table.get((head + (b,) + rest, i))
        if record is None:
            b = 0
            record = self._apply(_unit_record(head + (0,) + rest), i, active)
        for b in range(b + 1, m[k] + 1):
            # (m0 x_k^(b-1))·x_i is the previous step's product.
            record = self._expand(head + (b - 1,) + rest, k, i, (), active, record)
        active.discard(key)
        return self._store(key, record)

    def _store(self, key: tuple, record: tuple) -> tuple:
        """Enter the record of a rewritten product and return it."""
        if len(self._table) >= _MAX_TABLE_ENTRIES:
            self._table.clear()
        self._table[key] = record
        return record

    def _widen(self) -> None:
        """Empty the table and double its width."""
        self._table.clear()
        self._width *= 2

    def _expand(self, a: Exponents, j: int, i: int, after: tuple, active: set,
                known: Optional[tuple] = None) -> tuple:
        """The record of x^a·(c·x_i x_j + tail)·x_after, rule (j, i)'s
        right-hand side in the middle; `known`, if given, is that of x^a·x_i."""
        w, summands = self._width, []
        for word, x, d, r, _ in self.swap_rules[(j, i)].ints:
            word, part = ((i, j) if word is None else word) + after, _unit_record(a)
            if known is not None and word[:1] == (i,):
                word, part = word[1:], known
            for g in word:
                part = self._apply(part, g, active)
            summands.append((_pack(x, w) if len(x) > 1 else x[0], d, r, sum(map(abs, x)), part))
        return _combine(summands, w, self.coeff_var)

    def _reduct(self, a: Exponents, j: int, i: int, after: tuple) -> dict:
        """The normal form of x^a·(right-hand side of rule (j, i))·x_after."""
        try:
            den, _, wide, parts = self._expand(a, j, i, after, set())
        except _Overflow:
            self._widen()
            return self._reduct(a, j, i, after)
        var, w = self.coeff_var, self._width if wide else 0
        return _as_terms([((m, r, v or var), x) for m, x, r, v, _ in parts], den, w)


def _bump(m: Exponents, g: int) -> Exponents:
    """m·x_g for a monomial m with no generator above g."""
    return m[:g] + (m[g] + 1,) + m[g + 1:]


def _exponents_to_word(exps: Exponents) -> tuple[int, ...]:
    return sum([(g,) * e for g, e in enumerate(exps) if e], ())


def _accumulate(table: dict, key, value) -> None:
    """Add `value` into table[key], dropping the entry when the sum is zero:
    the one place a `Scalar` or `Fraction` term (false exactly when zero) is
    added into a term dict; `_add_scaled` and `_add_shifted` add through it."""
    cur = table.get(key)
    total = value if cur is None else cur + value
    if total:
        table[key] = total
    else:
        table.pop(key, None)


def _add_scaled(out: dict, terms: Mapping, factor, one=None) -> None:
    """Add factor·terms into `out`; a coefficient that is `one` is not multiplied."""
    for e, c in terms.items():
        _accumulate(out, e, factor if c is one else factor * c)


def _add_shifted(out: dict, terms: Mapping, factor, shift: Exponents) -> None:
    """Add factor·x^shift·terms into `out`, for commuting monomials."""
    for e, c in terms.items():
        _accumulate(out, tuple(map(operator.add, e, shift)), factor * c)


def _sum_products(p: "PBWPresentation", a_terms: Mapping, b_terms: Mapping,
                  commute: bool = False) -> dict:
    """Σ c_a·c_b·c over the term pairs c_a·e_a, c_b·e_b and the terms c·m of
    the normal form of e_a·e_b, less the same sum for e_b·e_a when `commute`
    (the terms of a·b - b·a); an ordered product's one term a + b has c = 1,
    and a pair ordered both ways cancels, so it is skipped.

    Numerators over common denominators D_a, D_b, D_c of a, b and the products
    are packed into ints at 2^w (Kronecker substitution, D. Harvey, JSC 2009),
    so a pair's product and each sum into a group (monomial, denominator,
    variable, which is p's for a constant) is one int operation; both orders
    of a pair add into the same groups.  A group unpacks once into balanced
    base-2^w digits, its ints over D_a·D_b·D_c, exactly: with N_a, N_b the
    sums of a's and b's numerator L1 norms and C the largest such sum in one
    product (an ordered one's is D_c), w is at least the bit_length of
    N_a·N_b·C plus 2.  A product has one coefficient per monomial and L1
    norms are submultiplicative, so each int of a product is at most
    N_a·N_b·C < 2^(w-2), and each int of a commutator at most twice that: a
    balanced digit, and those are unique.  Constants need no width, w = 0.
    Operands of at most 16 ints pack at the table's width when w fits in it;
    others at the least w, the records' ints repacked.
    """
    get, rewrite, n, var = p._table.get, p._rewrite, len(p.generators), p.coeff_var
    da, na, size, a_parts = _split(a_terms)
    db, nb, size_b, b_parts = _split(b_terms)
    size = max(size, size_b)
    wide = size > 1
    b_keys = _keys(b_terms, n)
    # Only a commutator looks up b·a, by a's lowest generators and keys.
    a_keys = _keys(a_terms, n) if commute else [(ma, None, None) for ma in a_terms]
    # Per pair, the records of its products, None for an ordered one; the
    # second, b·a, is subtracted.  A pair ordered both ways has none.
    records, dc, cn, ordered = [], 1, 0, False
    try:
        for ma, la, ka in a_keys:
            for mb, lb, kb in b_keys:
                ab = get((ma, kb)) or rewrite(ma, mb) if any(ma[lb + 1:]) else None
                if commute:
                    ba = get((mb, ka)) or rewrite(mb, ma) if any(mb[la + 1:]) else None
                    pair = () if ab is None is ba else (ab, ba)
                else:
                    pair = (ab,)
                records.append(pair)
                for record in pair:
                    if record is None:
                        ordered = True
                        continue
                    lc, norm, wide_c, _ = record
                    if lc != dc:
                        new = math.lcm(dc, lc)
                        cn, dc = cn * (new // dc), new
                    norm *= dc // lc
                    cn = norm if norm > cn else cn
                    wide = wide or wide_c
    except _Overflow:                   # double the width and start again
        p._widen()
        return _sum_products(p, a_terms, b_terms, commute)
    cn = dc if ordered and dc > cn else cn
    w = (na * nb * cn).bit_length() + 2 if wide else 0
    width = p._width
    repack = w > width or size > 16
    w = width if w and not repack else w
    b_packed = [(m, (_pack(x, w) if len(x) > 1 else x[0]) * (db // d), r, v)
                for m, x, d, r, v in b_parts]
    groups: dict[tuple, int] = {}
    records = iter(records)
    for ma, x, d, ra, va in a_parts:
        fa = (_pack(x, w) if len(x) > 1 else x[0]) * (da // d)
        for mb, fb, rb, vb in b_packed:
            if va and vb and va != vb:
                raise ValueError(f"cannot mix variables {va!r} and {vb!r}")
            r = ra if rb is None else rb if ra is None else ra * rb
            v = va or vb
            f = fa * fb
            for record in next(records):
                if record is None:
                    key = (tuple(map(operator.add, ma, mb)), r, v or var)
                    groups[key] = groups.get(key, 0) + f * dc
                else:
                    g = f * (dc // record[0])
                    for m, x, rc, vc, _ in record[3]:
                        if v and vc and v != vc:
                            raise ValueError(f"cannot mix variables {v!r} and {vc!r}")
                        key = (m, r if rc is None else rc if r is None else r * rc,
                               v or vc or var)
                        groups[key] = groups.get(key, 0) + g * (
                            _pack(_unpack(x, width), w) if repack else x)
                f = -f
    return _as_terms(groups.items(), da * db * dc, w)


def _as_terms(groups: Iterable[tuple], den: int, w: int) -> dict:
    """The terms x/(den·r) at their monomials m over the groups ((m, r, v),
    x), x packed at 2^w in the variable v; zero numerators are skipped."""
    out: dict[Exponents, Scalar] = {}
    for (m, r, v), x in groups:
        if x:
            num = _canonical(_unpack(x, w) if w else [x], den, v)
            _accumulate(out, m, _over(num, _unit(v)) if r is None else Scalar(num, r))
    return out


def _keys(terms: Mapping, n: int) -> list[tuple]:
    """Per monomial u: (u, its lowest generator or n, its table key: i for x_i,
    else u); m·u is ordered when m has no generator above u's lowest."""
    lows = [next((g for g, e in enumerate(u) if e), n) for u in terms]
    return [(u, low, low if sum(u) == 1 else u) for u, low in zip(terms, lows)]


def _split(terms: Mapping) -> tuple:
    """(L, N, size, parts): the lcm L of the coefficients' int denominators,
    the sum N of their numerator L1 norms over L, the most ints in a
    numerator, and per term (monomial, numerator ints, int denominator,
    denominator or None if 1, variable or None if constant)."""
    lcm, norm, size, parts = 1, 0, 0, []
    for m, c in terms.items():
        num, s = c.num, c.den
        x, d = num._ints, num._den
        if d != lcm:
            new = math.lcm(lcm, d)
            norm, lcm = norm * (new // lcm), new
        norm += sum(map(abs, x)) * (lcm // d)
        r = None if len(s._ints) == 1 else s
        size = len(x) if len(x) > size else size
        parts.append((m, x, d, r, num.var if r is not None or len(x) > 1 else None))
    return lcm, norm, size, parts


class _Overflow(Exception):
    """A numerator bound in a record reaches the product table's width."""


def _combine(summands: Sequence[tuple], w: int, var: str) -> tuple:
    """The record of the sum of x·record/(d·r) over the summands (x, d, r,
    n, record): x a numerator packed at 2^w of L1 norm at most n, d an int,
    r a denominator or None, part of a term's key, so no fraction is reduced.
    Each term carries a bound on its L1 norm (those are submultiplicative);
    below 2^(w-1), its balanced base-2^w digits are unique, and it is
    constant exactly when it lies in (-2^(w-1), 2^(w-1)).  A bound that
    reaches 2^(w-1) raises `_Overflow`.  One summand 1·record is the record."""
    if len(summands) == 1 and summands[0][:4] == (1, 1, None, 1):
        return summands[0][4]
    out: dict[tuple, tuple[int, int]] = {}
    den = math.lcm(*[d * record[0] for _, d, _, _, record in summands])
    for x, d, r, n, record in summands:
        s = den // (d * record[0])
        x, n = x * s, n * s
        for m, y, ry, _, ny in record[3]:
            key = (m, r if ry is None else ry if r is None else r * ry)
            old = out.get(key)
            out[key] = (x * y, n * ny) if old is None else (old[0] + x * y, old[1] + n * ny)
    if any(map(operator.itemgetter(1), out)):
        out = _merge_powers(out, w)
    half = 1 << (w - 1)
    norm, wide, parts = 0, False, []
    for (m, r), (x, n) in out.items():
        if n >= half:
            raise _Overflow
        if x:
            const = -half < x < half
            norm, wide = norm + n, wide or not const
            parts.append((m, x, r, None if r is None and const else var, n))
    return den, norm, wide, parts


def _merge_powers(out: dict, w: int) -> dict:
    """`out` with the terms of a monomial whose denominators differ by a power
    of the variable merged: x/(t^k·r) is x·t^(j-k)/(t^j·r), a shift by w·(j-k)."""
    merged: dict[tuple, tuple] = {}
    for (m, r), (x, n) in out.items():
        k = 0 if r is None else next(k for k, c in enumerate(r._ints) if c)
        key = (m, (1,), 1) if r is None else (m, r._ints[k:], r._den)
        k0, r0, x0, n0 = merged.get(key, (k, r, 0, 0))
        j = max(k, k0)
        merged[key] = (j, r if k == j else r0, (x << w * (j - k)) + (x0 << w * (j - k0)),
                       n + n0)
    return {(m, r): (x, n) for (m, _, _), (_, r, x, n) in merged.items()}


def _unit_record(m: Exponents) -> tuple:
    return 1, 1, False, [(m, 1, None, None, 1)]


def _pack(ints: Sequence[int], w: int) -> int:
    """The int polynomial `ints` (constant term first) evaluated at 2^w.

    A long list is packed in halves joined by one shift (R. Brent,
    P. Zimmermann, "Modern Computer Arithmetic", 1.7), so the work is not
    quadratic in its length; up to 16 ints, by Horner's rule.
    """
    if len(ints) > 16:
        h = len(ints) // 2
        return _pack(ints[:h], w) + (_pack(ints[h:], w) << (w * h))
    x = 0
    for c in reversed(ints):
        x = (x << w) + c
    return x


def _unpack(x: int, w: int) -> list[int]:
    """`_pack` inverted: x's balanced base-2^w digits (w >= 2), lowest first.

    A long x is split at 2^(w*h) into its h low digits and the rest, which
    is not zero, as x has more than h digits.  h digits in [-2^(w-1),
    2^(w-1)) sum to a value in [-o, 2^(w*h) - o), o the packing of h digits
    2^(w-1), so the low part is the one residue of x modulo 2^(w*h) there.
    """
    half, mask = 1 << (w - 1), (1 << w) - 1
    if x.bit_length() > 16 * w:
        h = x.bit_length() // w // 2
        offset = _pack([half] * h, w)
        low = ((x + offset) & ((1 << (w * h)) - 1)) - offset
        high = _unpack((x - low) >> (w * h), w)
        low = _unpack(low, w)
        return low + [0] * (h - len(low)) + high
    out = []
    while x:
        out.append(((x + half) & mask) - half)
        x = (x - out[-1]) >> w
    return out


class SparsePoly:
    """Ring arithmetic shared by `NCPoly` and `CPoly`.

    `terms` maps exponent vectors to nonzero coefficients.  Addition,
    scaling, powers, equality and coercion of scalars on either side are the
    same in both rings; a subclass supplies only its ring:

    * `_scalars`, the types read as constants, and `_coeff`, which turns
      one into a coefficient;
    * `_const`, the constant element, and `_new`, which wraps terms that are
      already canonical without validating them again;
    * `_same_ring` and `_check_compatible`, which raises the ring's error;
    * `_product`, the product of two elements.
    """

    __slots__ = ("terms",)

    def is_zero(self) -> bool:
        return not self.terms

    def degree(self) -> int:
        """Total degree; -1 for zero."""
        return max((sum(e) for e in self.terms), default=-1)

    def _coerce(self, other):
        if isinstance(other, type(self)):
            return other
        if isinstance(other, self._scalars):
            return self._const(other)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        self._check_compatible(o)
        out = dict(self.terms)
        for e, c in o.terms.items():
            _accumulate(out, e, c)
        return self._new(out)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        self._check_compatible(o)
        out = dict(self.terms)
        for e, c in o.terms.items():
            _accumulate(out, e, -c)
        return self._new(out)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o - self

    def __neg__(self):
        return self._new({e: -c for e, c in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, self._scalars):
            return self.scale(other)
        if isinstance(other, type(self)):
            return self._product(other)
        return NotImplemented

    def __rmul__(self, other):
        if isinstance(other, self._scalars):
            return self.scale(other)
        return NotImplemented

    def scale(self, factor):
        f = self._coeff(factor)
        if not f:
            return self._new({})
        # A product of nonzero field elements is nonzero.
        return self._new({e: c * f for e, c in self.terms.items()})

    def __pow__(self, exponent: int):
        if exponent < 0:
            raise ValueError("negative power of a polynomial")
        if exponent == 0:
            return self._const(1)
        result = self._new(dict(self.terms))
        for _ in range(exponent - 1):
            result = result * self
        return result

    def __eq__(self, other: object) -> bool:
        if isinstance(other, self._scalars):
            other = self._const(other)
        if not isinstance(other, type(self)):
            return NotImplemented
        return self._same_ring(other) and self.terms == other.terms

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self})"


class NCPoly(SparsePoly):
    """Element of a PBW algebra, stored in normal form."""

    __slots__ = ("presentation",)

    _scalars = (int, Fraction, Scalar)

    def __init__(self, presentation: PBWPresentation,
                 terms: Mapping[Exponents, Scalar]):
        self.presentation = presentation
        self.terms = {e: c for e, c in terms.items() if c}

    def _new(self, terms: dict[Exponents, Scalar]) -> "NCPoly":
        out = NCPoly.__new__(NCPoly)
        out.presentation = self.presentation
        out.terms = terms
        return out

    def _coeff(self, value) -> Scalar:
        return value if isinstance(value, Scalar) else \
            Scalar.of(value, self.presentation.coeff_var)

    def _const(self, value) -> "NCPoly":
        return self.presentation.scalar(value)

    def _same_ring(self, other: "NCPoly") -> bool:
        return self.presentation == other.presentation

    def _check_compatible(self, other: "NCPoly") -> None:
        if not self._same_ring(other):
            raise MixedPresentations(
                f"{self.presentation.name} vs {other.presentation.name}")

    def _product(self, other: "NCPoly") -> "NCPoly":
        return multiply(self, other)

    def leading_monomial(self) -> Exponents:
        """Highest monomial in degree-then-lex order."""
        if not self.terms:
            raise ValueError("zero element has no leading monomial")
        return max(self.terms, key=lambda e: (sum(e), e))

    def coefficient(self, exps: Sequence[int]) -> Scalar:
        c = self.terms.get(tuple(exps))
        return Scalar.of(0, self.presentation.coeff_var) if c is None else c

    def __str__(self) -> str:
        return _format_terms(self.terms, self.presentation.generators,
                             coeff_str=_scalar_coeff_str)


def _scalar_coeff_str(c: Scalar) -> tuple[str, bool]:
    """Render a coefficient; second value says whether it needs parentheses."""
    s = str(c)
    atomic = c.is_polynomial() and len([x for x in c.num._ints if x]) <= 1
    return s, not atomic


def _format_terms(terms: Mapping[Exponents, object], names: Sequence[str],
                  coeff_str) -> str:
    if not terms:
        return "0"
    parts = []
    for exps in sorted(terms, key=lambda e: (sum(e), e), reverse=True):
        c = terms[exps]
        mono = "*".join(
            name if e == 1 else f"{name}^{e}"
            for name, e in zip(names, exps) if e > 0)
        body, wrap = coeff_str(c)
        if not mono:
            parts.append(f"({body})" if wrap else body)
        elif body == "1":
            parts.append(mono)
        elif body == "-1":
            parts.append(f"-{mono}")
        elif wrap:
            parts.append(f"({body})*{mono}")
        else:
            parts.append(f"{body}*{mono}")
    return " + ".join(parts).replace("+ -", "- ")


def multiply(a: NCPoly, b: NCPoly) -> NCPoly:
    """Normal form of the product a * b."""
    a._check_compatible(b)
    return a._new(_sum_products(a.presentation, a.terms, b.terms))


def commutator(a: NCPoly, b: NCPoly) -> NCPoly:
    """a*b - b*a, both orders of each term pair summed in one pass."""
    a._check_compatible(b)
    return a._new(_sum_products(a.presentation, a.terms, b.terms, commute=True))


def is_central(z: NCPoly) -> bool:
    """True iff z commutes with every generator."""
    p = z.presentation
    return all(commutator(z, p.generator(i)).is_zero()
               for i in range(len(p.generators)))


# -- diamond-lemma overlap check ---------------------------------------------


# Plain slotted classes: `dataclasses` would cost every cold `nf` process the
# import of `inspect`, `ast` and `dis`.
class OverlapCheck:
    __slots__ = ("triple", "ok", "left", "right", "ms")

    def __init__(self, triple: tuple[int, int, int], ok: bool, left: NCPoly,
                 right: NCPoly, ms: float):
        self.triple = triple    # generator indices k > j > i
        self.ok = ok
        self.left = left
        self.right = right
        # Wall time of this triple's two reductions; not part of the certificate.
        self.ms = ms


class OverlapReport:
    __slots__ = ("checks", "passed")

    def __init__(self, checks: tuple[OverlapCheck, ...]):
        self.checks = checks
        self.passed = all(c.ok for c in checks)


def check_pbw_overlaps(p: PBWPresentation) -> OverlapReport:
    """Reduce x_k x_j x_i both ways for every triple k > j > i and compare.

    The word x_k x_j x_i can be rewritten first at the left pair (k, j) or
    first at the right pair (j, i); agreement of the two reductions for all
    triples certifies that normal forms are unique and the ordered monomials
    form a basis (G. M. Bergman, "The diamond lemma for ring theory", Adv.
    Math. 29, 1978).  `PBWPresentation._reduct` takes each one-step reduct,
    rule (k, j)'s right-hand side times x_i or x_k times rule (j, i)'s, to a
    normal form through the product table, whose records rule applications
    reach (`_times`), as the lemma needs.  With confluent rules every such
    sequence reaches the one normal form, so only a failing triple's `left`
    and `right` depend on the strategy.
    """
    n, unit = len(p.generators), (0,) * len(p.generators)
    checks = []
    for k, j, i in itertools.combinations(range(n - 1, -1, -1), 3):
        started = time.perf_counter()
        left = NCPoly(p, p._reduct(unit, k, j, (i,)))
        right = NCPoly(p, p._reduct(_bump(unit, k), j, i, ()))
        checks.append(OverlapCheck((k, j, i), left == right, left, right,
                                   (time.perf_counter() - started) * 1000))
    return OverlapReport(tuple(checks))


# -- growth -------------------------------------------------------------------


def growth_dimensions(p: PBWPresentation, d_max: int) -> list[int]:
    """Dimension of the span of all products of at most d generators, d=0..d_max.

    The overlap check certifies that the ordered monomials form a basis (the
    PBW basis), and the degree-compatible rules keep products of at most d
    generators inside the span of those of total degree at most d.  The
    dimension is therefore the number of such monomials in n generators,
    comb(d + n, n); no span is computed.
    """
    if not p.is_confluent:
        raise ValueError(f"{p.name}: overlap check failed; dimensions undefined")
    n = len(p.generators)
    return [math.comb(d + n, n) for d in range(d_max + 1)]


def growth_slope(dims: Sequence[int], d_lo: int, d_hi: int) -> Fraction:
    """Discrete log-log slope of the dimension sequence over [d_lo, d_hi].

    Uses the elasticity form d * (V_d - V_{d-1}) / V_{d-1}, the local slope of
    log(dim) against log(d), averaged over the window; exact over rationals.
    """
    if not 0 <= d_lo < d_hi < len(dims):
        raise ValueError("window out of range")
    samples = [Fraction(d * (dims[d] - dims[d - 1]), dims[d - 1])
               for d in range(d_lo + 1, d_hi + 1)]
    return sum(samples, Fraction(0)) / len(samples)


# -- morphisms ----------------------------------------------------------------


class AlgebraMorphism:
    """Generator images defining a map between two presentations.

    The verification result (`holds`) is computed once at construction:
    the map is an algebra morphism iff every defining relation of the
    source, with generators replaced by their images, reduces to zero in
    the target.
    """

    def __init__(self, source: PBWPresentation, target: PBWPresentation,
                 images: Mapping[str, NCPoly],
                 parameter_image: Optional[Scalar] = None):
        if set(images) != set(source.generators):
            raise ValueError("need exactly one image per source generator")
        for img in images.values():
            if img.presentation != target:
                raise MixedPresentations("image lies outside the target algebra")
        if source.has_symbolic_parameter() and parameter_image is None:
            raise ValueError("source parameter needs an image")
        self.source = source
        self.target = target
        self.images = dict(images)
        self.parameter_image = parameter_image
        self.holds = check_morphism(self)

    def apply_scalar(self, c: Scalar) -> Scalar:
        if self.parameter_image is not None:
            return c.compose(self.parameter_image)
        return Scalar.of(c.constant_value(), self.target.coeff_var)

    def apply_monomial(self, exps: Exponents) -> NCPoly:
        powers = [self.images[g] ** e for g, e in zip(self.source.generators, exps) if e]
        return reduce(multiply, powers) if powers else self.target.one()

    def __call__(self, z: NCPoly) -> NCPoly:
        if z.presentation != self.source:
            raise MixedPresentations("element is not over the source algebra")
        out = self.target.zero()
        for exps, c in z.terms.items():
            out = out + self.apply_monomial(exps).scale(self.apply_scalar(c))
        return out


def check_morphism(m: AlgebraMorphism) -> bool:
    """True iff every source swap relation maps to zero in the target."""
    if not m.target.is_confluent:
        raise ValueError("target presentation is not confluent")
    src = m.source
    for j, i in src.swap_rules:
        xj, xi = m.images[src.generators[j]], m.images[src.generators[i]]
        if multiply(xj, xi) != m(NCPoly(src, src._rhs(j, i))):
            return False
    return True


# -- finite-dimensional representations ----------------------------------------


class Representation:
    """A module on the basis v_0..v_{d-1}, given by each generator's action.

    `actions[g][i]` is g·v_i as {j: nonzero scalar}.  Construction applies
    every swap relation x_j x_i - c x_i x_j - tail to every basis vector and
    raises `ValueError` unless each gives 0, so an instance is always a
    genuine module.
    """

    def __init__(self, presentation: PBWPresentation, dimension: int,
                 actions: Mapping[str, Sequence[Mapping[int, Scalar]]]):
        if dimension < 1:
            raise ValueError("dimension must be positive")
        if set(actions) != set(presentation.generators):
            raise ValueError("need exactly one action per generator")
        for images in actions.values():
            if len(images) != dimension or any(not 0 <= j < dimension
                                               for image in images for j in image):
                raise ValueError("an action sends v_i outside v_0..v_{dimension-1}")
        self.presentation = presentation
        self.dimension = dimension
        self.actions = {g: tuple({j: c for j, c in image.items() if c}
                                 for image in images)
                        for g, images in actions.items()}
        for j, i in presentation.swap_rules:
            relation = [((j, i), presentation._one)]
            relation += [(_exponents_to_word(t), -c) for t, c in presentation._rhs(j, i).items()]
            for k in range(dimension):
                if self._act(relation, k):
                    raise ValueError(f"relation for pair {(j, i)} fails on v_{k}")

    def _act(self, terms: Sequence[tuple[tuple[int, ...], Scalar]],
             k: int) -> dict[int, Scalar]:
        """Sum of c * word·v_k over (word, c) in terms; words act last letter first."""
        out: dict[int, Scalar] = {}
        for word, c in terms:
            vec = {k: c}
            for g in reversed(word):
                images = self.actions[self.presentation.generators[g]]
                moved: dict[int, Scalar] = {}
                for i, a in vec.items():
                    _add_scaled(moved, images[i], a)
                vec = moved
            for j, a in vec.items():
                _accumulate(out, j, a)
        return out

    def apply(self, z: NCPoly, i: int) -> dict[int, Scalar]:
        """z·v_i as {j: nonzero scalar}."""
        if z.presentation != self.presentation:
            raise MixedPresentations("element is not over this representation's algebra")
        if not 0 <= i < self.dimension:
            raise ValueError("basis index out of range")
        return self._act([(_exponents_to_word(e), c) for e, c in z.terms.items()], i)


def annihilates(r: Representation, z: NCPoly) -> bool:
    """True iff z·v_i = 0 for every basis vector v_i."""
    return not any(r.apply(z, i) for i in range(r.dimension))


def sl2_representation(n: int, p: Optional[PBWPresentation] = None) -> Representation:
    """The n-dimensional weight module of a deformation algebra, `B_q` by default.

    On the weight basis v_0..v_{n-1}: H v_i = (n-1-2i) v_i, F v_i = v_{i+1},
    E v_i = i(n-i) v_{i-1} (a shift past either end gives 0); p's three
    generators act as s·E, s·F, s·H with s = par - 1, or with s = 1 when p
    has no parameter, as `Usl2` has: its module is over Q.
    """
    p = B_q() if p is None else p
    s = p.parameter_scalar() - 1 if p.parameter is not None else Scalar.of(1, p.coeff_var)
    e, f, h = p.generators
    return Representation(p, n, {
        e: [{i - 1: s * (i * (n - i))} if i > 0 else {} for i in range(n)],
        f: [{i + 1: s} if i < n - 1 else {} for i in range(n)],
        h: [{i: s * (n - 1 - 2 * i)} for i in range(n)],
    })


# -- built-in presentations -----------------------------------------------------


def _deformation_rules(var: str,
                       scale: Optional[Scalar] = None) -> dict[tuple[int, int], SwapRule]:
    """Swap rules for generators e < f < h with commutators scaled by `scale`,
    by default par - 1; `Usl2`'s are those with scale 1."""
    scale = Scalar(UniPoly([-1, 1], var)) if scale is None else scale
    one = Scalar.of(1, var)
    return {
        # f*e = e*f - (par-1) h
        (1, 0): SwapRule(one, {(0, 0, 1): -scale}),
        # h*e = e*h + 2 (par-1) e
        (2, 0): SwapRule(one, {(1, 0, 0): scale * 2}),
        # h*f = f*h - 2 (par-1) f
        (2, 1): SwapRule(one, {(0, 1, 0): -(scale * 2)}),
    }


@lru_cache(maxsize=None)
def B() -> PBWPresentation:
    """The parametric algebra on e < f < h over the Laurent ring in t."""
    return PBWPresentation("B", ("e", "f", "h"), _deformation_rules("t"),
                           parameter="t")


@lru_cache(maxsize=None)
def B_q() -> PBWPresentation:
    """The same family with symbolic parameter q."""
    return PBWPresentation("B_q", ("e", "f", "h"), _deformation_rules("q"),
                           parameter="q")


def specialize_presentation(p: PBWPresentation, value: Rational) -> PBWPresentation:
    """Fiber of a parametric presentation at a fixed parameter value.

    Every coefficient and tail of p's swap rules is evaluated at `value`; the
    fiber is named `<p.name>_lambda` and records p as its `family`.  It is
    memoized in `p._fibers`, so each fiber of p is built, and gets its
    overlap certificate, once.
    """
    p.require_symbolic_parameter()
    value = _as_rational(value)
    fiber = p._fibers.get(value)
    if fiber is None:
        var = p.parameter
        rules = {
            pair: SwapRule(rule.coeff.at(value),
                           {exps: c.at(value)
                            for exps, c in rule.tail.items()})
            for pair, rule in p.swap_rules.items()}
        fiber = PBWPresentation(f"{p.name}_lambda", p.generators, rules,
                                parameter=var, parameter_value=value)
        fiber.family = p
        if len(p._fibers) >= _MAX_FIBERS:
            # The newest fiber makes room, so a cycle over k nodes more than
            # the bound rebuilds k + 1 fibers a pass, not all of them.
            p._fibers.popitem()
        p._fibers[value] = fiber
    return fiber


def B_lambda(lam) -> PBWPresentation:
    """The fiber of `B` at a fixed numeric parameter value."""
    return specialize_presentation(B(), lam)


@lru_cache(maxsize=None)
def Usl2() -> PBWPresentation:
    """The enveloping algebra of sl2 on E < F < H."""
    return PBWPresentation("Usl2", ("E", "F", "H"), _deformation_rules("t", Scalar.of(1, "t")))


def casimir(p: PBWPresentation) -> NCPoly:
    """The central element 4ef + h^2 - 2(par-1)h of a deformation algebra."""
    if p.parameter is None:
        raise ValueError("casimir needs a parametric presentation")
    pm1 = p.parameter_scalar() - 1
    return p.monomial((1, 1, 0), 4) + p.monomial((0, 0, 2)) - p.generator(2).scale(pm1 * 2)


# -- presentation files ----------------------------------------------------------


def presentation_to_json(p: PBWPresentation) -> dict:
    """Documented JSON form of a presentation (see README for the schema)."""
    relations = []
    for (j, i) in sorted(p.swap_rules):
        rule = p.swap_rules[(j, i)]
        rhs = []
        for exps in sorted(rule.tail, key=lambda e: (sum(e), e), reverse=True):
            mono = {p.generators[k]: e for k, e in enumerate(exps) if e}
            rhs.append({"coeff": str(rule.tail[exps]), "monomial": mono})
        relations.append({
            "lhs": [p.generators[j], p.generators[i]],
            "coeff": str(rule.coeff),
            "rhs": rhs,
        })
    parameter = None
    if p.parameter is not None:
        value = None if p.parameter_value is None else str(p.parameter_value)
        parameter = {"symbol": p.parameter, "value": value}
    return {
        "name": p.name,
        "generators": list(p.generators),
        "parameter": parameter,
        "relations": relations,
    }


def presentation_from_json(data: dict) -> PBWPresentation:
    """Inverse of `presentation_to_json`; validates the schema."""
    from .exprs import parse_scalar  # local import to avoid a cycle
    from .errors import ParseError, ZeroDenominator

    try:
        name = data["name"]
        generators = data["generators"]
        parameter = data.get("parameter")
        relations = data["relations"]
    except (KeyError, TypeError) as exc:
        raise ParseError(f"presentation file missing field: {exc}") from exc
    for field, value in (("generators", generators), ("relations", relations)):
        if not isinstance(value, list):
            raise ParseError(f"{field} must be a list")
    symbol = None
    value = None
    if parameter is not None:
        try:
            symbol = parameter["symbol"]
            raw = parameter.get("value")
            value = None if raw is None else _as_rational(raw)
        except (KeyError, TypeError, ValueError, ZeroDenominator) as exc:
            raise ParseError(f"bad parameter entry: {exc}") from exc
        if not isinstance(symbol, str) or symbol in generators:
            raise ParseError(f"parameter symbol {symbol!r} must be a string "
                             f"that names no generator")
    var = symbol if symbol is not None else "t"
    if not all(isinstance(g, str) for g in generators):
        raise ParseError("generator names must be strings")
    index = {g: k for k, g in enumerate(generators)}
    if len(index) != len(generators):
        raise ParseError("generator names must be distinct")
    rules: dict[tuple[int, int], SwapRule] = {}
    for rel in relations:
        try:
            if not isinstance(rel["lhs"], list):
                raise TypeError("lhs must be a list")
            gj, gi = rel["lhs"]
            j, i = index[gj], index[gi]
            coeff = parse_scalar(rel["coeff"], var)
            tail: dict[Exponents, Scalar] = {}
            for term in rel["rhs"]:
                exps = [0] * len(generators)
                for gen_name, e in term["monomial"].items():
                    if type(e) is not int:
                        raise TypeError(f"exponent {e!r} of {gen_name} must be an integer")
                    exps[index[gen_name]] += e
                tail[tuple(exps)] = parse_scalar(term["coeff"], var)
        except (AttributeError, KeyError, TypeError, ValueError) as exc:
            raise ParseError(f"bad relation entry: {exc}") from exc
        if j <= i:
            raise ParseError(f"relation lhs [{gj}, {gi}] is not an out-of-order pair")
        if (j, i) in rules:
            raise ParseError(f"duplicate relation for pair [{gj}, {gi}]")
        rules[(j, i)] = SwapRule(coeff, tail)
    try:
        return PBWPresentation(name, generators, rules,
                               parameter=symbol, parameter_value=value)
    except ValueError as exc:
        raise ParseError(str(exc)) from exc
