"""Noncommutative algebras with ordered generators and swap-rule rewriting.

An algebra is given by a `PBWPresentation`: an ordered list of generators and,
for every out-of-order pair j > i, a rule

    x_j * x_i  =  c * x_i * x_j  +  tail

with `c` a nonzero scalar and `tail` a normal-form combination of total degree
at most two.  Elements (`NCPoly`) are stored in normal form: a map from
exponent vectors to scalars, the exponent vector (i, j, k) standing for the
ordered monomial x_0^i x_1^j x_2^k.

Multiplication reads products of a normal monomial and one generator from a
memoized table, which the swap rules fill one generator at a time (see
`PBWPresentation._times`).  The rules are degree-compatible (rewriting never
raises total degree), so products terminate and normal forms are well defined
whenever the overlap check below passes.

`check_pbw_overlaps` is the confluence certificate: for every generator triple
k > j > i it reduces x_k x_j x_i along both association orders, rewriting
whole words, and compares the results.  If all triples agree, the ordered
monomials are a basis.
"""

from __future__ import annotations

import heapq
import itertools
import math
import operator
import time
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from typing import Mapping, Optional, Sequence

from .arith import Rational, Scalar, UniPoly, _as_rational
from .errors import BudgetExceeded, MixedPresentations

Exponents = tuple[int, ...]

# Safety valve against a non-terminating rule set slipping past validation.
_MAX_REWRITE_STEPS = 2_000_000

# Entries a presentation's product table holds before it is emptied.
_MAX_TABLE_ENTRIES = 20_000

# Entries a presentation's fiber memo holds before it is emptied.
_MAX_FIBERS = 64


class SwapRule:
    """x_j * x_i  ->  coeff * x_i * x_j + tail  (tail: exponents -> Scalar)."""

    __slots__ = ("coeff", "tail")

    def __init__(self, coeff: Scalar, tail: Mapping[Exponents, Scalar]):
        if coeff.is_zero():
            raise ValueError("swap coefficient must be nonzero")
        self.coeff = coeff
        self.tail = {exps: c for exps, c in tail.items() if not c.is_zero()}

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SwapRule):
            return NotImplemented
        return self.coeff == other.coeff and self.tail == other.tail

    __hash__ = None


class PBWPresentation:
    """Ordered generators plus swap rules.

    Fixed once constructed, except two memos, each written without a lock
    and emptied when full.  The product table `_table` maps a normal monomial
    m and a generator index i to the normal form of m·x_i, for every such
    product with a generator of m above i; it gains an entry for each product
    not seen before and holds at most `_MAX_TABLE_ENTRIES`.  `_fibers` maps a
    parameter value to the fiber at that value (see
    `specialize_presentation`) and holds at most `_MAX_FIBERS`.
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
        self._table: dict[tuple[Exponents, int], dict[Exponents, Scalar]] = {}
        self._fibers: dict[Rational, PBWPresentation] = {}
        # The parametric presentation whose fiber this is, set only by
        # `specialize_presentation` before the fiber is handed out.
        self.family: Optional[PBWPresentation] = None
        # Confluence certificate, computed once here so shared presentations
        # never race on it.
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

    # -- element constructors ----------------------------------------------

    def zero(self) -> "NCPoly":
        return NCPoly(self, {})

    def one(self) -> "NCPoly":
        return self.scalar(1)

    def scalar(self, value) -> "NCPoly":
        s = value if isinstance(value, Scalar) else Scalar.of(value, self.coeff_var)
        unit = (0,) * len(self.generators)
        return NCPoly(self, {unit: s})

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

    def _word_normal_form(self, word: tuple[int, ...]) -> dict[Exponents, Scalar]:
        """Normal form of a single word as exponents -> Scalar.

        Swaps the leftmost out-of-order pair.  Every rewrite yields words that
        are shorter, or as long and lexicographically smaller, so taking the
        largest pending word first finishes each word before it is reached
        again: equal words merge instead of being rewritten twice.
        """
        pending: dict[tuple[int, ...], Scalar] = {word: self._one}
        queue = [_word_rank(word)]
        out: dict[Exponents, Scalar] = {}
        steps = 0
        while queue:
            w = heapq.heappop(queue)[2]
            c = pending.pop(w, None)
            if c is None:
                continue
            pos = _first_inversion(w)
            if pos is None:
                exps = _word_to_exponents(w, len(self.generators))
                _accumulate(out, exps, c)
                continue
            steps += 1
            if steps > _MAX_REWRITE_STEPS:
                raise BudgetExceeded(f"rewriting did not terminate within "
                                     f"{_MAX_REWRITE_STEPS} steps; rules are invalid")
            j, i = w[pos], w[pos + 1]
            rule = self.swap_rules[(j, i)]
            images = [(w[:pos] + (i, j) + w[pos + 2:], c * rule.coeff)]
            images += [(w[:pos] + _exponents_to_word(texps) + w[pos + 2:], c * tc)
                       for texps, tc in rule.tail.items()]
            for image, ic in images:
                if image not in pending:
                    heapq.heappush(queue, _word_rank(image))
                _accumulate(pending, image, ic)
        return out

    def _monomial_product(self, a: Exponents, b: Exponents) -> dict[Exponents, Scalar]:
        """Normal form of a·b: b's generators enter one at a time, lowest first.

        When no generator of a lies above b's lowest one, a·b is already
        ordered and is the single monomial a + b with coefficient `_one`.
        """
        word = _exponents_to_word(b)
        if not word or not any(a[word[0] + 1:]):
            return {tuple(map(operator.add, a, b)): self._one}
        active: set[tuple[Exponents, int]] = set()
        # The table's entry itself: callers only read it.
        terms = self._times(a, word[0], active)
        for g in word[1:]:
            terms = self._apply(terms, g, active)
        return terms

    def _apply(self, terms: Mapping[Exponents, Scalar], g: int,
               active: set) -> dict[Exponents, Scalar]:
        """The sum of c·(u·x_g) over the terms u -> c."""
        one = self._one
        out: dict[Exponents, Scalar] = {}
        for u, c in terms.items():
            if any(u[g + 1:]):
                _add_scaled(out, self._times(u, g, active), c, one)
            else:
                _accumulate(out, _bump(u, g), c)
        return out

    def _times(self, m: Exponents, i: int, active: set) -> dict[Exponents, Scalar]:
        """m·x_i from the table, for a monomial m with a generator above i.

        With k the last generator of m and m = m0·x_k^a, the swap rule (k, i)
        gives, for b = 1..a,

            (m0 x_k^b)·x_i = c·((m0 x_k^(b-1))·x_i)·x_k + (m0 x_k^(b-1))·tail.

        The loop starts from b = a when the table holds (m0 x_k^(a-1))·x_i,
        and from m0·x_i otherwise, so the recursion only ever moves to
        another generator and its depth does not grow with a.  `active`
        holds the products being built; meeting one of them again means the
        rules loop.
        """
        table = self._table
        key = (m, i)
        found = table.get(key)
        if found is not None:
            return found
        if key in active:
            raise BudgetExceeded("rewriting did not terminate; rules are invalid")
        active.add(key)
        k = max(g for g, e in enumerate(m) if e)
        rule = self.swap_rules[(k, i)]
        coeff = None if rule.coeff == self._one else rule.coeff
        head, rest = m[:k], m[k + 1:]

        def power(b: int) -> Exponents:             # m0·x_k^b
            return head + (b,) + rest

        b = m[k] - 1
        terms = table.get((power(b), i))
        if terms is None:
            b = 0
            terms = self._apply({power(0): self._one}, i, active)
        for b in range(b + 1, m[k] + 1):
            out = self._apply(terms, k, active)
            if coeff is not None:
                out = {v: c * coeff for v, c in out.items()}
            for t, tc in rule.tail.items():
                word = _exponents_to_word(t)
                # (m0 x_k^(b-1))·x_i is the previous step's product.
                if word[:1] == (i,):
                    part, word = terms, word[1:]
                else:
                    part = {power(b - 1): self._one}
                for g in word:
                    part = self._apply(part, g, active)
                _add_scaled(out, part, tc, self._one)
            terms = out
        active.discard(key)
        if len(table) >= _MAX_TABLE_ENTRIES:
            table.clear()
        table[key] = terms
        return terms


def _bump(m: Exponents, g: int) -> Exponents:
    """m·x_g for a monomial m with no generator above g."""
    return m[:g] + (m[g] + 1,) + m[g + 1:]


def _word_rank(word: tuple[int, ...]) -> tuple:
    """Heap entry that pops longer words first, then lexicographically larger."""
    return (-len(word), tuple(-g for g in word), word)


def _first_inversion(word: tuple[int, ...]) -> Optional[int]:
    for k in range(len(word) - 1):
        if word[k] > word[k + 1]:
            return k
    return None


def _word_to_exponents(word: tuple[int, ...], n: int) -> Exponents:
    exps = [0] * n
    for g in word:
        exps[g] += 1
    return tuple(exps)


def _exponents_to_word(exps: Exponents) -> tuple[int, ...]:
    return tuple(g for g, e in enumerate(exps) for _ in range(e))


def _accumulate(table: dict, key, value) -> None:
    """Add `value` into table[key], dropping the entry when the sum is zero.

    The only place a term is added into a term dict; coefficients are
    `Scalar` or `Fraction`, both false exactly when zero.  `_add_scaled` and
    `_add_shifted` add whole term dicts through it.
    """
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
        return self + (-o)

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
        result = self._const(1)
        for _ in range(exponent):
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
        return self.terms.get(tuple(exps),
                              Scalar.of(0, self.presentation.coeff_var))

    def __str__(self) -> str:
        return _format_terms(self.terms, self.presentation.generators,
                             coeff_str=_scalar_coeff_str)


def _scalar_coeff_str(c: Scalar) -> tuple[str, bool]:
    """Render a coefficient; second value says whether it needs parentheses."""
    s = str(c)
    atomic = c.is_polynomial() and len([x for x in c.num.coeffs if x != 0]) <= 1
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
    p = a.presentation
    out: dict[Exponents, Scalar] = {}
    for ea, ca in a.terms.items():
        for eb, cb in b.terms.items():
            _add_scaled(out, p._monomial_product(ea, eb), ca * cb, p._one)
    return a._new(out)


def commutator(a: NCPoly, b: NCPoly) -> NCPoly:
    """a*b - b*a."""
    return multiply(a, b) - multiply(b, a)


def is_central(z: NCPoly) -> bool:
    """True iff z commutes with every generator."""
    p = z.presentation
    return all(commutator(z, p.generator(i)).is_zero()
               for i in range(len(p.generators)))


# -- diamond-lemma overlap check ---------------------------------------------


@dataclass(frozen=True)
class OverlapCheck:
    triple: tuple[int, int, int]        # generator indices k > j > i
    ok: bool
    left: "NCPoly"
    right: "NCPoly"
    # Wall time of this triple's two reductions; not part of the certificate.
    ms: float = field(default=0.0, compare=False)


@dataclass(frozen=True)
class OverlapReport:
    checks: tuple[OverlapCheck, ...]

    @property
    def passed(self) -> bool:
        return all(c.ok for c in self.checks)


def check_pbw_overlaps(p: PBWPresentation) -> OverlapReport:
    """Reduce x_k x_j x_i both ways for every triple k > j > i and compare.

    The word x_k x_j x_i can be rewritten first at the left pair (k, j) or
    first at the right pair (j, i); agreement of the two reductions for all
    triples certifies that normal forms are unique and the ordered monomials
    form a basis.
    """
    n = len(p.generators)
    checks = []
    for k, j, i in itertools.combinations(range(n - 1, -1, -1), 3):
        started = time.perf_counter()
        left = _reduce_after_first_step(p, (k, j, i), left_first=True)
        right = _reduce_after_first_step(p, (k, j, i), left_first=False)
        checks.append(OverlapCheck((k, j, i), left == right, left, right,
                                   (time.perf_counter() - started) * 1000))
    return OverlapReport(tuple(checks))


def _reduce_after_first_step(p: PBWPresentation, word: tuple[int, int, int],
                             left_first: bool) -> NCPoly:
    k, j, i = word
    if left_first:
        rule = p.swap_rules[(k, j)]
        seeds = [((j, k, i), rule.coeff)]
        seeds += [(_exponents_to_word(te) + (i,), tc) for te, tc in rule.tail.items()]
    else:
        rule = p.swap_rules[(j, i)]
        seeds = [((k, i, j), rule.coeff)]
        seeds += [((k,) + _exponents_to_word(te), tc) for te, tc in rule.tail.items()]
    out: dict[Exponents, Scalar] = {}
    for w, c in seeds:
        _add_scaled(out, p._word_normal_form(w), c, p._one)
    return NCPoly(p, out)


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
        out = self.target.one()
        for idx, e in enumerate(exps):
            if e:
                out = multiply(out, self.images[self.source.generators[idx]] ** e)
        return out

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
    for (j, i), rule in src.swap_rules.items():
        xj = m.images[src.generators[j]]
        xi = m.images[src.generators[i]]
        lhs = multiply(xj, xi)
        rhs = multiply(xi, xj).scale(m.apply_scalar(rule.coeff))
        for texps, tc in rule.tail.items():
            rhs = rhs + m.apply_monomial(texps).scale(m.apply_scalar(tc))
        if lhs != rhs:
            return False
    return True


def identity_morphism(p: PBWPresentation) -> AlgebraMorphism:
    images = {g: p.gen(g) for g in p.generators}
    param = None
    if p.parameter is not None:
        param = p.parameter_scalar()
    return AlgebraMorphism(p, p, images, param)


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
        one = Scalar.of(1, presentation.coeff_var)
        for (j, i), rule in presentation.swap_rules.items():
            relation = [((j, i), one), ((i, j), -rule.coeff)]
            relation += [(_exponents_to_word(t), -c) for t, c in rule.tail.items()]
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


def sl2_representation(n: int) -> Representation:
    """The n-dimensional weight module of the symbolic deformation algebra.

    On the weight basis v_0..v_{n-1}: H v_i = (n-1-2i) v_i, F v_i = v_{i+1},
    E v_i = i(n-i) v_{i-1} (a shift past either end gives 0); the algebra
    generators act as e = (q-1)E, f = (q-1)F, h = (q-1)H.
    """
    p = B_q()
    qm1 = Scalar.variable(p.coeff_var) - 1
    return Representation(p, n, {
        "e": [{i - 1: qm1 * (i * (n - i))} if i > 0 else {} for i in range(n)],
        "f": [{i + 1: qm1} if i < n - 1 else {} for i in range(n)],
        "h": [{i: qm1 * (n - 1 - 2 * i)} for i in range(n)],
    })


# -- built-in presentations -----------------------------------------------------


def _deformation_rules(var: str) -> dict[tuple[int, int], SwapRule]:
    """Swap rules for generators e < f < h with commutators scaled by (par-1)."""
    scale = Scalar(UniPoly([-1, 1], var))          # par - 1
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
    if not p.has_symbolic_parameter():
        raise ValueError(f"{p.name} has no symbolic parameter")
    value = _as_rational(value)
    fiber = p._fibers.get(value)
    if fiber is None:
        var = p.parameter
        rules = {
            pair: SwapRule(Scalar.of(rule.coeff.evaluate(value), var),
                           {exps: Scalar.of(c.evaluate(value), var)
                            for exps, c in rule.tail.items()})
            for pair, rule in p.swap_rules.items()}
        fiber = PBWPresentation(f"{p.name}_lambda", p.generators, rules,
                                parameter=var, parameter_value=value)
        fiber.family = p
        if len(p._fibers) >= _MAX_FIBERS:
            p._fibers.clear()
        p._fibers[value] = fiber
    return fiber


def B_lambda(lam) -> PBWPresentation:
    """The fiber of `B` at a fixed numeric parameter value."""
    return specialize_presentation(B(), lam)


@lru_cache(maxsize=None)
def Usl2() -> PBWPresentation:
    """The enveloping algebra of sl2 on E < F < H."""
    one = Scalar.of(1, "t")
    rules = {
        (1, 0): SwapRule(one, {(0, 0, 1): Scalar.of(-1, "t")}),
        (2, 0): SwapRule(one, {(1, 0, 0): Scalar.of(2, "t")}),
        (2, 1): SwapRule(one, {(0, 1, 0): Scalar.of(-2, "t")}),
    }
    return PBWPresentation("Usl2", ("E", "F", "H"), rules)


def casimir(p: PBWPresentation) -> NCPoly:
    """The central element 4ef + h^2 - 2(par-1)h of a deformation algebra."""
    if p.parameter is None:
        raise ValueError("casimir needs a parametric presentation")
    e, f, h = (p.generator(i) for i in range(3))
    pm1 = p.parameter_scalar() - 1
    return multiply(e, f).scale(4) + multiply(h, h) - h.scale(pm1 * 2)


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
        generators = list(data["generators"])
        parameter = data.get("parameter")
        relations = data["relations"]
    except (KeyError, TypeError) as exc:
        raise ParseError(f"presentation file missing field: {exc}") from exc
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
    if not isinstance(relations, list):
        raise ParseError("relations must be a list")
    var = symbol if symbol is not None else "t"
    index = {g: k for k, g in enumerate(generators)}
    if len(index) != len(generators):
        raise ParseError("generator names must be distinct")
    rules: dict[tuple[int, int], SwapRule] = {}
    for rel in relations:
        try:
            gj, gi = rel["lhs"]
            j, i = index[gj], index[gi]
            coeff = parse_scalar(rel["coeff"], var)
            tail: dict[Exponents, Scalar] = {}
            for term in rel["rhs"]:
                exps = [0] * len(generators)
                for gen_name, e in term["monomial"].items():
                    exps[index[gen_name]] += int(e)
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
