"""Tests for the exact scalar arithmetic layer."""

import contextlib
import math
import random
from fractions import Fraction

import pytest
import sympy
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import nonzero, random_fraction, random_scalar, random_unipoly
from sclim.arith import Scalar, ScalarMatrix, UniPoly, interpolate_band
from sclim.errors import DuplicateNode, PoleAtPoint, ZeroDenominator
from sclim.exprs import parse_scalar


def poly(*coeffs, var="t"):
    return UniPoly(coeffs, var)


class TestNormalize:
    def test_common_factor_cancels(self):
        # (t^2 - 1) / (t - 1) == t + 1
        s = Scalar(poly(-1, 0, 1), poly(-1, 1))
        assert s == Scalar(poly(1, 1))
        assert s.den == poly(1)

    def test_zero_numerator(self):
        s = Scalar(poly(), poly(0, 1))
        assert s.is_zero()
        assert s.den == poly(1)

    def test_unit_normalization(self):
        # (2t) / 4 reduces to t/2 with a monic denominator
        s = Scalar(poly(0, 2), poly(4))
        assert s == Scalar(poly(0, Fraction(1, 2)))
        assert s.den.is_monic()

    def test_zero_denominator_rejected(self):
        with pytest.raises(ZeroDenominator):
            Scalar(poly(1), poly())

    def test_cancellation_property(self):
        rng = random.Random(101)
        for _ in range(100):
            p = random_unipoly(rng)
            q = nonzero(rng, random_unipoly)
            c = nonzero(rng, random_unipoly)
            assert Scalar(p * c, q * c) == Scalar(p, q)

    def test_denominator_always_monic_and_coprime(self):
        rng = random.Random(102)
        for _ in range(100):
            p = random_unipoly(rng, 3)
            q = nonzero(rng, lambda r: random_unipoly(r, 3))
            s = Scalar(p, q)
            assert s.den.is_monic()
            assert UniPoly.gcd(s.num, s.den).degree <= 0


class TestEvaluate:
    def test_vanishing_at_one(self):
        assert Scalar(poly(-1, 1)).evaluate(1) == 0

    def test_pole_at_one(self):
        s = Scalar(poly(1, var="q"), poly(-1, 1, var="q"))  # 1/(q-1)
        with pytest.raises(PoleAtPoint):
            s.evaluate(1)

    def test_removable_pole_cancelled_first(self):
        # (q^2 - 1)/(q - 1) is q + 1 in canonical form, so the value at 1 is 2
        s = Scalar(poly(-1, 0, 1, var="q"), poly(-1, 1, var="q"))
        assert s.evaluate(1) == 2

    def test_regularity_predicate(self):
        s = Scalar(poly(1), poly(-2, 1))  # 1/(t-2)
        assert s.is_regular_at(3)
        assert not s.is_regular_at(2)


class TestInterpolateBand:
    def test_two_point_line(self):
        # Hand-solved 2x2 system: through (2,3), (3,5) the line is 2t - 1.
        s = interpolate_band([(2, 3), (3, 5)], 0)
        assert s == Scalar(poly(-1, 2))

    def test_constant(self):
        s = interpolate_band([(2, 1), (3, 1), (5, 1)], 0)
        assert s == Scalar(poly(1))

    def test_negative_band(self):
        # Samples of 1/t at 2 and 4; multiplying by t leaves the constant 1.
        s = interpolate_band([(2, Fraction(1, 2)), (4, Fraction(1, 4))], -1)
        assert s == Scalar(poly(1), poly(0, 1))
        assert s.is_laurent()

    def test_duplicate_node(self):
        with pytest.raises(DuplicateNode):
            interpolate_band([(2, 1), (2, 3)], 0)

    def test_zero_node_rejected_for_negative_band(self):
        with pytest.raises(ValueError):
            interpolate_band([(0, 1), (2, 3)], -1)

    def test_matches_all_nodes(self):
        rng = random.Random(104)
        for _ in range(100):
            nodes = rng.sample(range(2, 30), rng.randint(1, 5))
            band = rng.randint(-2, 2)
            points = [(Fraction(x), random_fraction(rng)) for x in nodes]
            s = interpolate_band(points, band)
            for x, y in points:
                assert s.evaluate(x) == y


class TestScalarField:
    def test_arithmetic_agrees_with_evaluation(self):
        # Field operations commute with evaluation at random non-pole points.
        rng = random.Random(105)
        for _ in range(100):
            a = random_scalar(rng)
            b = random_scalar(rng)
            for _ in range(10):
                x = Fraction(rng.randint(2, 40))
                assert (a + b).evaluate(x) == a.evaluate(x) + b.evaluate(x)
                assert (a * b).evaluate(x) == a.evaluate(x) * b.evaluate(x)
                if not b.is_zero() and b.evaluate(x) != 0 and (a / b).is_regular_at(x):
                    assert (a / b).evaluate(x) == a.evaluate(x) / b.evaluate(x)

    def test_inverse(self):
        s = Scalar(poly(-1, 1))
        assert s * s.inverse() == Scalar(poly(1))
        with pytest.raises(ZeroDenominator):
            Scalar(poly()).inverse()

    @pytest.mark.parametrize("s", [
        Scalar.of(Fraction(-3, 2), "q"), Scalar(poly(-1, 2, Fraction(1, 3))),
        Scalar(poly(1, 0, 1), poly(2, 1)), Scalar(poly(1), poly(-1, 1))])
    def test_power_is_repeated_multiplication(self, s):
        product = Scalar.of(1, s.var)
        for k in range(13):
            power = s ** k
            assert power == product and power.var == product.var
            assert s ** -k == product.inverse()
            product = product * s
        with pytest.raises(ZeroDenominator):
            Scalar.of(0, "t") ** -1

    def test_laurent_predicate(self):
        assert Scalar(poly(1), poly(0, 0, 1)).is_laurent()
        assert Scalar(poly(3)).is_laurent()
        assert not Scalar(poly(1), poly(-1, 1)).is_laurent()

    def test_constants_compare_across_variables(self):
        assert Scalar.of(5, "t") == Scalar.of(5, "q")
        assert Scalar.variable("t") != Scalar.variable("q")

    def test_compose(self):
        # (t^2)/(t-1) at t = q + 1 gives (q+1)^2 / q
        outer = Scalar(poly(0, 0, 1), poly(-1, 1))
        inner = Scalar(poly(1, 1, var="q"))
        composed = outer.compose(inner)
        assert composed == Scalar(poly(1, 2, 1, var="q"), poly(0, 1, var="q"))

    def test_serialization_round_trip(self):
        # A scalar serializes as its printed form, which re-parses exactly.
        s = Scalar(poly(-1, 0, 2), poly(0, 3))
        assert s.var == "t"
        assert parse_scalar(str(s), s.var) == s
        assert str(Fraction("3/4")) == "3/4" and str(Fraction(5)) == "5"


class TestScalarMatrix:
    def test_product_shape_rules(self):
        one = Scalar.of(1)
        a = ScalarMatrix(1, 2, [one, one])
        b = ScalarMatrix(2, 1, [one, one])
        assert (a * b).entries == (Scalar.of(2),)
        with pytest.raises(ValueError):
            _ = a * a


# -- the sparse matrix product against a dense reference ----------------------------

ZERO_Q = Scalar.of(0, "q")
small_fractions = st.builds(Fraction, st.integers(-3, 3), st.integers(1, 3))
nonzero_scalars = st.builds(
    lambda num, den: Scalar(UniPoly(num, "q"), UniPoly(den, "q")),
    st.lists(small_fractions, min_size=1, max_size=3).filter(any),
    st.sampled_from([[1], [-1, 1], [2, 0, 1]]))
# Three zeros for every nonzero entry, like the module matrices.
sparse_scalars = st.one_of(st.just(ZERO_Q), st.just(ZERO_Q), st.just(ZERO_Q),
                           nonzero_scalars)


@st.composite
def sparse_matrices(draw, rows, cols):
    entries = draw(st.lists(sparse_scalars, min_size=rows * cols,
                            max_size=rows * cols))
    if draw(st.booleans()):  # one all-zero row
        r = draw(st.integers(0, rows - 1))
        entries[r * cols:(r + 1) * cols] = [ZERO_Q] * cols
    if draw(st.booleans()):  # one all-zero column
        c = draw(st.integers(0, cols - 1))
        entries[c::cols] = [ZERO_Q] * rows
    return ScalarMatrix(rows, cols, entries)


@st.composite
def product_pairs(draw):
    n, k, m = (draw(st.integers(1, 4)) for _ in range(3))
    return draw(sparse_matrices(n, k)), draw(sparse_matrices(k, m))


def naive_product(a, b):
    """Textbook triple loop over every entry, zeros included."""
    out = []
    for i in range(a.rows):
        for j in range(b.cols):
            acc = Scalar.of(0, "q")
            for k in range(a.cols):
                acc = acc + a.entries[i * a.cols + k] * b.entries[k * b.cols + j]
            out.append(acc)
    return out


class TestSparseProduct:
    @settings(max_examples=150, derandomize=True, database=None, deadline=None)
    @given(product_pairs())
    def test_matches_the_triple_loop(self, pair):
        a, b = pair
        product = a * b
        assert (product.rows, product.cols) == (a.rows, b.cols)
        assert product.entries == tuple(naive_product(a, b))

    @settings(max_examples=30, derandomize=True, database=None, deadline=None)
    @given(st.integers(1, 4), st.integers(1, 4), st.integers(1, 4),
           st.integers(1, 4))
    def test_inner_dimension_mismatch(self, n, k, j, m):
        if k == j:
            j += 1
        a = ScalarMatrix(n, k, [ZERO_Q] * (n * k))
        b = ScalarMatrix(j, m, [ZERO_Q] * (j * m))
        with pytest.raises(ValueError):
            _ = a * b



# -- the gcd-free path for polynomial scalars ----------------------------------

coefficients = st.fractions(min_value=-4, max_value=4, max_denominator=3)


@st.composite
def unipolys(draw, var=None):
    var = var or draw(st.sampled_from(("t", "q")))
    return UniPoly(draw(st.lists(coefficients, max_size=4)), var)


@st.composite
def polynomial_scalars(draw):
    return Scalar(draw(unipolys()))


@st.composite
def rational_functions(draw):
    """num/(var - root), with num(root) != 0 so that nothing cancels."""
    var = draw(st.sampled_from(("t", "q")))
    root = draw(coefficients)
    num = draw(unipolys(var).filter(lambda p: p.evaluate(root) != 0))
    return Scalar(num, UniPoly([-root, 1], var))


def canonical(num_expr, den_expr):
    """What the general constructor builds from the textbook expressions."""
    return Scalar(num_expr(), den_expr())


GENERAL = {
    "add": lambda a, b: canonical(lambda: a.num * b.den + b.num * a.den,
                                  lambda: a.den * b.den),
    "sub": lambda a, b: canonical(lambda: a.num * b.den - b.num * a.den,
                                  lambda: a.den * b.den),
    "mul": lambda a, b: canonical(lambda: a.num * b.num, lambda: a.den * b.den),
    "neg": lambda a, b: canonical(lambda: -a.num, lambda: a.den),
}
FAST = {"add": lambda a, b: a + b, "sub": lambda a, b: a - b,
        "mul": lambda a, b: a * b, "neg": lambda a, b: -a}


def outcome(build, a, b):
    """(num coeffs, den coeffs, var), or the error message a mixed pair raises."""
    try:
        s = build(a, b)
    except ValueError as exc:
        return str(exc)
    assert s.num.var == s.den.var == s.var
    return s.num.coeffs, s.den.coeffs, s.var


@contextlib.contextmanager
def counting_gcd():
    """Record every UniPoly.gcd call made inside the block."""
    calls = []
    original = UniPoly.__dict__["gcd"]

    def counted(a, b):
        calls.append((a, b))
        return original.__func__(a, b)

    UniPoly.gcd = staticmethod(counted)
    try:
        yield calls
    finally:
        UniPoly.gcd = original


class TestPolynomialFastPath:
    @settings(max_examples=200, derandomize=True, database=None, deadline=None)
    @given(a=polynomial_scalars(), b=polynomial_scalars(),
           op=st.sampled_from(sorted(GENERAL)), negate=st.booleans())
    def test_same_structure_as_the_constructor(self, a, b, op, negate):
        if negate:
            # b = -a in b's variable: sums vanish, constants change variable.
            b = Scalar(UniPoly([-c for c in a.num.coeffs], b.var)) \
                if a.is_constant() else -a
        assert outcome(FAST[op], a, b) == outcome(GENERAL[op], a, b)

    @pytest.mark.parametrize("op", sorted(GENERAL))
    def test_zero_and_constants_across_variables(self, op):
        cases = [(Scalar.of(2, "t"), Scalar.variable("q")),
                 (Scalar.variable("q"), Scalar.of(2, "t")),
                 (Scalar.of(2, "t"), Scalar.of(-2, "q")),
                 (Scalar.of(0, "t"), Scalar.variable("q")),
                 (Scalar.variable("q"), Scalar.of(0, "t")),
                 (Scalar.variable("q"), Scalar.variable("q")),
                 (Scalar.variable("q"), Scalar.variable("t"))]
        for a, b in cases:
            assert outcome(FAST[op], a, b) == outcome(GENERAL[op], a, b)
        assert (Scalar.of(2, "t") * Scalar.variable("q")).var == "q"
        assert (Scalar.of(2, "t") - Scalar.of(2, "q")).var == "q"

    @settings(max_examples=40, derandomize=True, database=None, deadline=None)
    @given(a=polynomial_scalars(), b=polynomial_scalars(),
           op=st.sampled_from(sorted(GENERAL)))
    def test_polynomials_skip_the_gcd(self, a, b, op):
        with counting_gcd() as calls:
            try:
                FAST[op](a, b)
            except ValueError:
                pass
        assert calls == []

    @settings(max_examples=80, derandomize=True, database=None, deadline=None)
    @given(a=polynomial_scalars(), r=rational_functions(),
           op=st.sampled_from(sorted(GENERAL)), swap=st.booleans())
    def test_rational_functions_are_canonicalized(self, a, r, op, swap):
        a, b = (r, a) if swap else (a, r)
        if op == "neg":
            a = r
        with counting_gcd() as calls:
            fast = outcome(FAST[op], a, b)
        if isinstance(fast, tuple) and fast[0]:
            # Only a zero result is built without a gcd.
            assert calls, "a rational-function operand must be canonicalized"
        assert fast == outcome(GENERAL[op], a, b)


class TestUniPolyArithmetic:
    @settings(max_examples=150, derandomize=True, database=None, deadline=None)
    @given(a=unipolys("t"), b=unipolys("t"))
    def test_sum_and_product_match_the_textbook_forms(self, a, b):
        n = max(len(a.coeffs), len(b.coeffs))

        def pad(p):
            return list(p.coeffs) + [Fraction(0)] * (n - len(p.coeffs))

        total = UniPoly([x + y for x, y in zip(pad(a), pad(b))], "t")
        assert (a + b).coeffs == total.coeffs
        conv = [Fraction(0)] * (len(a.coeffs) + len(b.coeffs))
        for i, x in enumerate(a.coeffs):
            for j, y in enumerate(b.coeffs):
                conv[i + j] += x * y
        assert (a * b).coeffs == UniPoly(conv, "t").coeffs
        assert all(isinstance(c, Fraction) for c in (a + b).coeffs + (a * b).coeffs)


def fraction_str(p):
    """Reference printer: each coefficient as a reduced Fraction, compared
    with 0, 1 and -1, highest power first."""
    parts = []
    for exp in range(len(p.coeffs) - 1, -1, -1):
        c = p.coeffs[exp]
        if c == 0:
            continue
        head = p.var if exp == 1 else f"{p.var}^{exp}"
        body = str(c) if exp == 0 else head if c == 1 else f"-{head}" if c == -1 \
            else f"{c}*{head}"
        parts.append("+" + body if parts and not body.startswith("-") else body)
    return "".join(parts) or "0"


class TestUniPolyPrinting:
    def test_pinned_forms(self):
        assert str(UniPoly([], "t")) == "0"
        assert str(UniPoly([0, 1], "q")) == "q"
        assert str(UniPoly([1, -1], "t")) == "-t+1"
        assert str(UniPoly([Fraction(-1, 2), 0, Fraction(3, 4)], "t")) == "3/4*t^2-1/2"
        assert str(UniPoly([Fraction(7, 10 ** 12), -1, 1], "q")) == "q^2-q+7/1000000000000"

    def test_matches_the_fraction_printer(self):
        # Zero, +-1, shared and coprime denominators up to 10^15, numerators
        # past 2^64, and both variables the kernel uses.
        rng = random.Random(1717)
        special = [0, 0, 1, -1, Fraction(1, 2), Fraction(-1, 3)]
        for _ in range(4000):
            den = rng.choice([1, 1, 2, 6, 10 ** rng.randint(1, 15)])
            coeffs = [rng.choice(special) if rng.random() < 0.4 else
                      Fraction(rng.randint(-2 ** 70, 2 ** 70) >> rng.randint(0, 68), den)
                      for _ in range(rng.randint(0, 7))]
            p = UniPoly(coeffs, rng.choice("tq"))
            assert str(p) == fraction_str(p)


# -- integer-content arithmetic against sympy ----------------------------------

# Small coefficients make cancellations and equal values likely; large ones
# reach far past machine words in both numerator and denominator.
oracle_coefficients = st.one_of(
    coefficients,
    st.builds(Fraction, st.integers(-2 ** 80, 2 ** 80), st.integers(1, 2 ** 70)))


@st.composite
def oracle_polys(draw, var=None):
    var = var or draw(st.sampled_from(("t", "q")))
    return UniPoly(draw(st.lists(oracle_coefficients, max_size=5)), var)


def joined_var(a, b):
    """The variable rule: constants take the other operand's variable."""
    if a.var == b.var:
        return a.var
    if a.is_constant():
        return b.var
    return a.var if b.is_constant() else None


def to_sympy(p, var=None):
    coeffs = [sympy.Rational(c.numerator, c.denominator) for c in reversed(p.coeffs)]
    return sympy.Poly(coeffs or [0], sympy.Symbol(var or p.var), domain="QQ")


def shape(p):
    """(coefficients, variable) of a UniPoly or a sympy Poly."""
    if isinstance(p, UniPoly):
        # The stored form is canonical: no trailing zero, den > 0 and
        # coprime to the ints as a whole.
        ints, den = p._ints, p._den
        assert den > 0 and (not ints or ints[-1]) and math.gcd(den, *ints) == 1
        assert all(isinstance(c, Fraction) for c in p.coeffs)
        return p.coeffs, p.var
    cs = [Fraction(int(c.p), int(c.q)) for c in reversed(p.all_coeffs())]
    while cs and cs[-1] == 0:
        cs.pop()
    return tuple(cs), str(p.gen)


BINARY = {"add": lambda x, y: x + y, "sub": lambda x, y: x - y,
          "mul": lambda x, y: x * y}


class TestSympyOracle:
    @settings(max_examples=150, derandomize=True, database=None, deadline=None)
    @given(a=oracle_polys(), b=oracle_polys(), op=st.sampled_from(sorted(BINARY)))
    def test_ring_operations(self, a, b, op):
        var = joined_var(a, b)
        if var is None:
            with pytest.raises(ValueError):
                BINARY[op](a, b)
            return
        expected = BINARY[op](to_sympy(a, var), to_sympy(b, var))
        assert shape(BINARY[op](a, b)) == shape(expected)

    @settings(max_examples=100, derandomize=True, database=None, deadline=None)
    @given(a=oracle_polys(), c=oracle_coefficients, x=oracle_coefficients)
    def test_unary_operations(self, a, c, x):
        pa = to_sympy(a)
        assert shape(-a) == shape(-pa)
        assert shape(a.scale(c)) == shape(pa * sympy.Rational(c.numerator, c.denominator))
        assert a.evaluate(x) == Fraction(str(pa.eval(sympy.Rational(x.numerator,
                                                                     x.denominator))))
        if not a.is_zero():
            assert shape(a.monic()) == shape(pa.monic())
            assert a.monic().is_monic()

    @settings(max_examples=120, derandomize=True, database=None, deadline=None)
    @given(a=oracle_polys("t"), b=oracle_polys("t"), common=oracle_polys("t"))
    def test_division_and_gcd(self, a, b, common):
        # A shared factor makes nontrivial gcds and exact divisions common.
        a, b = a * common, b * common
        pa, pb = to_sympy(a), to_sympy(b)
        if not b.is_zero():
            q, r = divmod(a, b)
            eq, er = pa.div(pb)
            assert (shape(q), shape(r)) == (shape(eq), shape(er))
            assert q * b + r == a
        assert shape(UniPoly.gcd(a, b)) == shape(pa.gcd(pb))

    def test_gcd_and_division_of_constants_across_variables(self):
        two_q, poly_t = UniPoly([2], "q"), UniPoly([1, 3], "t")
        assert UniPoly.gcd(poly_t, two_q) == UniPoly([1], "t")
        assert UniPoly.gcd(two_q, poly_t).var == "t"
        assert shape(divmod(poly_t, two_q)[0]) == ((Fraction(1, 2), Fraction(3, 2)), "t")
        with pytest.raises(ZeroDivisionError):
            divmod(poly_t, UniPoly([], "t"))

    @settings(max_examples=120, derandomize=True, database=None, deadline=None)
    @given(num=oracle_polys(), den=oracle_polys(), common=oracle_polys())
    def test_scalar_constructor_is_cancel(self, num, den, common):
        if None not in (joined_var(num, common), joined_var(den, common)) \
                and not common.is_zero():
            num, den = num * common, den * common
        var = joined_var(num, den)
        if den.is_zero() or var is None:
            return
        expected_num, expected_den = sympy.fraction(sympy.cancel(
            to_sympy(num, var).as_expr() / to_sympy(den, var).as_expr()))
        symbol = sympy.Symbol(var)
        p = sympy.Poly(expected_num, symbol, domain="QQ")
        q = sympy.Poly(expected_den, symbol, domain="QQ")
        p, q = p.quo_ground(q.LC()), q.monic()
        s = Scalar(num, den)
        assert (shape(s.num), shape(s.den)) == (shape(p), shape(q))


class TestHashAndConstants:
    @settings(max_examples=200, derandomize=True, database=None, deadline=None)
    @given(a=unipolys(), b=unipolys(), d=unipolys())
    def test_equal_values_hash_equal(self, a, b, d):
        b = UniPoly(b.coeffs, a.var)
        other = "q" if a.var == "t" else "t"
        moved = UniPoly(a.coeffs, other)
        pairs = [(a, (a + b) - b), (a, moved), (Scalar(a), Scalar(moved)),
                 (Scalar(a), Scalar(a + b) - Scalar(b))]
        if not b.is_zero():
            d = UniPoly(d.coeffs, a.var)
            pairs.append((Scalar(a, b), Scalar(a * b, b * b) if d.is_zero()
                          else Scalar(a * d, b * d)))
        if a.is_constant():
            c = a.constant_value()
            pairs += [(Scalar(a), c), (Scalar(moved), c)]
            if c.denominator == 1:
                pairs.append((Scalar(a), int(c)))
        for x, y in pairs:
            if x == y:
                assert hash(x) == hash(y), (x, y)
        assert (a == moved) == a.is_constant()
        assert a == (a + b) - b and Scalar(a) == Scalar(a + b) - Scalar(b)

    def test_constants_skip_the_gcd(self):
        with counting_gcd() as calls:
            a, b = Scalar.of(Fraction(-7, 3), "t"), Scalar.of(5, "q")
            products = [a * b, a * a, Scalar.of("2/9") * Scalar.of(9)]
            # A constant denominator divides out without Euclid.
            halved = Scalar(UniPoly([2, 6], "t"), UniPoly([4], "t"))
        assert calls == []
        assert products == [Fraction(-35, 3), Fraction(49, 9), 2]
        assert halved == Scalar(UniPoly([Fraction(1, 2), Fraction(3, 2)], "t"))


@st.composite
def polynomial_scalars_with_constants(draw):
    """Polynomial scalars in t or q; about half are constants, zero included."""
    var = draw(st.sampled_from(("t", "q")))
    size = draw(st.sampled_from((0, 1, 1, 1, 2, 3, 4)))
    coeffs = draw(st.lists(oracle_coefficients, min_size=size, max_size=size))
    return Scalar(UniPoly(coeffs, var))


SYMPY_OPS = {"add": lambda x, y: x + y, "sub": lambda x, y: x - y,
             "mul": lambda x, y: x * y, "neg": lambda x, y: -x}


class TestPolynomialScalarsAgainstSympy:
    @settings(max_examples=250, derandomize=True, database=None, deadline=None)
    @given(a=polynomial_scalars_with_constants(), b=polynomial_scalars_with_constants(),
           op=st.sampled_from(sorted(SYMPY_OPS)))
    def test_operations_on_the_ints(self, a, b, op):
        if op == "neg":
            b = a
        if not a.is_constant() and not b.is_constant() and a.var != b.var:
            with pytest.raises(ValueError, match="cannot mix variables"):
                FAST[op](a, b)
            with pytest.raises(ValueError, match="cannot mix variables"):
                GENERAL[op](a, b)
            return
        result = FAST[op](a, b)
        # A constant result takes the right operand's variable, any other
        # the variable of its nonconstant operand.
        if result.is_constant():
            var = b.var
        else:
            var = a.var if b.is_constant() else b.var
        assert result.var == result.num.var == result.den.var == var
        assert result.is_polynomial() and result.den == UniPoly([1], var)
        assert outcome(FAST[op], a, b) == outcome(GENERAL[op], a, b)
        assert result == Scalar(result.num, result.den)
        expected = SYMPY_OPS[op](to_sympy(a.num, var), to_sympy(b.num, var))
        assert shape(result.num) == shape(expected)

    @settings(max_examples=150, derandomize=True, database=None, deadline=None)
    @given(a=polynomial_scalars_with_constants(), c=oracle_coefficients,
           var=st.sampled_from(("t", "q")))
    @example(a=Scalar(UniPoly([1, 2], "t")), c=Fraction(0), var="t")
    @example(a=Scalar(UniPoly([1, 2], "t")), c=Fraction(-3, 2), var="q")
    @example(a=Scalar.of(5, "t"), c=Fraction(-5, 3), var="q")
    def test_division_by_a_constant(self, a, c, var):
        b = Scalar.of(c, var)
        if not c:
            with pytest.raises(ZeroDenominator):
                a / b
            return
        result = a / b
        assert result.var == result.num.var == result.den.var == (
            b.var if result.is_constant() else a.var)
        assert result.is_polynomial() and result.den == UniPoly([1], result.var)
        assert outcome(lambda x, y: x / y, a, b) == outcome(
            lambda x, y: Scalar(x.num * y.den, x.den * y.num), a, b)
        expected = to_sympy(a.num, a.var) * sympy.Rational(c.denominator, c.numerator)
        assert shape(result.num)[0] == shape(expected)[0]
        assert 1 / b == b.inverse()

    @pytest.mark.parametrize("op", sorted(SYMPY_OPS))
    def test_constants_in_another_variable_on_either_side(self, op):
        t_poly, q_const = Scalar(UniPoly([1, 2], "t")), Scalar.of(Fraction(-3, 2), "q")
        for a, b in [(t_poly, q_const), (q_const, t_poly), (q_const, Scalar.of(3, "t")),
                     (Scalar.of(0, "q"), t_poly), (t_poly, Scalar.of(0, "q"))]:
            result = FAST[op](a, b)
            assert outcome(FAST[op], a, b) == outcome(GENERAL[op], a, b)
            if op == "neg":
                assert result.var == a.var
            elif result.is_constant():
                assert result.var == b.var
            else:
                assert result.var == "t"
