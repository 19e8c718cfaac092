"""Tests for the exact scalar arithmetic layer."""

import contextlib
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import nonzero, random_fraction, random_scalar, random_unipoly
from sclim.arith import Scalar, ScalarMatrix, UniPoly, interpolate_band
from sclim.errors import DuplicateNode, PoleAtPoint, ZeroDenominator


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
        s = Scalar(poly(-1, 0, 2), poly(0, 3))
        data = s.to_json()
        assert data["var"] == "t"
        assert data["num"] and data["den"]
        assert str(Fraction("3/4")) == "3/4" and str(Fraction(5)) == "5"


class TestScalarMatrix:
    def test_product_shape_rules(self):
        one = Scalar.of(1)
        a = ScalarMatrix(1, 2, [one, one])
        b = ScalarMatrix(2, 1, [one, one])
        assert (a * b).entries == (Scalar.of(2),)
        with pytest.raises(ValueError):
            b._check_shape(a)
        with pytest.raises(ValueError):
            _ = a * a

    def test_identity_and_powers(self):
        m = ScalarMatrix.from_rows([[Scalar.of(0), Scalar.of(1)],
                                    [Scalar.of(0), Scalar.of(0)]])
        assert (m ** 2).is_zero()
        assert m ** 0 == ScalarMatrix.identity(2)


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
                acc = acc + a.entry(i, k) * b.entry(k, j)
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
