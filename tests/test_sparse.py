"""Properties of the term arithmetic that `NCPoly` and `CPoly` share.

Each property runs on both rings: `NCPoly` over B_q with `Scalar`
coefficients and `CPoly` over e, f, h with `Fraction` coefficients.  The
expected values are built through the public constructors, which validate
every term, so they do not go through the shared arithmetic under test.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sclim.arith import Scalar, UniPoly
from sclim.pbw import B_q, NCPoly
from sclim.poisson import CPoly

VARS = ("e", "f", "h")
UNIT = (0, 0, 0)

fractions = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 4))
exponents = st.tuples(*[st.integers(0, 2)] * 3)
polynomial_scalars = st.builds(lambda cs: Scalar(UniPoly(cs, "q")),
                               st.lists(fractions, max_size=3))


class NCRing:
    name = "NCPoly"
    coeffs = polynomial_scalars

    @staticmethod
    def make(terms):
        return NCPoly(B_q(), terms)

    @staticmethod
    def coeff_of(value):
        return value if isinstance(value, Scalar) else Scalar.of(value, "q")


class CRing:
    name = "CPoly"
    coeffs = fractions

    @staticmethod
    def make(terms):
        return CPoly(VARS, terms)

    @staticmethod
    def coeff_of(value):
        return Fraction(value)


RINGS = pytest.mark.parametrize("ring", [NCRing, CRing], ids=lambda r: r.name)
PROPERTY = settings(max_examples=60, derandomize=True, database=None, deadline=None)


def elements(ring):
    return st.dictionaries(exponents, ring.coeffs, max_size=4).map(ring.make)


def assert_canonical(ring, x):
    """Right class, and every stored coefficient nonzero and of the ring's type."""
    assert type(x) is type(ring.make({}))
    coeff_type = type(ring.coeff_of(1))
    assert all(type(c) is coeff_type and c for c in x.terms.values())


def plus_constant(ring, a, value):
    terms = dict(a.terms)
    terms[UNIT] = terms.get(UNIT, ring.coeff_of(0)) + ring.coeff_of(value)
    return ring.make(terms)


@RINGS
@PROPERTY
@given(data=st.data())
def test_scalar_coercion_on_either_side(ring, data):
    a = data.draw(elements(ring))
    c = data.draw(ring.coeffs)
    for left in (2 + a, a + 2):
        assert_canonical(ring, left)
        assert left == plus_constant(ring, a, 2)
    third = Fraction(1, 3)
    difference = third - a
    assert_canonical(ring, difference)
    assert difference == plus_constant(
        ring, ring.make({e: -x for e, x in a.terms.items()}), third)
    assert a - third == plus_constant(ring, a, -third)
    expected = ring.make({e: x * c for e, x in a.terms.items()})
    for product in (a * c, c * a, a.scale(c)):
        assert_canonical(ring, product)
        assert product == expected
    assert (a == 0) == (not a.terms)
    assert (a + 5 == 5) == (not a.terms)
    assert ring.make({UNIT: ring.coeff_of(third)}) == third


@RINGS
@PROPERTY
@given(data=st.data())
def test_zero_scale_and_zero_power(ring, data):
    a = data.draw(elements(ring))
    for zero in (a.scale(0), a * 0, 0 * a, a - a):
        assert_canonical(ring, zero)
        assert zero.is_zero() and zero == 0 and zero.degree() == -1
    one = a ** 0
    assert_canonical(ring, one)
    assert one.terms == {UNIT: ring.coeff_of(1)}
    assert a ** 1 == a
    with pytest.raises(ValueError):
        a ** -1


@RINGS
@PROPERTY
@given(data=st.data())
def test_add_then_subtract_round_trips(ring, data):
    a = data.draw(elements(ring))
    b = data.draw(elements(ring))
    total = a + b
    assert_canonical(ring, total)
    assert total - b == a
    assert -(-a) == a
    assert total == b + a
    assert total.degree() <= max(a.degree(), b.degree())


@RINGS
@PROPERTY
@given(data=st.data())
def test_subtraction_is_adding_the_negative(ring, data):
    a = data.draw(elements(ring))
    b = data.draw(elements(ring))
    difference, expected = a - b, a + (-b)
    assert_canonical(ring, difference)
    # The same terms in the same order, with the same coefficients.
    assert list(difference.terms.items()) == list(expected.terms.items())
    assert [str(c) for c in difference.terms.values()] == \
        [str(c) for c in expected.terms.values()]


@PROPERTY
@given(data=st.data())
def test_cpoly_hash_agrees_with_equality(data):
    a = data.draw(elements(CRing))
    b = data.draw(elements(CRing))
    for same in ((a + b) - b, a * 1, CPoly(VARS, a.terms), a.scale(Fraction(2)) - a):
        assert same == a
        assert hash(same) == hash(a)
    if a == b:
        assert hash(a) == hash(b)
    assert len({a, (a + b) - b, CPoly(VARS, dict(a.terms))}) == 1
    # A constant equals, so hashes as, the number it holds.
    for value in (0, 3, data.draw(fractions)):
        const = CPoly.const(value, VARS)
        assert const == value and const == Fraction(value)
        assert hash(const) == hash(value)
        assert len({const, value, Fraction(value)}) == 1
