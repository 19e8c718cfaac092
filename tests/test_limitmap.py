"""Tests for the evaluation, reconstruction, and specialization maps."""

import ast
import random
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import nonzero, random_ncpoly
from sclim import arith, cli, limitmap, pbw, poisson
from sclim.arith import Scalar, UniPoly, interpolate_band
from sclim.errors import (InconsistentFamily, InsufficientSamples, PoleAtOne,
                          PoleAtSample)
from sclim.limitmap import (FamilyElement, SampleSet, gamma_eval, gamma_hat,
                            gamma_hat_via_family, gamma_inverse,
                            specialize_presentation, verify_counterexample)
from sclim.pbw import (AlgebraMorphism, B, B_lambda, B_q, Usl2, annihilates,
                       casimir, commutator, multiply, presentation_from_json,
                       sl2_representation)
from sclim.ideals import CommIdeal, poisson_closure
from sclim.poisson import CPoly, poisson_bracket, semiclassical_limit

VARS = ("e", "f", "h")


def t_minus_1():
    return Scalar(UniPoly([-1, 1], "t"))


def cmono(exps, coeff=1):
    return CPoly.monomial(exps, coeff, VARS)


class TestSampleSet:
    def test_default_integers(self):
        s = SampleSet.integers(4)
        assert s.nodes == (2, 3, 4, 5)

    def test_forbidden_nodes(self):
        for bad in (0, 1, -1):
            with pytest.raises(ValueError):
                SampleSet([bad, 2])

    def test_must_increase(self):
        with pytest.raises(ValueError):
            SampleSet([3, 2])

    def test_rational_nodes_allowed(self):
        s = SampleSet([Fraction(1, 2), 2, 3])
        assert len(s) == 3


class TestGammaEval:
    def test_shift_coefficient(self):
        b = B()
        h = b.generator(2)
        family = gamma_eval(h.scale(t_minus_1()), SampleSet([2, 3]))
        assert family.fiber(2) == B_lambda(2).generator(2)
        assert family.fiber(3) == B_lambda(3).generator(2).scale(2)

    def test_constant_family(self):
        b = B()
        family = gamma_eval(b.generator(0), SampleSet([2, 3, 5]))
        for node in (2, 3, 5):
            assert family.fiber(node) == B_lambda(node).generator(0)

    def test_fibers_carry_their_own_relations(self):
        b = B()
        ef = multiply(b.generator(0), b.generator(1))
        family = gamma_eval(ef, SampleSet([2, 3]))
        # The coefficients are constant, but f*e differs fiber by fiber.
        for node in (2, 3):
            fiber = family.fiber(node)
            assert fiber == B_lambda(node).monomial((1, 1, 0))
            p = fiber.presentation
            fe = multiply(p.generator(1), p.generator(0))
            assert fe == p.monomial((1, 1, 0)) - p.generator(2).scale(
                Scalar.of(node - 1, "t"))

    def test_pole_at_sample(self):
        b = B()
        c = Scalar(UniPoly([1], "t"), UniPoly([-3, 1], "t"))  # 1/(t-3)
        with pytest.raises(PoleAtSample):
            gamma_eval(b.generator(0).scale(c), SampleSet([2, 3]))

    def test_specialized_presentation_matches_builtin(self):
        assert specialize_presentation(B(), 5) == B_lambda(5)
        assert specialize_presentation(B_q(), 5) == B_lambda(5)

    def test_fibers_are_built_once(self):
        b = B()
        nodes = SampleSet([2, 3, 5])
        first = gamma_eval(b.generator(0), nodes)
        second = gamma_eval(b.generator(1).scale(t_minus_1()), nodes)
        assert all(x.presentation is y.presentation
                   for x, y in zip(first.fibers, second.fibers))
        assert len({id(x.presentation) for x in first.fibers}) == 3
        # Structurally equal presentations share the fiber; B_q's differs.
        assert specialize_presentation(B(), 5) is first.fiber(5).presentation
        assert specialize_presentation(B_q(), 5) is not first.fiber(5).presentation
        assert specialize_presentation(B_q(), 5) == B_lambda(5)

    def test_fiber_caches_are_bounded(self):
        b = B()
        fibers = [specialize_presentation(b, node) for node in range(2, 202)]
        assert len(b._fibers) <= pbw._MAX_FIBERS == 64
        # An evicted fiber is built again, equal to the one it replaces.
        assert specialize_presentation(b, 2) == fibers[0] == B_lambda(2)

    def test_cycling_past_the_bound_rebuilds_few_fibers(self, monkeypatch):
        cap = 4
        monkeypatch.setattr(pbw, "_MAX_FIBERS", cap)
        b = B()
        p = pbw.PBWPresentation(b.name, b.generators, b.swap_rules, b.parameter)
        built = []
        init = pbw.PBWPresentation.__init__

        def counting_init(self, *args, **kwargs):
            built.append(args[0])
            init(self, *args, **kwargs)

        monkeypatch.setattr(pbw.PBWPresentation, "__init__", counting_init)
        nodes = SampleSet.integers(cap + 1)
        families = []
        for _ in range(3):
            families.append(gamma_eval(p.generator(0).scale(t_minus_1()), nodes))
            assert len(p._fibers) <= cap
        # Every fiber once, then two a pass; emptying the memo when full
        # rebuilt all five on every pass.
        assert built == ["B_lambda"] * (cap + 1 + 2 * 2)
        # A fiber just built stays memoized.
        fiber = specialize_presentation(p, 100)
        assert specialize_presentation(p, 100) is fiber
        monkeypatch.undo()
        assert all(fib.presentation == B_lambda(node) for family in families
                   for node, fib in zip(nodes, family.fibers))


class TestGammaInverse:
    def test_two_point_reconstruction(self):
        b = B()
        target = b.generator(2).scale(t_minus_1())
        family = gamma_eval(target, SampleSet([2, 3]))
        assert gamma_inverse(family, (0, 1)) == target

    def test_constant_reconstruction(self):
        b = B()
        family = gamma_eval(b.generator(0), SampleSet([2, 3, 5]))
        assert gamma_inverse(family, (0, 2)) == b.generator(0)

    def test_inconsistent_family(self):
        nodes = SampleSet([2, 3, 4])
        fibers = tuple(B_lambda(lam).generator(2).scale(Scalar.of(c, "t"))
                       for lam, c in zip(nodes, (1, 1, 2)))
        family = FamilyElement(nodes.nodes, fibers)
        with pytest.raises(InconsistentFamily):
            gamma_inverse(family, (0, 1))

    def test_insufficient_samples(self):
        b = B()
        family = gamma_eval(b.generator(0), SampleSet([2, 3]))
        with pytest.raises(InsufficientSamples):
            gamma_inverse(family, (0, 2))

    def test_round_trip_random(self):
        rng = random.Random(501)
        b = B()
        nodes = SampleSet.integers(5)
        for _ in range(30):
            z = random_ncpoly(rng, b, max_degree=3, coeff_degree=4)
            assert gamma_inverse(gamma_eval(z, nodes), (0, 4)) == z

    def test_negative_band_round_trip(self):
        # A Laurent coefficient h/t survives the loop with band [-1, 0].
        b = B()
        c = Scalar(UniPoly([1], "t"), UniPoly([0, 1], "t"))
        z = b.generator(2).scale(c) + b.generator(0)
        family = gamma_eval(z, SampleSet([2, 3, 5]))
        assert gamma_inverse(family, (-1, 0)) == z

    def test_default_parent_is_the_sampled_family(self):
        # Fibers of B_q reconstruct into B_q, not into B.
        bq = B_q()
        q = bq.parameter_scalar()
        z = bq.generator(0).scale(q * q + 1)
        back = gamma_inverse(gamma_eval(z, SampleSet.integers(4)), (0, 2))
        assert back.presentation is bq and back == z

    def test_homomorphism_fiberwise(self):
        rng = random.Random(502)
        b = B()
        nodes = SampleSet.integers(4)
        for _ in range(25):
            x = random_ncpoly(rng, b, max_degree=2)
            y = random_ncpoly(rng, b, max_degree=2)
            # Families multiply fiber by fiber.
            products = map(multiply, gamma_eval(x, nodes).fibers, gamma_eval(y, nodes).fibers)
            assert gamma_eval(multiply(x, y), nodes).fibers == tuple(products)


# Integer nodes, non-integer nodes and negative ones; none is 0, 1 or -1.
NODE_POOL = [Fraction(x) for x in (-3, -2, 2, 3, 4, 5, 7)] + [
    Fraction(5, 2), Fraction(1, 3), Fraction(-7, 2)]
SMALL = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 4))
T = sympy.Symbol("t")


def _laurent(ints, m_min):
    """sum(ints[k] t^(m_min + k)) as a `Scalar` in t."""
    if m_min >= 0:
        return Scalar(UniPoly([0] * m_min + list(ints), "t"))
    return Scalar(UniPoly(ints, "t"), UniPoly([0] * -m_min + [1], "t"))


def _sympy(c):
    def poly(p):
        return sum(sympy.Rational(x.numerator, x.denominator) * T ** k
                   for k, x in enumerate(p.coeffs))
    return poly(c.num) / poly(c.den)


@st.composite
def _banded_families(draw):
    """An element of B whose coefficients lie in a band, with the nodes that
    sample it: at least one more node than the band is wide."""
    m_min = draw(st.integers(-2, 1))
    width = draw(st.integers(1, 4))
    count = width + draw(st.integers(1, 2))
    nodes = sorted(draw(st.lists(st.sampled_from(NODE_POOL), min_size=count,
                                 max_size=count, unique=True)))
    monomials = draw(st.lists(st.sampled_from(
        [(0, 0, 0), (1, 0, 0), (0, 1, 1), (2, 0, 1)]), min_size=1, max_size=3, unique=True))
    z = B().monomial((0, 0, 0), 0)
    for m in monomials:
        z = z + B().monomial(m, _laurent(draw(st.lists(SMALL, min_size=width, max_size=width)),
                                         m_min))
    return z, (m_min, m_min + width - 1), SampleSet(nodes)


def _parent_interpolate_band(points, band_min, var="t"):
    """interpolate_band as it summed one `UniPoly` per node."""
    xs = [Fraction(x) for x, _ in points]
    ys = [Fraction(y) / Fraction(x) ** band_min for x, y in points]
    total = UniPoly((), var)
    for basis, y in zip(arith._lagrange_basis(tuple(xs), var), ys):
        if y:
            total = total + basis.scale(y)
    if band_min >= 0:
        return Scalar(total.shift(band_min))
    return Scalar(total, UniPoly.const(1, var).shift(-band_min))


class TestIntegerPathsAgainstSympy:
    """gamma_eval and gamma_inverse evaluate integer nodes by integer Horner
    steps and re-check them by cross-multiplied ints; other nodes and
    Laurent coefficients take the `Fraction` path.  Both against sympy."""

    @given(_banded_families())
    @settings(max_examples=80, derandomize=True, database=None, deadline=None)
    def test_round_trip_matches_sympy_interpolation(self, case):
        z, (m_min, m_max), nodes = case
        family = gamma_eval(z, nodes)
        for node, fiber in zip(nodes, family.fibers):
            assert fiber.terms == {m: Scalar.of(c.evaluate(node), "t")
                                   for m, c in z.terms.items() if c.evaluate(node)}
        back = gamma_inverse(family, (m_min, m_max))
        assert back == z
        width = m_max - m_min + 1
        for m in z.terms:
            points = [(sympy.Rational(x.numerator, x.denominator),
                       _sympy(fib.coefficient(m)) * sympy.Rational(
                           x.numerator, x.denominator) ** -m_min)
                      for x, fib in zip(nodes, family.fibers)][:width]
            expected = sympy.interpolate(points, T) * T ** m_min
            assert sympy.cancel(expected - _sympy(back.coefficient(m))) == 0

    @given(_banded_families(), st.data())
    @settings(max_examples=60, derandomize=True, database=None, deadline=None)
    def test_tampered_surplus_node_is_inconsistent(self, case, data):
        z, band, nodes = case
        family = gamma_eval(z, nodes)
        k = data.draw(st.integers(band[1] - band[0] + 1, len(nodes) - 1))
        m = data.draw(st.sampled_from([(0, 0, 0), (1, 0, 0), (0, 1, 1)]))
        fibers = list(family.fibers)
        fibers[k] = fibers[k] + fibers[k].presentation.monomial(m, 1)
        with pytest.raises(InconsistentFamily):
            gamma_inverse(FamilyElement(family.nodes, tuple(fibers)), band)

    @given(st.lists(st.sampled_from(NODE_POOL), min_size=2, max_size=5, unique=True),
           st.data())
    @settings(max_examples=40, derandomize=True, database=None, deadline=None)
    def test_pole_at_a_node(self, nodes, data):
        nodes = sorted(nodes)
        x = data.draw(st.sampled_from(nodes))
        c = Scalar(UniPoly([1], "t"), UniPoly([-x, 1], "t"))
        with pytest.raises(PoleAtSample):
            gamma_eval(B().generator(1).scale(c), SampleSet(nodes))

    @given(st.lists(st.sampled_from(NODE_POOL), min_size=1, max_size=5, unique=True),
           st.data(), st.integers(-2, 2))
    @settings(max_examples=80, derandomize=True, database=None, deadline=None)
    def test_interpolate_band_gives_the_parent_outputs(self, nodes, data, band_min):
        points = [(x, data.draw(SMALL)) for x in nodes]
        info = arith._lagrange_basis.cache_info()
        got = interpolate_band(points, band_min)
        after = arith._lagrange_basis.cache_info()
        assert after.hits + after.misses == info.hits + info.misses + 1
        expected = _parent_interpolate_band(points, band_min)
        assert got == expected and str(got) == str(expected)

    @pytest.mark.parametrize("nodes, band", [
        ([2, Fraction(5, 2), 3, 4], (-1, 1)),
        ([-3, Fraction(1, 3), 2, 5], (-2, 0)),
        ([2, 3, 4, 5], (-1, 1)),
    ])
    def test_non_integer_nodes_and_negative_bands(self, nodes, band):
        t = Scalar.variable("t")
        c = t.inverse() * 3 + Scalar.of(Fraction(1, 2), "t") - t * 2
        if band[1] < 1:
            c = c / t
        z = B().generator(0).scale(c) + B().generator(2)
        assert gamma_inverse(gamma_eval(z, SampleSet(nodes)), band) == z


class TestSpecializeAtOne:
    def test_parameter_goes_to_one(self):
        bq = B_q()
        q_elem = bq.scalar(bq.parameter_scalar())
        assert gamma_hat(q_elem) == CPoly.const(1, VARS)

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_shifted_central_element(self, n):
        bq = B_q()
        qm1 = Scalar.variable("q") - 1
        z = casimir(bq) - bq.scalar(qm1 * qm1 * (n * n - 1))
        assert gamma_hat(z) == 4 * cmono((1, 1, 0)) + cmono((0, 0, 2))

    @pytest.mark.parametrize("n", [2, 3])
    def test_scaled_power_commutator(self, n):
        bq = B_q()
        e, f = bq.generator(0), bq.generator(1)
        qm1 = Scalar.variable("q") - 1
        z = commutator(e ** n, f).scale(qm1.inverse())
        assert gamma_hat(z) == cmono((n - 1, 0, 1), n)

    def test_pole_at_one(self):
        bq = B_q()
        inv = (Scalar.variable("q") - 1).inverse()
        with pytest.raises(PoleAtOne):
            gamma_hat(bq.generator(0).scale(inv))

    def test_parameter_scaling_is_absorbed(self):
        rng = random.Random(503)
        bq = B_q()
        q = bq.parameter_scalar()
        for _ in range(50):
            z = random_ncpoly(rng, bq, coeff_degree=2)
            assert gamma_hat(z.scale(q)) == gamma_hat(z)

    def test_multiplicative_into_the_limit(self):
        rng = random.Random(504)
        bq = B_q()
        for _ in range(50):
            x = random_ncpoly(rng, bq, max_degree=2)
            y = random_ncpoly(rng, bq, max_degree=2)
            assert gamma_hat(multiply(x, y)) == gamma_hat(x) * gamma_hat(y)

    def test_monomials_are_hit(self):
        bq = B_q()
        for exps in [(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1),
                     (2, 1, 0), (1, 1, 1), (0, 2, 3)]:
            assert gamma_hat(bq.monomial(exps)) == cmono(exps)

    def test_semiclassical_compatibility(self):
        # Projecting (t-1)^-1 [a, b] at 1 agrees with the bracket of the
        # projections; this ties the three modules together.
        rng = random.Random(505)
        b = B()
        algebra = semiclassical_limit(b)
        inv = t_minus_1().inverse()
        for _ in range(50):
            x = random_ncpoly(rng, b, max_degree=2)
            y = random_ncpoly(rng, b, max_degree=2)
            lhs = gamma_hat(commutator(x, y).scale(inv))
            rhs = poisson_bracket(algebra, gamma_hat(x), gamma_hat(y))
            assert lhs == rhs

    def test_composite_route_agrees(self):
        rng = random.Random(506)
        bq = B_q()
        nodes = SampleSet.integers(5)
        for _ in range(25):
            z = random_ncpoly(rng, bq, max_degree=2, coeff_degree=2)
            assert gamma_hat_via_family(z, nodes) == gamma_hat(z)

    def test_composite_route_stays_in_the_element_algebra(self):
        # y x = q x y: at 1 the generators commute, so both routes send
        # y*x to x*y in the commutative ring on x, y.
        p = presentation_from_json({
            "name": "quantum_plane", "generators": ["x", "y"],
            "parameter": {"symbol": "q", "value": None},
            "relations": [{"lhs": ["y", "x"], "coeff": "q", "rhs": []}]})
        yx = multiply(p.gen("y"), p.gen("x"))
        expected = CPoly.monomial((1, 1), 1, ("x", "y"))
        assert gamma_hat(yx) == expected
        assert gamma_hat_via_family(yx, SampleSet.integers(4)) == expected


class TestInterpolationBasis:
    def test_basis_is_cached_per_node_tuple_and_bounded(self):
        arith._lagrange_basis.cache_clear()
        for start in range(2, 202):
            nodes = [start, start + 1, start + 2]
            s = interpolate_band([(x, x * x) for x in nodes], 0)
            assert s == Scalar(UniPoly([0, 0, 1]))
        info = arith._lagrange_basis.cache_info()
        assert info.currsize <= info.maxsize == 64
        interpolate_band([(2, 1), (3, 5), (4, 7)])
        interpolate_band([(2, -1), (3, 0), (4, 9)])
        assert arith._lagrange_basis.cache_info().hits == info.hits + 1


class TestLimitAlgebraIsBuiltOnce:
    def test_one_semiclassical_limit_of_b(self, monkeypatch, capsys):
        calls = []
        original = poisson.semiclassical_limit

        def counted(p):
            calls.append(p)
            return original(p)

        monkeypatch.setattr(poisson, "semiclassical_limit", counted)
        poisson.B1.cache_clear()
        try:
            for n in (2, 3):
                assert verify_counterexample(n, SampleSet([2, 3, 5])).passed
            assert cli.main(["closure", "--ideal", "e^2"]) == 0
            assert cli.main(["bracket", "e", "f"]) == 0
        finally:
            poisson.B1.cache_clear()
        capsys.readouterr()
        assert calls == [B()]


class TestVerifyCounterexample:
    def test_n2(self):
        report = verify_counterexample(2, SampleSet([2, 3, 5]))
        assert report.passed
        assert len(report.checks) == 6
        assert report.witness == ("e", 2)
        # The closure basis is reported in the poisson_closure check's details.
        (details,) = [c.details for c in report.checks if c.name == "poisson_closure"]
        closure_basis = ast.literal_eval(details.split("closure basis: ", 1)[1])
        assert sorted(closure_basis) == sorted(
            ["e^2", "e*f", "e*h", "f^2", "f*h", "h^2"])

    def test_n3(self):
        report = verify_counterexample(3, SampleSet([2, 3, 5, 7]))
        assert report.passed
        assert report.witness == ("e", 3)

    def test_n1_rejected(self):
        with pytest.raises(ValueError):
            verify_counterexample(1, SampleSet([2, 3, 5]))

    def test_too_few_samples_rejected(self):
        with pytest.raises(ValueError):
            verify_counterexample(2, SampleSet([2, 3]))

    def test_report_serializes(self):
        # The CLI serializes these fields; the check order is the report's.
        report = verify_counterexample(2, SampleSet([2, 3, 5]))
        assert report.passed is True
        assert report.witness == ("e", 2)
        assert [c.name for c in report.checks] == [
            "central_element", "ideal_proper", "generator_images",
            "poisson_closure", "image_elements_in_closure", "nilpotent_witness"]


def _ideal_proper(report):
    (check,) = [c for c in report.checks if c.name == "ideal_proper"]
    return check


class TestIdealProperOverQ:
    """`ideal_proper` runs on U(sl2)'s module over Q through the certified
    rescaling e -> (q-1)E; a wrong input to any step must fail the check."""

    @pytest.fixture(autouse=True)
    def _fresh_rescaling(self):
        limitmap._rescaling.cache_clear()
        yield
        limitmap._rescaling.cache_clear()

    def test_rescaling_is_certified(self):
        assert limitmap._rescaling() == Scalar.variable("q") - 1

    @pytest.mark.parametrize("n", [2, 3, 7])
    def test_module_over_q_kills_the_rescaled_generators(self, n):
        rep = sl2_representation(n, Usl2())
        assert all(c.is_constant() for images in rep.actions.values()
                   for image in images for c in image.values())
        s = limitmap._rescaling()
        power, central = (limitmap._over_q(z, s)
                          for z in limitmap._ideal_generators(n, casimir(B_q())))
        u = Usl2()
        E, F, H = (u.generator(k) for k in range(3))
        assert power == E ** n
        assert central == multiply(E, F).scale(4) + multiply(H, H) - H.scale(2) \
            - u.scalar(n * n - 1)
        assert annihilates(rep, power) and annihilates(rep, central)
        assert not annihilates(rep, E ** (n - 1))

    def test_the_check_opens_at_the_module(self, monkeypatch):
        # perfbench's tracer opens ideal_proper at this call.
        calls = []
        original = limitmap.sl2_representation
        monkeypatch.setattr(limitmap, "sl2_representation",
                            lambda n, p=None: calls.append((n, p)) or original(n, p))
        assert verify_counterexample(3, SampleSet([2, 3, 5])).passed
        assert calls == [(3, Usl2())]

    @pytest.mark.parametrize("n", [2, 4])
    def test_e_to_the_n_minus_one_fails(self, monkeypatch, n):
        original = limitmap._ideal_generators
        monkeypatch.setattr(limitmap, "_ideal_generators",
                            lambda k, omega: (original(k - 1, omega)[0], original(k, omega)[1]))
        check = _ideal_proper(verify_counterexample(n, SampleSet([2, 3, 5])))
        assert not check.passed
        assert f"annihilates e^{n}: False" in check.details

    @pytest.mark.parametrize("power, factor", [
        (2, 1),     # Omega - (q-1)^2 n^2
        (2, -3),    # Omega - (q-1)^2 (n^2 - 4)
        (1, 1),     # a constant term that is not (q-1)^2 times a rational
    ])
    def test_wrong_casimir_constant_fails(self, monkeypatch, power, factor):
        original = limitmap._ideal_generators
        shift = (Scalar.variable("q") - 1) ** power * factor

        def tampered(n, omega):
            power, central = original(n, omega)
            return power, central - B_q().scalar(shift)

        monkeypatch.setattr(limitmap, "_ideal_generators", tampered)
        check = _ideal_proper(verify_counterexample(3, SampleSet([2, 3, 5])))
        assert not check.passed
        assert check.details.endswith(
            "annihilates the shifted central element: False" if power == 2
            else "is not a power of q-1 times an element over Q")

    @pytest.mark.parametrize("source, gen, wrong", [
        ("B_q", "e", "F"),
        ("B_q", "h", "E"),
        ("Usl2", "F", "e"),
    ])
    def test_wrong_morphism_image_fails(self, monkeypatch, source, gen, wrong):
        def tampered(src, tgt, images, parameter_image=None):
            if src.name == source:
                (c,) = images[gen].terms.values()
                images = dict(images, **{gen: tgt.gen(wrong).scale(c)})
            return AlgebraMorphism(src, tgt, images, parameter_image)

        monkeypatch.setattr(limitmap, "AlgebraMorphism", tampered)
        check = _ideal_proper(verify_counterexample(3, SampleSet([2, 3, 5])))
        assert not check.passed
        assert check.details == "the rescaling onto U(sl2) is not an isomorphism"


class TestGammaHatOfPInTheClosure:
    """Γ̂ of sampled elements of P = (e^n, Ω - (q-1)^2 (n^2-1)) over Q(q)
    lies in C, the Poisson closure of the generators' images: sums of
    products a·g·b, and iterated commutators, each divided by q - 1 while
    its coefficients all vanish at 1 (at most three times)."""

    @staticmethod
    def _lowest(z, shift):
        for _ in range(3):
            if z.is_zero() or any(c.evaluate(1) for c in z.terms.values()):
                break
            z = z.scale(shift.inverse())
        return z

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_sampled_elements_of_p_land_in_the_closure(self, n):
        bq, b1 = B_q(), poisson.B1()
        gens = limitmap._ideal_generators(n, casimir(bq))
        closure = poisson_closure(CommIdeal(b1, [gamma_hat(g) for g in gens]), b1)
        shift, rng = bq.parameter_scalar() - 1, random.Random(900 + n)
        elements = []
        for _ in range(60):
            z = bq.zero()
            for _ in range(2):
                a, b = (random_ncpoly(rng, bq, max_degree=2) for _ in range(2))
                z = z + multiply(multiply(a, rng.choice(gens)), b)
            elements.append(z)
        for _ in range(40):
            z = gens[0]         # the other generator is central
            for _ in range(rng.randint(1, 3)):
                z = nonzero(rng, lambda rng: commutator(z, random_ncpoly(rng, bq, max_degree=2)))
            elements.append(z)
        divisions = []
        for z in elements:
            low = self._lowest(z, shift)
            divisions.append(low != z)
            assert closure.contains(gamma_hat(low))
        assert all(divisions[60:])      # every commutator divides at least once
