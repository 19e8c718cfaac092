"""Tests for the evaluation, reconstruction, and specialization maps."""

import ast
import random
from fractions import Fraction

import pytest

from helpers import random_ncpoly
from sclim import arith, cli, pbw, poisson
from sclim.arith import Scalar, UniPoly, interpolate_band
from sclim.errors import (InconsistentFamily, InsufficientSamples, PoleAtOne,
                          PoleAtSample)
from sclim.limitmap import (FamilyElement, SampleSet, gamma_eval, gamma_hat,
                            gamma_hat_via_family, gamma_inverse,
                            specialize_presentation, verify_counterexample)
from sclim.pbw import (B, B_lambda, B_q, casimir, commutator, multiply,
                       presentation_from_json)
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
