"""Tests for the noncommutative rewriting engine."""

import json
import math
import random
import sys
from fractions import Fraction
from importlib import resources

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import corrupted_b, nonzero, random_ncpoly
from sclim import pbw
from sclim.arith import Scalar, UniPoly
from sclim.errors import MixedPresentations
from sclim.pbw import (AlgebraMorphism, B, B_lambda, B_q, NCPoly,
                       PBWPresentation, Representation, SwapRule, Usl2,
                       _exponents_to_word, annihilates, casimir,
                       check_pbw_overlaps, commutator, growth_dimensions,
                       growth_slope, identity_morphism, is_central, multiply,
                       presentation_from_json, presentation_to_json,
                       sl2_representation)


def t_minus_1():
    return Scalar(UniPoly([-1, 1], "t"))


class TestMultiply:
    def test_fe(self):
        b = B()
        e, f, h = (b.generator(k) for k in range(3))
        assert multiply(f, e) == multiply(e, f) - h.scale(t_minus_1())

    def test_he(self):
        b = B()
        e, f, h = (b.generator(k) for k in range(3))
        assert multiply(h, e) == multiply(e, h) + e.scale(t_minus_1() * 2)

    def test_ordered_product_is_direct(self):
        b = B()
        e = b.generator(0)
        assert multiply(e, e) == b.monomial((2, 0, 0))

    def test_hhe_expansion(self):
        # Applying the h*e rule twice by hand:
        # h(he) = eh^2 + 4(t-1)eh + 4(t-1)^2 e
        b = B()
        e, f, h = (b.generator(k) for k in range(3))
        s = t_minus_1()
        expected = (b.monomial((1, 0, 2))
                    + b.monomial((1, 0, 1), s * 4)
                    + b.monomial((1, 0, 0), s * s * 4))
        assert multiply(multiply(h, h), e) == expected

    def test_mixed_presentations_rejected(self):
        with pytest.raises(MixedPresentations):
            multiply(B().generator(0), B_q().generator(0))

    def test_normal_form_idempotent(self):
        rng = random.Random(201)
        for p in (B(), B_q(), Usl2()):
            for _ in range(25):
                z = random_ncpoly(rng, p)
                assert multiply(z, p.one()) == z
                assert multiply(p.one(), z) == z


def quantum_space() -> PBWPresentation:
    """Four generators that t-commute on the pairs (j, i) with j + i odd."""
    one, t = Scalar.of(1, "t"), Scalar.variable("t")
    rules = {(j, i): SwapRule(t if (i + j) % 2 else one, {})
             for j in range(4) for i in range(j)}
    return PBWPresentation("Q4", ("a", "b", "c", "d"), rules, parameter="t")


def quadratic_tail() -> PBWPresentation:
    """y x = t x y, z x = x z / t, z y = y z + (t - 1) x^2."""
    one, t = Scalar.of(1, "t"), Scalar.variable("t")
    rules = {(1, 0): SwapRule(t, {}),
             (2, 0): SwapRule(one / t, {}),
             (2, 1): SwapRule(one, {(2, 0, 0): t - 1})}
    return PBWPresentation("T", ("x", "y", "z"), rules, parameter="t")


ENGINE_ALGEBRAS = {"B": B, "B_q": B_q, "Usl2": Usl2,
                   "B_lambda(3/2)": lambda: B_lambda(Fraction(3, 2)),
                   "Q4": quantum_space, "T": quadratic_tail}


def copy_of(p: PBWPresentation) -> PBWPresentation:
    """The same algebra with an empty product table of its own."""
    return PBWPresentation(p.name, p.generators, p.swap_rules, p.parameter,
                           p.parameter_value)


def stack_depth() -> int:
    frame, depth = sys._getframe(), 0
    while frame is not None:
        frame, depth = frame.f_back, depth + 1
    return depth


class TestProductEngine:
    """Products from the table against whole-word rewriting as the oracle."""

    @pytest.mark.parametrize("name", sorted(ENGINE_ALGEBRAS))
    @settings(max_examples=25, derandomize=True, database=None, deadline=None)
    @given(data=st.data())
    def test_matches_word_rewriting(self, name, data):
        p = ENGINE_ALGEBRAS[name]()
        assert p.is_confluent
        exps = st.tuples(*[st.integers(0, 3)] * len(p.generators))
        a, b = data.draw(exps), data.draw(exps)
        word = _exponents_to_word(a) + _exponents_to_word(b)
        assert p._monomial_product(a, b) == p._word_normal_form(word)

    @pytest.mark.parametrize("gen, shift", [(0, 2), (1, -2)])
    def test_deep_power_is_binomial(self, gen, shift):
        # Over B_lambda(2), h e = e (h + 2) and h f = f (h - 2), so
        # h^n x = x (h + shift)^n = sum_j C(n, j) shift^(n-j) x h^j.
        n = 1200
        p = copy_of(B_lambda(2))
        x, h = p.generator(gen), p.generator(2)
        power = h ** n
        limit = sys.getrecursionlimit()
        # The engine may not nest deeper as the degree grows.
        sys.setrecursionlimit(stack_depth() + 60)
        try:
            got = multiply(power, x)
        finally:
            sys.setrecursionlimit(limit)
        expected = {}
        for j in range(n + 1):
            exps = [0, 0, j]
            exps[gen] = 1
            expected[tuple(exps)] = Scalar.of(math.comb(n, j) * shift ** (n - j), "t")
        assert got.terms == expected

    def test_table_is_bounded_and_eviction_changes_nothing(self, monkeypatch):
        rng = random.Random(206)
        pairs = [(random_ncpoly(rng, B(), max_degree=4),
                  random_ncpoly(rng, B(), max_degree=4)) for _ in range(30)]
        reference = copy_of(B())
        expected = [multiply(NCPoly(reference, a.terms), b).terms for a, b in pairs]
        cap = 16
        assert len(reference._table) > cap
        monkeypatch.setattr(pbw, "_MAX_TABLE_ENTRIES", cap)
        p = copy_of(B())
        for (a, b), terms in zip(pairs, expected):
            got = multiply(NCPoly(p, a.terms), b)
            assert len(p._table) <= cap
            assert got.terms == terms

    def test_looping_rules_raise(self):
        one = Scalar.of(1, "t")
        p = PBWPresentation("loop", ("x", "y", "z"), {
            (1, 0): SwapRule(one, {}), (2, 0): SwapRule(one, {}),
            (2, 1): SwapRule(one, {(1, 1, 0): one})})
        # z x = x z + z^2 fails validation; installed afterwards, it makes
        # z^2 y depend on itself.
        p.swap_rules[(2, 0)] = SwapRule(one, {(0, 0, 2): one})
        with pytest.raises(RuntimeError, match="did not terminate"):
            p._monomial_product((0, 0, 2), (0, 1, 0))


class TestCommutator:
    def test_ef_in_bq(self):
        bq = B_q()
        e, f = bq.generator(0), bq.generator(1)
        qm1 = Scalar.variable("q") - 1
        assert commutator(e, f) == bq.generator(2).scale(qm1)

    def test_self_commutator_vanishes(self):
        bq = B_q()
        assert commutator(bq.generator(0), bq.generator(0)).is_zero()

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_power_commutator_formula(self, n):
        # Telescoping by hand: [e^n, f] = n(q-1) e^{n-1} h + n(n-1)(q-1)^2 e^{n-1}
        bq = B_q()
        e, f = bq.generator(0), bq.generator(1)
        qm1 = Scalar.variable("q") - 1
        expected = (bq.monomial((n - 1, 0, 1), qm1 * n)
                    + bq.monomial((n - 1, 0, 0), qm1 * qm1 * (n * (n - 1))))
        assert commutator(e ** n, f) == expected

    def test_bilinearity_and_alternation(self):
        rng = random.Random(202)
        bq = B_q()
        for _ in range(50):
            a = random_ncpoly(rng, bq, max_degree=2)
            b = random_ncpoly(rng, bq, max_degree=2)
            c = random_ncpoly(rng, bq, max_degree=2)
            assert commutator(a, a).is_zero()
            assert commutator(a, b + c) == commutator(a, b) + commutator(a, c)

    def test_exact_relations_of_b(self):
        b = B()
        e, f, h = (b.generator(k) for k in range(3))
        s = t_minus_1()
        assert (commutator(e, f) - h.scale(s)).is_zero()
        assert (commutator(h, e) - e.scale(s * 2)).is_zero()
        assert (commutator(h, f) + f.scale(s * 2)).is_zero()


class TestCentrality:
    def test_quadratic_central_element(self):
        assert is_central(casimir(B_q()))

    def test_generator_not_central(self):
        assert not is_central(B_q().generator(2))

    def test_constants_central(self):
        assert is_central(B_q().scalar(Fraction(7, 3)))


class TestOverlaps:
    def test_b_single_triple_passes(self):
        report = check_pbw_overlaps(B())
        assert report.passed
        assert [c.triple for c in report.checks] == [(2, 1, 0)]

    def test_builtins_pass(self):
        for p in (B(), B_q(), Usl2(), B_lambda(2), B_lambda(3), B_lambda(5)):
            assert p.is_confluent, p.name

    def test_corrupted_rule_fails_on_hfe(self):
        report = check_pbw_overlaps(corrupted_b())
        assert not report.passed
        assert [c.triple for c in report.failures()] == [(2, 1, 0)]
        # The two reductions differ by 2(t-1)^2 h, computed by hand.
        bad = report.failures()[0]
        s = t_minus_1()
        diff = bad.left - bad.right
        assert diff == corrupted_b().monomial((0, 0, 1), s * s * 2)


class TestGrowth:
    def test_dimension_at_two(self):
        assert growth_dimensions(B(), 2)[2] == 10

    def test_binomial_sequence_and_slope(self):
        dims = growth_dimensions(B(), 12)
        assert dims == [math.comb(d + 3, 3) for d in range(13)]
        slope = growth_slope(dims, 6, 12)
        assert Fraction(28, 10) <= slope <= Fraction(32, 10)

    def test_same_growth_across_family(self):
        expected = growth_dimensions(B(), 12)
        for p in (B_lambda(2), B_lambda(3), Usl2(), B_q()):
            assert growth_dimensions(p, 12) == expected

    def test_single_generator(self):
        p = PBWPresentation("poly1", ("x",), {})
        assert growth_dimensions(p, 5) == [1, 2, 3, 4, 5, 6]

    def test_requires_confluence(self):
        with pytest.raises(ValueError):
            growth_dimensions(corrupted_b(), 3)


class TestMorphisms:
    def test_scaling_by_inverse_shift_is_isomorphism(self):
        src, tgt = Usl2(), B_q()
        inv = (Scalar.variable("q") - 1).inverse()
        images = {"E": tgt.generator(0).scale(inv),
                  "F": tgt.generator(1).scale(inv),
                  "H": tgt.generator(2).scale(inv)}
        m = AlgebraMorphism(src, tgt, images)
        assert m.holds

    def test_naive_generator_map_fails(self):
        src, tgt = Usl2(), B_q()
        images = {"E": tgt.generator(0), "F": tgt.generator(1),
                  "H": tgt.generator(2)}
        m = AlgebraMorphism(src, tgt, images)
        assert not m.holds
        # EF - FE - H maps to (q-2)h, visible through the morphism directly.
        e, f, h = (tgt.generator(k) for k in range(3))
        qm2 = Scalar.variable("q") - 2
        assert commutator(e, f) - h == h.scale(qm2)

    def test_identity_morphism(self):
        for p in (B(), B_q(), Usl2()):
            assert identity_morphism(p).holds

    def test_morphism_application(self):
        src, tgt = Usl2(), B_q()
        inv = (Scalar.variable("q") - 1).inverse()
        images = {"E": tgt.generator(0).scale(inv),
                  "F": tgt.generator(1).scale(inv),
                  "H": tgt.generator(2).scale(inv)}
        m = AlgebraMorphism(src, tgt, images)
        ef = multiply(src.gen("E"), src.gen("F"))
        assert m(ef) == multiply(images["E"], images["F"])


def _qm1():
    return Scalar.variable("q") - 1


def _sympy_scalar(c, q):
    """A `Scalar` in q as a sympy expression."""
    def poly(p):
        return sum((sympy.Rational(x.numerator, x.denominator) * q ** k
                    for k, x in enumerate(p.coeffs)), sympy.Integer(0))
    return poly(c.num) / poly(c.den)


class TestRepresentations:
    def test_one_dimensional_is_zero(self):
        rep = sl2_representation(1)
        assert rep.actions == {"e": ({},), "f": ({},), "h": ({},)}

    def test_two_dimensional_matrices(self):
        rep = sl2_representation(2)
        qm1 = _qm1()
        assert rep.actions["h"] == ({0: qm1}, {1: -qm1})
        assert rep.actions["e"] == ({}, {0: qm1})
        assert rep.actions["f"] == ({1: qm1}, {})

    def test_three_dimensional_weights(self):
        rep = sl2_representation(3)
        qm1 = _qm1()
        # The zero weight of the middle vector is not stored.
        assert rep.actions["h"] == ({0: qm1 * 2}, {}, {2: qm1 * (-2)})

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_annihilates_ideal_generators(self, n):
        bq = B_q()
        rep = sl2_representation(n)
        e = bq.generator(0)
        assert annihilates(rep, e ** n)
        # The quadratic central element acts as the scalar (q-1)^2 (n^2-1).
        qm1 = Scalar.variable("q") - 1
        shifted = casimir(bq) - bq.scalar(qm1 * qm1 * (n * n - 1))
        assert annihilates(rep, shifted)

    def test_nonzero_action(self):
        rep = sl2_representation(2)
        assert not annihilates(rep, B_q().generator(0))

    def test_invalid_matrices_rejected(self):
        one = Scalar.of(1, "q")
        identity = [{0: one}, {1: one}]
        with pytest.raises(ValueError):
            # The identity on every generator does not satisfy [e, f] = (q-1)h.
            Representation(B_q(), 2, {"e": identity, "f": identity, "h": identity})

    @pytest.mark.parametrize("n", [2, 3, 5])
    def test_one_wrong_entry_in_e_rejected(self, n):
        actions = {g: [dict(image) for image in images]
                   for g, images in sl2_representation(n).actions.items()}
        actions["e"][1][0] = actions["e"][1][0] * 2
        with pytest.raises(ValueError, match="fails"):
            Representation(B_q(), n, actions)

    def test_missing_generator_or_index_out_of_range_rejected(self):
        actions = dict(sl2_representation(2).actions)
        del actions["h"]
        with pytest.raises(ValueError, match="one action per generator"):
            Representation(B_q(), 2, actions)
        actions = dict(sl2_representation(2).actions)
        for bad in (({2: _qm1()}, {}), ({-1: _qm1()}, {}), ({1: _qm1()},)):
            actions["f"] = bad
            with pytest.raises(ValueError, match="outside"):
                Representation(B_q(), 2, actions)
        with pytest.raises(ValueError, match="out of range"):
            sl2_representation(2).apply(B_q().one(), 2)
        with pytest.raises(ValueError, match="positive"):
            sl2_representation(0)

    @pytest.mark.parametrize("n", range(1, 7))
    def test_action_matches_sympy_matrices(self, n):
        # Independent route: the dense matrices E, F, H of the weight module
        # in sympy, multiplied out monomial by monomial.
        q = sympy.Symbol("q")
        E = sympy.Matrix(n, n, lambda r, c: c * (n - c) if r == c - 1 else 0)
        F = sympy.Matrix(n, n, lambda r, c: 1 if r == c + 1 else 0)
        H = sympy.Matrix(n, n, lambda r, c: n - 1 - 2 * r if r == c else 0)
        gens = [(q - 1) * E, (q - 1) * F, (q - 1) * H]
        rep = sl2_representation(n)
        rng = random.Random(600 + n)
        for _ in range(8):
            z = random_ncpoly(rng, B_q(), max_degree=4, max_terms=3)
            matrix = sympy.zeros(n, n)
            for exps, c in z.terms.items():
                mono = sympy.eye(n)
                for g, k in enumerate(exps):
                    mono = mono * gens[g] ** k
                matrix += _sympy_scalar(c, q) * mono
            for i in range(n):
                image = rep.apply(z, i)
                assert set(image) <= set(range(n))
                for j in range(n):
                    got = _sympy_scalar(image[j], q) if j in image else 0
                    assert sympy.cancel(got - matrix[j, i]) == 0


class TestBLambdaCache:
    def test_bounded_and_shared(self):
        from sclim.pbw import _b_lambda_cached
        for k in range(100):
            B_lambda(Fraction(1000 + k, 7))
        assert _b_lambda_cached.cache_info().currsize <= 64
        assert B_lambda(2) is B_lambda(2)


class TestProperties:
    def test_associativity(self):
        rng = random.Random(203)
        for p in (B(), B_q(), Usl2(), B_lambda(2)):
            for _ in range(50):
                a = random_ncpoly(rng, p, max_degree=3, max_terms=2)
                b = random_ncpoly(rng, p, max_degree=3, max_terms=2)
                c = random_ncpoly(rng, p, max_degree=3, max_terms=2)
                assert multiply(multiply(a, b), c) == multiply(a, multiply(b, c))

    def test_leading_term_multiplicative(self):
        rng = random.Random(204)
        for p in (B(), B_q(), Usl2()):
            for _ in range(50):
                a = nonzero(rng, lambda r: random_ncpoly(r, p, max_degree=3))
                b = nonzero(rng, lambda r: random_ncpoly(r, p, max_degree=3))
                la, lb = a.leading_monomial(), b.leading_monomial()
                lab = multiply(a, b).leading_monomial()
                assert lab == tuple(x + y for x, y in zip(la, lb))


class TestPresentationFiles:
    def test_shipped_files_match_constructors(self):
        pairs = [("b.json", B()), ("b_q.json", B_q()), ("usl2.json", Usl2()),
                 ("b_lambda.json", B_lambda(2))]
        for name, expected in pairs:
            raw = resources.files("sclim.data").joinpath(name).read_text()
            assert presentation_from_json(json.loads(raw)) == expected

    def test_round_trip(self):
        for p in (B(), B_q(), Usl2(), B_lambda(Fraction(7, 2))):
            assert presentation_from_json(presentation_to_json(p)) == p

    def test_rules_must_cover_every_pair(self):
        with pytest.raises(ValueError):
            PBWPresentation("bad", ("x", "y"), {})

    def test_degree_two_tail_must_sit_below_pair(self):
        one = Scalar.of(1, "t")
        with pytest.raises(ValueError):
            PBWPresentation("bad", ("x", "y"), {
                (1, 0): SwapRule(one, {(1, 1): one}),
            })
