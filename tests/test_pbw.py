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

from helpers import (corrupted_b, gl_presentation, nonzero, random_ncpoly,
                     word_normal_form)
from sclim import pbw
from sclim.arith import Scalar, UniPoly, _canonical, _over, _unit
from sclim.errors import MixedPresentations
from sclim.exprs import parse_expression
from sclim.pbw import (AlgebraMorphism, B, B_lambda, B_q, NCPoly,
                       PBWPresentation, Representation, SwapRule, Usl2,
                       _exponents_to_word, annihilates, casimir,
                       check_pbw_overlaps, commutator, growth_dimensions,
                       growth_slope, is_central, multiply,
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

    @pytest.mark.parametrize("k", range(6))
    def test_power_makes_k_minus_one_products(self, monkeypatch, k):
        p = B()
        x = p.generator(0) + p.generator(1).scale(Fraction(1, 2))
        expected = p.one()
        for _ in range(k):
            expected = multiply(expected, x)
        calls = []

        def counting(a, b):
            calls.append(1)
            return product(a, b)

        product = pbw.multiply
        monkeypatch.setattr(pbw, "multiply", counting)
        for make in (lambda: x ** k, lambda: parse_expression(f"(e + f/2)^{k}", p)):
            power = make()
            assert power == expected and power is not x
            assert len(calls) == max(k - 1, 0)
            calls.clear()

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


def scaled_sl2_file() -> PBWPresentation:
    """sl2 with its brackets scaled by -1/(t-1), read from a presentation file."""
    rhs = {("f", "e"): ("1/(t-1)", "h"), ("h", "e"): ("-2/(t-1)", "e"),
           ("h", "f"): ("2/(t-1)", "f")}
    return presentation_from_json({
        "name": "S", "generators": ["e", "f", "h"],
        "parameter": {"symbol": "t", "value": None},
        "relations": [{"lhs": list(lhs), "coeff": "1",
                       "rhs": [{"coeff": c, "monomial": {g: 1}}]}
                      for lhs, (c, g) in rhs.items()]})


def cartan_first() -> PBWPresentation:
    """B's rules with h ordered first, h < e < f, read from a presentation
    file: every tail is a multiple of the larger generator of its pair."""
    rhs = {("e", "h"): ("-2*(t-1)", "e"), ("f", "h"): ("2*(t-1)", "f"),
           ("f", "e"): ("-(t-1)", "h")}
    return presentation_from_json({
        "name": "C", "generators": ["h", "e", "f"],
        "parameter": {"symbol": "t", "value": None},
        "relations": [{"lhs": list(lhs), "coeff": "1",
                       "rhs": [{"coeff": c, "monomial": {g: 1}}]}
                      for lhs, (c, g) in rhs.items()]})


ENGINE_ALGEBRAS = {"B": B, "B_q": B_q, "Usl2": Usl2,
                   "B_lambda(3/2)": lambda: B_lambda(Fraction(3, 2)),
                   "Q4": quantum_space, "T": quadratic_tail, "S": scaled_sl2_file}


def copy_of(p: PBWPresentation) -> PBWPresentation:
    """The same algebra with a product table of its own."""
    return PBWPresentation(p.name, p.generators, p.swap_rules, p.parameter,
                           p.parameter_value)


def record_terms(p: PBWPresentation, record: tuple) -> dict:
    """A product table record's terms as scalars."""
    den, _, _, parts = record
    return {m: Scalar(UniPoly([Fraction(c, den) for c in pbw._unpack(x, p._width)],
                              p.coeff_var), UniPoly([1] if r is None else r.coeffs, p.coeff_var))
            for m, x, r, _, _ in parts}


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
        assert multiply(p.monomial(a), p.monomial(b)).terms == word_normal_form(p, word)

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

    @pytest.mark.parametrize("name", ["B", "B_q", "Usl2", "B_lambda(3/2)", "Q4", "S"])
    @settings(max_examples=30, derandomize=True, database=None, deadline=None)
    @given(data=st.data())
    def test_products_match_word_rewriting_term_by_term(self, name, data):
        # Constant terms and unit coefficients are common, so the
        # exponent-sum and unit-coefficient shortcuts are taken often.
        p = ENGINE_ALGEBRAS[name]()
        n, var = len(p.generators), p.coeff_var
        exps = st.one_of(st.just((0,) * n), st.tuples(*[st.integers(0, 2)] * n))
        coeffs = st.one_of(
            st.just(p._one), st.just(Scalar.of(1, var)),
            st.builds(lambda c: Scalar.of(c, var),
                      st.fractions(min_value=-3, max_value=3, max_denominator=2)),
            st.builds(lambda c0, c1: Scalar(UniPoly([c0, c1], var)),
                      st.integers(-2, 2), st.integers(-2, 2)),
            # 1/t, 1/(t-1) and (t^2+1)/(t+2): sums over unequal denominators.
            st.sampled_from([Scalar(UniPoly([1], var), UniPoly(d, var))
                             for d in ([0, 1], [-1, 1])]
                            + [Scalar(UniPoly([1, 0, 1], var), UniPoly([2, 1], var))]))
        polys = st.dictionaries(exps, coeffs, max_size=3).map(lambda t: NCPoly(p, t))
        a, b = data.draw(polys), data.draw(polys)
        expected = p.zero()
        for ea, ca in a.terms.items():
            for eb, cb in b.terms.items():
                word = _exponents_to_word(ea) + _exponents_to_word(eb)
                terms = word_normal_form(p, word)
                expected = expected + NCPoly(p, terms).scale(ca * cb)
        assert multiply(a, b) == expected

    def test_ordered_pairs_add_exponents(self):
        p = copy_of(B())
        built = dict(p._table)
        for a, b in [((0, 0, 0), (2, 1, 0)), ((1, 2, 0), (0, 0, 0)),
                     ((2, 0, 0), (1, 0, 3)), ((1, 1, 0), (0, 2, 1))]:
            product = multiply(p.monomial(a), p.monomial(b)).terms
            assert product == {tuple(x + y for x, y in zip(a, b)): p._one}
        assert p._table == built

    @pytest.mark.parametrize("name", ["B_q", "Usl2"])
    @pytest.mark.parametrize("a, b", [((0, 1, 0), (3, 0, 0)),    # f·e^3
                                      ((0, 0, 1), (1, 1, 0)),    # h·ef
                                      ((1, 2, 1), (2, 1, 1))])
    def test_repeated_multi_generator_product_does_no_rewriting(
            self, monkeypatch, name, a, b):
        p = copy_of(ENGINE_ALGEBRAS[name]())
        first = p._rewrite(a, b)
        word = _exponents_to_word(a) + _exponents_to_word(b)
        assert record_terms(p, first) == word_normal_form(p, word)

        def rewrite(*args):
            raise AssertionError("a memoized product was rewritten")

        monkeypatch.setattr(p, "_times", rewrite)
        monkeypatch.setattr(p, "_apply", rewrite)
        assert p._rewrite(a, b) is first

    def test_looping_rules_raise(self):
        one = Scalar.of(1, "t")
        p = PBWPresentation("loop", ("x", "y", "z"), {
            (1, 0): SwapRule(one, {}), (2, 0): SwapRule(one, {}),
            (2, 1): SwapRule(one, {(1, 1, 0): one})})
        # z x = x z + z^2 fails validation; installed afterwards, it makes
        # z^2 y depend on itself.
        p.swap_rules[(2, 0)] = SwapRule(one, {(0, 0, 2): one})
        p._table.clear()
        with pytest.raises(RuntimeError, match="did not terminate"):
            p._rewrite((0, 0, 2), (0, 1, 0))


def degree_six_pairs(p: PBWPresentation) -> list[tuple]:
    """Pairs of monomials whose product has degree 6, two per split 1 + 5,
    2 + 4, ..., 5 + 1, drawn with a fixed seed."""
    rng = random.Random(f"six-{p.name}")

    def monomial(degree):
        exps = [0] * len(p.generators)
        for _ in range(degree):
            exps[rng.randrange(len(exps))] += 1
        return tuple(exps)

    return [(monomial(d), monomial(6 - d)) for d in range(1, 6) for _ in range(2)]


class TestIntegerFill:
    """The table filled on packed ints, from a cold table, at the narrowest
    starting width and through a table emptied part-way, against whole-word
    rewriting on every engine algebra."""

    @pytest.mark.parametrize("mode", ["cold", "narrowest width", "evicting"])
    @pytest.mark.parametrize("name", sorted(ENGINE_ALGEBRAS))
    def test_degree_six_products_match_word_rewriting(self, monkeypatch, name, mode):
        cap = 3
        if mode == "narrowest width":
            monkeypatch.setattr(pbw, "_START_WIDTH", 2)
        if mode == "evicting":
            monkeypatch.setattr(pbw, "_MAX_TABLE_ENTRIES", cap)
        p = copy_of(ENGINE_ALGEBRAS[name]())
        p._table.clear()
        p._width = pbw._START_WIDTH
        for a, b in degree_six_pairs(p):
            word = _exponents_to_word(a) + _exponents_to_word(b)
            assert multiply(p.monomial(a), p.monomial(b)).terms == word_normal_form(p, word)
        if mode == "narrowest width":
            # Q4's coefficients are single powers of t, of L1 norm 1, which
            # width 2 holds.
            assert p._width > 2 or name == "Q4"
        if mode == "evicting":
            assert len(p._table) <= cap

    def test_a_numerator_that_vanishes_at_the_width_widens_the_table(self, monkeypatch):
        # 4 - t is 0 at t = 2^2: packed at the narrowest width, y·x would
        # lose its term (4 - t)·x if the bound did not widen the table.
        monkeypatch.setattr(pbw, "_START_WIDTH", 2)
        one, t = Scalar.of(1, "t"), Scalar.variable("t")
        p = PBWPresentation("V", ("x", "y"), {(1, 0): SwapRule(one, {(1, 0): 4 - t})},
                            parameter="t")
        assert multiply(p.generator(1), p.generator(0)).terms == {(1, 1): one, (1, 0): 4 - t}
        assert p._width > 2

    def test_wide_operands_leave_the_table_as_it_is(self):
        # Operands whose bound passes the table's width pack at their own
        # least width, so the table keeps its width and its records.
        p = copy_of(B())
        e, f, t = p.generator(0), p.generator(1), Scalar.variable("t")
        multiply(f, e)
        width, table = p._width, dict(p._table)
        big = f.scale(t * 2 ** 300 - 1)
        assert multiply(big, e).terms == word_rewriting_product(p, big.terms, e.terms)
        assert p._width == width
        assert all(p._table[key] is record for key, record in table.items())

    @pytest.mark.parametrize("name", ["B", "B_q", "S", "T"])
    def test_long_numerators_match_word_rewriting(self, name):
        # Operand numerators of more than 16 ints pack at the least width,
        # and the records' ints are repacked at it.
        p = copy_of(ENGINE_ALGEBRAS[name]())
        t = Scalar.variable(p.coeff_var)
        x, y, z = (p.generator(k) for k in range(3))
        a = z.scale((t + 1) ** 20) + y.scale(t ** 17 - 3)
        b = y.scale(t ** 18) + x + z
        assert multiply(a, b).terms == word_rewriting_product(p, a.terms, b.terms)

    @pytest.mark.parametrize("name", sorted(ENGINE_ALGEBRAS))
    def test_a_degree_six_fill_outgrows_the_evicting_table(self, name):
        # So the evicting runs above empty the table in the middle of a fill.
        p, entries = copy_of(ENGINE_ALGEBRAS[name]()), []
        for a, b in degree_six_pairs(p):
            p._table.clear()
            multiply(p.monomial(a), p.monomial(b))
            entries.append(len(p._table))
        assert max(entries) > 3


def word_rewriting_product(p, a, b):
    """a·b as the sum of c_a·c_b·(normal form of word(e_a)·word(e_b))."""
    out = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            word = _exponents_to_word(ea) + _exponents_to_word(eb)
            for m, c in word_normal_form(p, word).items():
                pbw._accumulate(out, m, ca * cb * c)
    return out


class TestPackedProducts:
    """`_sum_products` packs numerators into ints; these reach its widths."""

    @pytest.mark.parametrize("name", ["B", "B_q", "Usl2", "B_lambda(3/2)", "S"])
    @settings(max_examples=30, derandomize=True, database=None, deadline=None)
    @given(data=st.data())
    def test_big_numbers_match_word_rewriting_term_by_term(self, name, data):
        p = ENGINE_ALGEBRAS[name]()
        n, var = len(p.generators), p.coeff_var
        exps = st.one_of(st.just((0,) * n), st.tuples(*[st.integers(0, 2)] * n))
        # Numerators to +-2^80 over denominators to 10^12, up to 12 ints.
        big = st.builds(
            lambda cs, d: Scalar(UniPoly([Fraction(c, d) for c in cs], var)),
            st.lists(st.integers(-2 ** 80, 2 ** 80), min_size=1, max_size=12),
            st.integers(1, 10 ** 12))
        coeffs = st.one_of(
            st.just(p._one), big,
            st.builds(lambda c: c / Scalar(UniPoly([-1, 1], var)), big))
        polys = st.dictionaries(exps, coeffs.filter(bool), max_size=3)
        a, b = data.draw(polys), data.draw(polys)
        # x_0·x_1 and 1·(x_0 x_1) reach the same monomial with opposite
        # coefficients, so that group cancels to zero.
        c, d = data.draw(big), data.draw(big)
        x0, x1 = (tuple(int(k == i) for k in range(n)) for i in (0, 1))
        x01 = tuple(map(sum, zip(x0, x1)))
        for left, right in ((a, b), ({x0: c, (0,) * n: c}, {x1: d, x01: -d})):
            got = multiply(NCPoly(p, left), NCPoly(p, right))
            assert got.terms == word_rewriting_product(p, left, right)
        assert x01 not in got.terms

    def test_power_matches_iterated_word_rewriting(self):
        p = B()
        e, f, h = (p.generator(k) for k in range(3))
        t = Scalar.variable("t")
        z = e.scale(Fraction(10 ** 15, 7)) + f.scale(t ** 5 - 7) + h
        expected = {(0, 0, 0): p._one}
        for _ in range(8):
            expected = word_rewriting_product(p, expected, z.terms)
        assert (z ** 8).terms == expected

    def test_round_trip_at_the_width(self):
        rng = random.Random(29)
        for bound in (1, 2, 3, 7, 8, 2 ** 31 - 1, 2 ** 64, 10 ** 30 + 7):
            w = bound.bit_length() + 2
            top = 1 << (w - 2)
            lists = [[top], [-top], [top, -top, 0, top], [0, 0, -top],
                     [-2 * top, 2 * top - 1, bound, -bound]]
            lists += [[rng.randint(-top, top) for _ in range(rng.randint(1, 12))] + [1]
                      for _ in range(20)]
            for ints in lists:
                x = pbw._pack(ints, w)
                assert pbw._unpack(x, w) == ints
                assert pbw._unpack(x + pbw._pack([-c for c in ints], w), w) == []

    @pytest.mark.parametrize("k", [1, 2, 7, 8, 63, 64, 100])
    def test_width_covers_a_group_at_the_bound(self, k):
        # One pair, ordered, so C = 1: the group's top int is N_a·N_b itself.
        p = B()
        for top in (2 ** k - 1, -(2 ** k - 1), 2 ** k):
            a = p.generator(0).scale(Scalar(UniPoly([0, top], "t")))
            got = multiply(a, p.generator(1).scale(Fraction(1, 3)))
            assert got.terms == {(1, 1, 0): Scalar(UniPoly([0, Fraction(top, 3)], "t"))}

    @pytest.mark.parametrize("k", [1, 2, 7, 8, 63, 64, 100])
    def test_width_covers_a_commutator_at_the_bound(self, k):
        # y x = -x y, so both orders of the one pair add into the group of
        # x y with the same sign: its top int is 2·N_a·N_b·C, C = 1, twice
        # a product's bound, and needs the width's second spare bit.
        one = Scalar.of(1, "t")
        p = PBWPresentation("anti", ("x", "y"), {(1, 0): SwapRule(-one, {})},
                            parameter="t")
        t = Scalar(UniPoly([0, 1], "t"))
        for top in (2 ** k - 1, -(2 ** k - 1), 2 ** k):
            a = p.generator(0).scale(Scalar(UniPoly([0, top], "t")))
            got = commutator(a, p.generator(1).scale(t))
            assert got.terms == {(1, 1): Scalar(UniPoly([0, 0, 2 * top], "t"))}

    def test_constant_calls_need_no_width(self, monkeypatch):
        def unpack(x, w):
            raise AssertionError("a constant call unpacked digits")

        monkeypatch.setattr(pbw, "_unpack", unpack)
        for p in (Usl2(), B_lambda(Fraction(3, 2))):
            x, y, z = (p.generator(k) for k in range(3))
            product = multiply(x.scale(Fraction(5, 2)) + y, z + y.scale(-3))
            assert product.terms == word_rewriting_product(
                p, (x.scale(Fraction(5, 2)) + y).terms, (z + y.scale(-3)).terms)


def terms_by_helpers(groups, den, w):
    """`pbw._as_terms` by the helpers: canonical ints, one Scalar a group,
    each added into its monomial's term."""
    out = {}
    for (m, r, v), x in groups:
        if x:
            num = _canonical(pbw._unpack(x, w) if w else [x], den, v)
            pbw._accumulate(out, m, _over(num, _unit(v)) if r is None else Scalar(num, r))
    return out


def canonical_pair(c: Scalar) -> tuple:
    return (c.num._ints, c.num._den, c.num.var, c.den._ints, c.den._den, c.den.var)


T_MINUS_1 = UniPoly([-1, 1], "t")


def random_groups(rng: random.Random, w: int, with_r: bool) -> list[tuple]:
    """Groups ((m, r, v), x) on four monomials: balanced digits of either sign
    packed at 2^w, some with zero top digits and some sharing a factor with
    the denominators; constants in t and q unless `with_r`, then
    denominators r = t - 1 and t^2 + 1 in t."""
    half = 1 << (w - 1) if w else 10 ** 30
    groups = {}
    for _ in range(rng.randint(1, 8)):
        m = rng.choice([(0, 0), (1, 0), (0, 1), (2, 1)])
        k = rng.choice([k for k in (1, 2, 3, 6, 35) if k < half])
        if with_r:
            v, r = "t", rng.choice([None, T_MINUS_1, UniPoly([1, 0, 1], "t")])
        else:
            v, r = rng.choice("tq"), None
        length = rng.randint(1, 5) if w and v == "t" else 1
        ints = [rng.randrange(-(half // k), half // k) * k for _ in range(length)]
        ints += [0] * rng.randint(0, 2 if w else 0)
        groups[m, r, v] = pbw._pack(ints, w) if w else ints[0]
    return list(groups.items())


class TestAsTerms:
    @pytest.mark.parametrize("w", [0, 3, 8, 64, 128])
    @pytest.mark.parametrize("with_r", [False, True])
    def test_terms_are_those_of_the_helpers(self, w, with_r):
        rng = random.Random(w * 2 + with_r)
        for _ in range(200):
            groups = random_groups(rng, w, with_r)
            den = rng.choice([1, 2, 6, 35, 3 * 2 ** 70])
            got, expected = pbw._as_terms(groups, den, w), terms_by_helpers(groups, den, w)
            assert {m: canonical_pair(c) for m, c in got.items()} == {
                m: canonical_pair(c) for m, c in expected.items()}

    @pytest.mark.parametrize("sign, total", [(1, {(1, 0): Scalar.of(Fraction(2, 5))}), (-1, {})])
    @pytest.mark.parametrize("w, v, r, ints", [
        (0, "q", None, [2]), (8, "q", None, [2]), (8, "t", T_MINUS_1, [-2, 2])])
    def test_groups_on_one_monomial_add_or_cancel(self, w, v, r, ints, sign, total):
        # 1/5 at x_0, then ±1/5 as a constant in q or as ±2(t - 1)/(10(t - 1)).
        def pack(ints):
            return pbw._pack(ints, w) if w else ints[0]

        groups = [(((1, 0), None, "t"), pack([2])), (((1, 0), r, v), pack([sign * c for c in ints]))]
        assert pbw._as_terms(groups, 10, w) == terms_by_helpers(groups, 10, w) == total


def horner_pack(ints, w):
    x = 0
    for c in reversed(ints):
        x = (x << w) + c
    return x


def horner_unpack(x, w):
    half, mask = 1 << (w - 1), (1 << w) - 1
    out = []
    while x:
        out.append(((x + half) & mask) - half)
        x = (x - out[-1]) >> w
    return out


class TestLongPacking:
    """Long lists pack and unpack in halves; Horner's loops are the oracle."""

    @pytest.mark.parametrize("length", [0, 1, 15, 16, 17, 33, 10 ** 4])
    def test_round_trip_matches_horner(self, length):
        rng = random.Random(f"pack-{length}")
        for _ in range(20 if length < 100 else 2):
            w = rng.randint(2, 70)
            top = 1 << (w - 1)
            digits = [rng.randrange(-top, top) for _ in range(length)]
            # Runs of zero digits leave a low or a high part zero.
            sparse = [c if rng.random() < 0.1 else 0 for c in digits]
            for ints in (digits, sparse):
                if ints and not ints[-1]:
                    ints[-1] = rng.choice([-top, top - 1, 1])
                x = pbw._pack(ints, w)
                assert x == horner_pack(ints, w)
                assert pbw._unpack(x, w) == ints
            # Any int, not only a packing of in-range digits, unpacks as
            # Horner's loop unpacks it.
            x = rng.randrange(-(1 << (w * length + w)), 1 << (w * length + w))
            assert pbw._unpack(x, w) == horner_unpack(x, w)


class TestProductRecords:
    """Products read split table records; cold, warm and evicting tables agree."""

    @pytest.mark.parametrize("name", ["B", "B_q", "Usl2", "B_lambda(3/2)", "S"])
    @settings(max_examples=20, derandomize=True, database=None, deadline=None)
    @given(data=st.data())
    def test_cold_warm_and_evicting_tables_match_word_rewriting(self, name, data):
        p = ENGINE_ALGEBRAS[name]()
        n, var = len(p.generators), p.coeff_var
        exps = st.tuples(*[st.integers(0, 2)] * n)
        coeffs = st.one_of(
            st.just(p._one),
            st.builds(lambda c: Scalar.of(c, var),
                      st.fractions(min_value=-3, max_value=3, max_denominator=4)),
            st.builds(lambda c0, c1: Scalar(UniPoly([c0, c1], var)),
                      st.integers(-2, 2), st.integers(-2, 2)),
            st.just(Scalar(UniPoly([1], var), UniPoly([-1, 1], var))))
        terms = st.dictionaries(exps, coeffs.filter(bool), min_size=1, max_size=3)
        pairs = data.draw(st.lists(st.tuples(terms, terms), min_size=2, max_size=5))
        expected = [word_rewriting_product(p, a, b) for a, b in pairs]

        def products(q):
            return [multiply(NCPoly(q, a), NCPoly(q, b)).terms for a, b in pairs]

        q = copy_of(p)
        assert products(q) == expected            # cold table
        entries = len(q._table)
        assert products(q) == expected            # warm table
        assert len(q._table) == entries
        cap = max(1, entries // 2)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(pbw, "_MAX_TABLE_ENTRIES", cap)
            q = copy_of(p)
            assert products(q) == expected        # emptied part-way
            assert len(q._table) <= cap

    def test_a_repeated_pair_is_not_split_again(self, monkeypatch):
        p = copy_of(B())
        h, f = p.generator(2), p.generator(1).scale(Fraction(3, 2))
        built = len(p._table)
        splits = []

        def record(key, entry):
            if splits:
                raise AssertionError("a stored product was split again")
            splits.append(key)
            return split(key, entry)

        split = p._store
        monkeypatch.setattr(p, "_store", record)
        first = multiply(h, f)
        # h·f is rewritten once, through the swap rule (h, f) alone.
        assert len(splits) == 1 and len(p._table) == built + 1
        assert multiply(h, f) == first
        assert multiply(h.scale(-2), f + h) == first.scale(-2) + multiply(h, h).scale(-2)

    def test_mixed_variables_raise_on_a_stored_record(self):
        p = copy_of(B())
        e, f = p.generator(0), p.generator(1)
        s = Scalar.variable("s")
        multiply(f, e)                    # stores f·e = e f - (t-1) h
        with pytest.raises(ValueError, match="cannot mix variables 's' and 't'"):
            multiply(f.scale(s), e)
        with pytest.raises(ValueError, match="cannot mix variables 't' and 's'"):
            multiply(f.scale(Scalar.variable("t")), e.scale(s))

    def test_twelfth_power_at_one_is_the_multinomial_expansion(self):
        # At t = 1 the algebra is commutative, as in the benchmark's oracle.
        p = copy_of(B())
        t = Scalar.variable("t")
        cs = [Scalar.of(Fraction(-7, 3)), t * Fraction(2, 5) - 3, Scalar.of(Fraction(5, 2))]
        z = p.zero()
        for k, c in enumerate(cs):
            z = z + p.generator(k).scale(c)

        def at_one(c):
            value = c.evaluate(1)
            return sympy.Rational(value.numerator, value.denominator)

        e, f, h = sympy.symbols("e f h")
        linear = sum(at_one(c) * x for c, x in zip(cs, (e, f, h)))
        expected = sympy.Poly(linear ** 12, e, f, h).as_dict()
        got = {m: at_one(c) for m, c in (z ** 12).terms.items()}
        assert {m: c for m, c in got.items() if c} == expected


class TestPowerSide:
    """Powers over a confluent presentation multiply on the left; a left
    product a·b is filled from the prefixes of b."""

    @pytest.mark.parametrize("mode", ["cold", "narrowest width", "evicting"])
    @pytest.mark.parametrize("name", sorted(ENGINE_ALGEBRAS) + ["C"])
    def test_powers_match_the_right_chain_and_word_rewriting(self, monkeypatch, name, mode):
        if mode == "narrowest width":
            monkeypatch.setattr(pbw, "_START_WIDTH", 2)
        if mode == "evicting":
            monkeypatch.setattr(pbw, "_MAX_TABLE_ENTRIES", 3)
        made = cartan_first() if name == "C" else ENGINE_ALGEBRAS[name]()
        rng = random.Random(f"powers-{name}")
        for k in range(7):
            p, q = copy_of(made), copy_of(made)
            for r in (p, q):
                r._table.clear()
                r._width = pbw._START_WIDTH
            x = random_ncpoly(rng, p, max_degree=2, max_terms=3)
            chain = q.one()
            for _ in range(k):
                chain = multiply(chain, NCPoly(q, x.terms))
            expected = {(0,) * len(p.generators): p._one}
            for _ in range(k):
                expected = word_rewriting_product(p, expected, x.terms)
            assert (x ** k).terms == chain.terms == expected

    def test_without_confluence_powers_keep_the_parsed_order(self):
        # Rules of Lie type whose Jacobi identity fails: rewriting products
        # do not associate, and s·(s·s) differs from (s·s)·s.
        rhs = {("y", "x"): ("1", "z"), ("z", "x"): ("1", "x"), ("z", "y"): ("0", "y")}
        p = presentation_from_json({
            "name": "fresh", "generators": ["x", "y", "z"], "parameter": None,
            "relations": [{"lhs": list(lhs), "coeff": "1",
                           "rhs": [{"coeff": c, "monomial": {g: 1}}]}
                          for lhs, (c, g) in rhs.items()]})
        assert not p.is_confluent
        s = parse_expression("x + y + z", p)
        assert multiply(s, multiply(s, s)) != multiply(multiply(s, s), s)
        assert (parse_expression("(x+y+z)^3", p)
                == parse_expression("(x+y+z)*(x+y+z)*(x+y+z)", p))

    def test_left_powers_keep_records_short(self):
        # Right products h^c·e = e·(h + 2(t-1))^c have c + 1 parts; left
        # ones, h·e^a = e^a·(h + 2a(t-1)), two.  The overlap check stores
        # records of four parts, so the table is emptied first; right
        # products would leave records of 22.
        p = copy_of(B())
        p._table.clear()
        sum(map(p.generator, range(3)), p.zero()) ** 12
        assert max(len(record[3]) for record in p._table.values()) <= 3

    def test_a_known_prefix_leaves_one_apply(self, monkeypatch):
        # f·e^41 is (f·e^40)·e: the walk applies e once; the products that
        # application reaches run inside it.
        p = copy_of(B())
        f = p.generator(1)
        multiply(f, p.monomial((40, 0, 0)))
        apply, depth, outer = p._apply, [0], []

        def counting(record, g, active):
            if not depth[0]:
                outer.append(g)
            depth[0] += 1
            try:
                return apply(record, g, active)
            finally:
                depth[0] -= 1

        monkeypatch.setattr(p, "_apply", counting)
        got = multiply(f, p.monomial((41, 0, 0)))
        assert outer == [0]
        assert got.terms == word_normal_form(p, (1,) + (0,) * 41)


class TestMixedVariables:
    def test_nonconstant_factors_in_two_variables_raise(self):
        p = B()
        e, f = p.generator(0), p.generator(1)
        t, s = Scalar.variable("t"), Scalar.variable("s")
        with pytest.raises(ValueError, match="cannot mix variables 't' and 's'"):
            multiply(e.scale(t), f.scale(s))
        # f·e = e·f - (t-1)·h: a factor in s meets a product coefficient in t.
        with pytest.raises(ValueError, match="cannot mix variables 's' and 't'"):
            multiply(f.scale(s), e)

    def test_a_constant_in_another_variable_is_accepted(self):
        p = B()
        e, f = p.generator(0), p.generator(1)
        three = Scalar.of(3, "s")
        assert multiply(f.scale(three), e) == multiply(f, e).scale(3)
        t = Scalar.variable("t")
        assert multiply(e.scale(t), f.scale(three)) == p.monomial((1, 1, 0), t * 3)


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


COMMUTATOR_ALGEBRAS = {"B": B, "Usl2": Usl2, "B_lambda(3/2)": lambda: B_lambda(Fraction(3, 2)),
                       "U(gl_3)": lambda: gl_presentation(3), "B_q": B_q}


def anticommuting_pair() -> PBWPresentation:
    """y x = -x y: a commutator doubles the coefficient of x y."""
    return PBWPresentation("A", ("x", "y"), {(1, 0): SwapRule(Scalar.of(-1, "t"), {})})


class TestOnePassCommutator:
    """`commutator` sums both orders of each term pair in one pass."""

    @pytest.mark.parametrize("name", sorted(COMMUTATOR_ALGEBRAS))
    @settings(max_examples=25, derandomize=True, database=None, deadline=None)
    @given(data=st.data())
    def test_matches_the_difference_of_two_products(self, name, data):
        p = COMMUTATOR_ALGEBRAS[name]()
        n, var = len(p.generators), p.coeff_var
        exps = st.one_of(st.just((0,) * n), st.tuples(*[st.integers(0, 2 if n < 4 else 1)] * n))
        coeffs = st.one_of(
            st.just(p._one),
            st.builds(lambda c: Scalar.of(c, var),
                      st.fractions(min_value=-5, max_value=5, max_denominator=6)),
            # Numerators to +-2^70, so that the signed groups reach wide ints.
            st.builds(lambda cs, d: Scalar(UniPoly([Fraction(c, d) for c in cs], var)),
                      st.lists(st.integers(-2 ** 70, 2 ** 70), min_size=1, max_size=5),
                      st.integers(1, 10 ** 6)))
        if name == "B_q":
            # Rational-function coefficients: the brackets scaled by (q-1)^-1.
            inverse = Scalar(UniPoly([1], var), UniPoly([-1, 1], var))
            coeffs = coeffs.map(lambda c: c * inverse)
        polys = st.dictionaries(exps, coeffs.filter(bool), max_size=4)
        a, b = NCPoly(p, data.draw(polys)), NCPoly(p, data.draw(polys))
        got = commutator(a, b)
        assert got.terms == (multiply(a, b) - multiply(b, a)).terms
        assert commutator(b, a) == -got

    @pytest.mark.parametrize("k", [1, 2, 7, 8, 63, 64, 100])
    def test_width_covers_a_doubled_group(self, k):
        # [c·x, y] = 2c·x y: both orders add into one group, at 2·N_a·N_b.
        p = anticommuting_pair()
        x, y = p.generator(0), p.generator(1)
        for top in (2 ** k - 1, -(2 ** k - 1), 2 ** k):
            c = Scalar(UniPoly([0, top, -top], "t"))
            got = commutator(x.scale(c), y.scale(Fraction(1, 3)))
            assert got.terms == {(1, 1): c * Fraction(2, 3)}

    def test_makes_no_product(self, monkeypatch):
        p = B()
        a = p.generator(1).scale(Scalar.variable("t")) + p.generator(2)
        b = p.generator(0) ** 2 + p.one()
        expected = multiply(a, b) - multiply(b, a)
        calls = []

        def sum_products(*args, **kwargs):
            calls.append(kwargs)
            return one_pass(*args, **kwargs)

        def product(a, b):
            raise AssertionError("commutator multiplied")

        one_pass = pbw._sum_products
        monkeypatch.setattr(pbw, "_sum_products", sum_products)
        monkeypatch.setattr(pbw, "multiply", product)
        assert commutator(a, b) == expected
        assert calls == [{"commute": True}]

    def test_pairs_that_commute_both_ways_are_not_rewritten(self, monkeypatch):
        p = copy_of(B())
        e, h = p.generator(0), p.generator(2)
        t = Scalar.variable("t")
        a = (e ** 2).scale(t + 1) + p.scalar(3)
        b = e ** 3 + e.scale(Fraction(-2, 7)) + p.scalar(t)

        def rewrite(x, y):
            raise AssertionError("an ordered pair was rewritten")

        p._table.clear()
        monkeypatch.setattr(p, "_rewrite", rewrite)
        assert commutator(a, b).is_zero()
        assert commutator(h ** 2 + p.one(), h.scale(t)).is_zero()
        with pytest.raises(AssertionError, match="rewritten"):
            commutator(h, e)

    @pytest.mark.parametrize("case", ["pair", "record a·b", "record b·a"])
    def test_mixed_variables_raise_as_the_two_products_do(self, case):
        p = copy_of(B())
        e, f = p.generator(0), p.generator(1)
        s, t = Scalar.variable("s"), Scalar.variable("t")
        a, b = {"pair": (e.scale(t), f.scale(s)), "record a·b": (f.scale(s), e),
                "record b·a": (e.scale(s), f)}[case]
        with pytest.raises(ValueError) as two:
            multiply(a, b) - multiply(b, a)
        with pytest.raises(ValueError) as one:
            commutator(a, b)
        assert str(one.value) == str(two.value)
        assert str(one.value).startswith("cannot mix variables")

    def test_mixed_presentations_raise(self):
        with pytest.raises(MixedPresentations):
            multiply(B().generator(0), Usl2().generator(0))
        with pytest.raises(MixedPresentations):
            commutator(B().generator(0), Usl2().generator(0))


class TestCentrality:
    def test_quadratic_central_element(self):
        assert is_central(casimir(B_q()))

    @pytest.mark.parametrize("name", ["B", "B_q", "B_lambda(2)"])
    def test_casimir_equals_its_products(self, name):
        # casimir writes e*f and h^2 as the ordered monomials they are.
        p = {"B": B, "B_q": B_q, "B_lambda(2)": lambda: B_lambda(2)}[name]()
        e, f, h = (p.generator(k) for k in range(3))
        products = (multiply(e, f).scale(4) + multiply(h, h)
                    - h.scale((p.parameter_scalar() - 1) * 2))
        assert list(casimir(p).terms.items()) == list(products.terms.items())

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
        failures = [c for c in report.checks if not c.ok]
        assert [c.triple for c in failures] == [(2, 1, 0)]
        # The two reductions differ by 2(t-1)^2 h, computed by hand.
        bad = failures[0]
        s = t_minus_1()
        diff = bad.left - bad.right
        assert diff == corrupted_b().monomial((0, 0, 1), s * s * 2)


def lie_type(rng: random.Random, confluent: bool) -> PBWPresentation:
    """x < y < z with [y, x] = a z, [z, x] = b x, [z, y] = c y: the rules
    are confluent iff the Jacobi identity a (b + c) = 0 holds."""
    def rat():
        return Fraction(rng.choice((-1, 1)) * rng.randint(1, 5), rng.randint(1, 5))

    a, b = rat(), rat()
    c = -b if confluent else -b + rat()
    one = Scalar.of(1, "t")
    p = PBWPresentation("lie", ("x", "y", "z"), {
        (1, 0): SwapRule(one, {(0, 0, 1): Scalar.of(a, "t")}),
        (2, 0): SwapRule(one, {(1, 0, 0): Scalar.of(b, "t")}),
        (2, 1): SwapRule(one, {(0, 1, 0): Scalar.of(c, "t")})})
    assert p.is_confluent == confluent
    return p


def flipped_gl3() -> PBWPresentation:
    """U(gl_3) with [E21, E12] = E11 - E22, the wrong sign."""
    p = gl_presentation(3)
    rules = dict(p.swap_rules)
    rule = rules[(3, 1)]
    rules[(3, 1)] = SwapRule(rule.coeff, {e: -c for e, c in rule.tail.items()})
    p = PBWPresentation("gl3_flipped", p.generators, rules)
    assert not p.is_confluent
    return p


CERTIFIED = {
    **ENGINE_ALGEBRAS, "B_lambda(2)": lambda: B_lambda(2),
    "B_corrupted": corrupted_b, "gl3": lambda: gl_presentation(3),
    "gl3_flipped": flipped_gl3,
    **{f"lie{seed}": (lambda seed=seed: lie_type(random.Random(seed), seed % 2 == 0))
       for seed in range(40)}}


class TestCertificateOracle:
    """The certificate, reduced through the table, against whole-word rewriting."""

    @pytest.mark.parametrize("name", sorted(CERTIFIED))
    def test_reductions_match_word_rewriting(self, name):
        p = CERTIFIED[name]()

        def oracle(seeds):
            out = {}
            for w, c in seeds:
                for m, mc in word_normal_form(p, w).items():
                    pbw._accumulate(out, m, c * mc)
            return out

        word = _exponents_to_word
        checks = p.overlap_report.checks
        assert len(checks) == math.comb(len(p.generators), 3)
        for check in checks:
            k, j, i = check.triple
            left_rule, right_rule = p.swap_rules[(k, j)], p.swap_rules[(j, i)]
            left = oracle([((j, k, i), left_rule.coeff)]
                          + [(word(t) + (i,), c) for t, c in left_rule.tail.items()])
            right = oracle([((k, i, j), right_rule.coeff)]
                           + [((k,) + word(t), c) for t, c in right_rule.tail.items()])
            assert check.left.terms == left and check.right.terms == right
            assert check.ok == (left == right)


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
            param = p.parameter_scalar() if p.parameter is not None else None
            assert AlgebraMorphism(p, p, {g: p.gen(g) for g in p.generators}, param).holds

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
        for k in range(100):
            B_lambda(Fraction(1000 + k, 7))
        assert len(B()._fibers) <= pbw._MAX_FIBERS == 64
        assert B_lambda(2) is B_lambda(2)

    @pytest.mark.parametrize("lam", ["2", "3", "1/2", "-1", "5/2", "3/4", "-2", "4/3"])
    def test_is_the_fiber_of_B(self, lam):
        fiber = B_lambda(Fraction(lam))
        assert fiber is pbw.specialize_presentation(B(), Fraction(lam))
        assert fiber.name == "B_lambda"


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
