"""Tests for the Groebner engine and the Poisson ideal operations."""

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import closure_by_rounds, degree_slice_basis, random_cpoly
from sclim import ideals
from sclim.ideals import (CommIdeal, MonomialOrder, groebner, ideal_equal,
                          is_poisson_ideal, membership,
                          nilpotent_nonprime_witness, poisson_closure,
                          reduce_poly, s_polynomial)
from sclim.pbw import B
from sclim.poisson import (CPoly, PoissonAlgebra, poisson_bracket,
                           semiclassical_limit)

VARS = ("e", "f", "h")


def v(name):
    return CPoly.variable(name, VARS)


def mono(exps, coeff=1):
    return CPoly.monomial(exps, coeff, VARS)


def b1():
    return semiclassical_limit(B())


DEG2_MONOMIALS = [mono(e) for e in
                  [(2, 0, 0), (1, 1, 0), (1, 0, 1), (0, 2, 0), (0, 1, 1), (0, 0, 2)]]


class TestOrder:
    def test_degrevlex_on_quadratics(self):
        key = MonomialOrder(precedence=VARS).key_for(VARS)
        ranked = sorted([(2, 0, 0), (1, 1, 0), (1, 0, 1), (0, 2, 0),
                         (0, 1, 1), (0, 0, 2)], key=key, reverse=True)
        assert ranked == [(2, 0, 0), (1, 1, 0), (0, 2, 0),
                          (1, 0, 1), (0, 1, 1), (0, 0, 2)]

    def test_lex(self):
        key = MonomialOrder(kind="lex", precedence=VARS).key_for(VARS)
        assert key((1, 0, 0)) > key((0, 9, 9))

    def test_degree_dominates_in_degrevlex(self):
        key = MonomialOrder(precedence=VARS).key_for(VARS)
        assert key((0, 0, 3)) > key((1, 1, 0))

    @pytest.mark.parametrize("precedence", [("e", "f", "h", "e"), ("e", "f"),
                                            ("e", "f", "x")])
    def test_precedence_must_be_a_permutation(self, precedence):
        with pytest.raises(ValueError, match="every variable once"):
            MonomialOrder(precedence=precedence).key_for(VARS)

    def test_variables_must_be_distinct(self):
        with pytest.raises(ValueError, match="every variable once"):
            MonomialOrder().key_for(("e", "e"))


class TestRingOrder:
    """The ring that `key_for` returns states the order twice: as a sort key
    on exponents and as the int order of packed monomials."""

    @pytest.mark.parametrize("kind", ["degrevlex", "lex"])
    @settings(max_examples=100, derandomize=True, database=None, deadline=None)
    @given(data=st.data())
    def test_key_and_packing_agree_for_every_precedence(self, kind, data):
        for variables in (("a", "b", "c"), ("a", "b", "c", "d")):
            # Degrees below the 16-bit fields' limit; b is often a permutation
            # of a, so that the total degrees tie.
            top = ((1 << (ideals._FIELD_BITS - 1)) - 1) // len(variables)
            exps = st.tuples(*[st.one_of(st.integers(0, 3), st.integers(0, top))]
                             * len(variables))
            a = data.draw(exps)
            b = data.draw(st.one_of(exps, st.permutations(a).map(tuple)))
            for precedence in itertools.permutations(variables):
                ring = MonomialOrder(kind, precedence).key_for(variables)
                assert ring.unpack(ring.pack(a)) == a
                assert (ring(a) < ring(b)) == (ring.pack(a) < ring.pack(b))
                assert (ring(a) == ring(b)) == (a == b) == (ring.pack(a) == ring.pack(b))


class TestGroebner:
    def test_principal(self):
        assert groebner([v("e")], variables=VARS) == [v("e")]

    def test_monomial_ideal_is_its_own_basis(self):
        key = MonomialOrder(precedence=VARS).key_for(VARS)
        gb = groebner(DEG2_MONOMIALS, variables=VARS)
        expected = sorted(DEG2_MONOMIALS,
                          key=lambda g: key(max(g.terms, key=key)))
        assert gb == expected

    def test_frozen_golden_value(self):
        # Computed by an independent hand trace before the build: a single
        # S-polynomial chain from (e^2, ef + h^2/4) yields eh^2, then h^4.
        gb = groebner([mono((2, 0, 0)), 4 * mono((1, 1, 0)) + mono((0, 0, 2))],
                      variables=VARS)
        expected = [mono((1, 1, 0)) + mono((0, 0, 2), Fraction(1, 4)),
                    mono((2, 0, 0)), mono((1, 0, 2)), mono((0, 0, 4))]
        assert gb == expected

    def test_uniqueness_under_generator_shuffle(self):
        rng = random.Random(401)
        for _ in range(100):
            gens = [random_cpoly(rng, VARS, max_degree=2) for _ in
                    range(rng.randint(1, 3))]
            gens = [g for g in gens if not g.is_zero()]
            if not gens:
                continue
            shuffled = gens[:]
            rng.shuffle(shuffled)
            assert groebner(gens, variables=VARS) == \
                groebner(shuffled, variables=VARS)

    def test_buchberger_criterion_on_output(self):
        rng = random.Random(402)
        key = MonomialOrder(precedence=VARS).key_for(VARS)
        for _ in range(100):
            gens = [random_cpoly(rng, VARS, max_degree=2) for _ in range(2)]
            gb = groebner(gens, variables=VARS)
            for f, g in itertools.combinations(gb, 2):
                s = s_polynomial(f, g, key)
                assert reduce_poly(s, gb, key).is_zero()

    def test_pair_count_does_not_depend_on_generator_order(self, monkeypatch):
        # The 2n + 2 vectors that span the n = 12 closure as a vector space:
        # e^n, its 2n iterated brackets with f, and the Casimir; not a
        # Groebner basis.  Taken in the caller's order, an echelon form of
        # them formed 299 S-polynomials fed smallest leading term first and
        # 1,044 fed largest first.
        algebra, casimir = b1(), 4 * mono((1, 1, 0)) + mono((0, 0, 2))
        orbit = [mono((12, 0, 0))]
        for _ in range(24):
            orbit.append(poisson_bracket(algebra, orbit[-1], v("f")))
        closure = poisson_closure(CommIdeal(VARS, [orbit[0], casimir]), algebra)
        key = closure.order.key_for(closure.variables)
        gens = sorted(orbit + [casimir], key=lambda g: key(max(g.terms, key=key)))
        s_terms, counts, bases = ideals._s_terms, [], []
        for ordered in (gens, gens[::-1]):
            calls = []
            monkeypatch.setattr(ideals, "_s_terms",
                                lambda *args: calls.append(1) or s_terms(*args))
            bases.append(CommIdeal(VARS, ordered).reduced_gb)
            counts.append(len(calls))
        assert bases[0] == bases[1] == closure.reduced_gb
        assert counts[0] == counts[1]

    def test_generators_must_be_over_the_given_variables(self):
        # These once came back as the e > f > h basis, read as polynomials
        # in (h, f, e); mixed variable lists were merged without a word.
        gens = [v("e") ** 2 + v("h"), v("e") * v("h") + v("f")]
        hfe = ("h", "f", "e")
        with pytest.raises(ValueError, match="generator over the wrong variable list"):
            groebner(gens, MonomialOrder("lex"), hfe)
        with pytest.raises(ValueError, match="generator over the wrong variable list"):
            groebner([v("e"), CPoly.variable("e", hfe)])
        # A zero generator over another variable list is rejected too, by
        # `groebner` itself and through `CommIdeal`, with the same message.
        zero = CPoly.variable("e", hfe) - CPoly.variable("e", hfe)
        with pytest.raises(ValueError, match="^generator over the wrong variable list$"):
            groebner([v("e"), zero], variables=VARS)
        with pytest.raises(ValueError, match="^generator over the wrong variable list$"):
            groebner([zero], variables=VARS)
        with pytest.raises(ValueError, match="^generator over the wrong variable list$"):
            CommIdeal(VARS, [v("e"), zero])
        # The h > f > e basis is asked for by precedence.
        gb = groebner(gens, MonomialOrder("lex", hfe), VARS)
        assert [str(g) for g in gb] == ["-e^3 + f", "e^2 + h"]

    def test_every_generator_reduces_to_zero(self):
        rng = random.Random(403)
        for _ in range(50):
            gens = [random_cpoly(rng, VARS, max_degree=2) for _ in range(2)]
            ideal = CommIdeal(VARS, gens)
            for g in gens:
                assert ideal.contains(g)


class TestMembership:
    def test_degree_one_not_in_quadratic_monomials(self):
        ideal = CommIdeal(VARS, DEG2_MONOMIALS)
        inside, remainder = membership(v("e"), ideal)
        assert not inside
        assert remainder == v("e")

    def test_generator_is_member(self):
        for n in (2, 3, 4):
            ideal = CommIdeal(VARS, [mono((n, 0, 0)),
                                     4 * mono((1, 1, 0)) + mono((0, 0, 2))])
            assert ideal.contains(mono((n, 0, 0)))

    def test_h_squared_in_closure(self):
        closure = poisson_closure(
            CommIdeal(VARS, [mono((2, 0, 0)),
                             4 * mono((1, 1, 0)) + mono((0, 0, 2))]), b1())
        assert closure.contains(mono((0, 0, 2)))

    def test_products_stay_inside(self):
        rng = random.Random(404)
        ideal = CommIdeal(VARS, [mono((2, 0, 0)),
                                 4 * mono((1, 1, 0)) + mono((0, 0, 2))])
        for _ in range(100):
            p = random_cpoly(rng, VARS)
            q = random_cpoly(rng, VARS)
            member = ideal.generators[rng.randrange(2)] * p
            assert ideal.contains(member * q + member)


class TestPoissonIdeal:
    def test_quadratic_invariant_is_stable(self):
        ideal = CommIdeal(VARS, [4 * mono((1, 1, 0)) + mono((0, 0, 2))])
        assert is_poisson_ideal(ideal, b1())

    def test_pair_is_not_stable(self):
        # {e^2, f} = 2eh falls outside the plain ideal.
        ideal = CommIdeal(VARS, [mono((2, 0, 0)),
                                 4 * mono((1, 1, 0)) + mono((0, 0, 2))])
        algebra = b1()
        assert not is_poisson_ideal(ideal, algebra)
        bracket = poisson_bracket(algebra, mono((2, 0, 0)), v("f"))
        assert bracket == 2 * mono((1, 0, 1))
        assert not ideal.contains(bracket)

    def test_trivial_ideals_are_stable(self):
        algebra = b1()
        assert is_poisson_ideal(CommIdeal(VARS, []), algebra)
        assert is_poisson_ideal(CommIdeal(VARS, [CPoly.const(1, VARS)]), algebra)


class TestClosure:
    def test_golden_closure(self):
        closure = poisson_closure(
            CommIdeal(VARS, [mono((2, 0, 0)),
                             4 * mono((1, 1, 0)) + mono((0, 0, 2))]), b1())
        assert ideal_equal(closure, CommIdeal(VARS, DEG2_MONOMIALS))

    def test_stable_ideal_is_a_fixpoint(self):
        ideal = CommIdeal(VARS, [4 * mono((1, 1, 0)) + mono((0, 0, 2))])
        closure = poisson_closure(ideal, b1())
        assert ideal_equal(closure, ideal)

    def test_unit_ideal(self):
        ideal = CommIdeal(VARS, [CPoly.const(1, VARS)])
        assert ideal_equal(poisson_closure(ideal, b1()), ideal)

    def test_closure_properties_random(self):
        rng = random.Random(405)
        algebra = b1()
        for _ in range(100):
            gens = [random_cpoly(rng, VARS, max_degree=2, max_terms=2)
                    for _ in range(rng.randint(1, 2))]
            ideal = CommIdeal(VARS, gens)
            closure = poisson_closure(ideal, algebra)
            for g in gens:
                assert closure.contains(g)
            assert is_poisson_ideal(closure, algebra)
            assert ideal_equal(poisson_closure(closure, algebra), closure)
            if is_poisson_ideal(ideal, algebra):
                assert ideal_equal(closure, ideal)


class TestKostantShape:
    @pytest.mark.parametrize("n", [*range(2, 13), 20, 40, 60])
    def test_closure_of_the_paper_images(self, n):
        # Kostant: S(sl2) is the invariants tensor the harmonics, so the
        # closure of (e^n, 4ef + h^2) is (4ef + h^2) + (e, f, h)^n.  Its
        # reduced basis in degrevlex is ef + h^2/4 and the 2n+1 degree-n
        # monomials not divisible by ef: e^a h^(n-a) and f^b h^(n-b).  At
        # n = 2, h^2 is one of them and reduces the invariant to ef.
        closure = poisson_closure(
            CommIdeal(VARS, [mono((n, 0, 0)),
                             4 * mono((1, 1, 0)) + mono((0, 0, 2))]), b1())
        invariant = mono((1, 1, 0)) + (mono((0, 0, 2), Fraction(1, 4)) if n > 2 else 0)
        expected = ({invariant}
                    | {mono((a, 0, n - a)) for a in range(n + 1)}
                    | {mono((0, b, n - b)) for b in range(1, n + 1)})
        assert len(closure.reduced_gb) == 2 * n + 2
        assert set(closure.reduced_gb) == expected


XYZ = ("x", "y", "z")


def xyz(name):
    return CPoly.variable(name, XYZ)


# Bracket tables by the degree of their entries: five linear ones (sl2*,
# Heisenberg, a constant {x, y} = 1 with z central, and sl2* and Heisenberg
# with non-integer coefficients, whose denominators the engine clears) and
# the quadratic log-canonical {x, y} = xy, {y, z} = yz, {x, z} = xz.
TABLES = {
    "B1": b1,
    "B1/3": lambda: PoissonAlgebra(VARS, {
        (a, b): b1().bracket_of(a, b) * Fraction(1, 3)
        for a, b in [("e", "f"), ("e", "h"), ("f", "h")]}),
    "heisenberg": lambda: PoissonAlgebra(XYZ, {("x", "y"): xyz("z")}),
    "heisenberg/2": lambda: PoissonAlgebra(XYZ, {("x", "y"): xyz("z") * Fraction(1, 2)}),
    "constant": lambda: PoissonAlgebra(XYZ, {("x", "y"): CPoly.const(1, XYZ)}),
    "quadratic": lambda: PoissonAlgebra(
        XYZ, {(a, b): xyz(a) * xyz(b) for a, b in [("x", "y"), ("x", "z"),
                                                   ("y", "z")]}),
}


class TestClosureRoutes:
    @pytest.mark.parametrize("kind", ["degrevlex", "lex"])
    @pytest.mark.parametrize("name", sorted(TABLES))
    def test_routes_agree(self, name, kind):
        algebra = TABLES[name]()
        order = MonomialOrder(kind, algebra.variables)
        rng = random.Random(f"{name}-{kind}")
        for _ in range(20):
            gens = [random_cpoly(rng, algebra.variables, max_degree=3, max_terms=2,
                                 min_degree=2)
                    for _ in range(rng.randint(1, 2))]
            ideal = CommIdeal(algebra, gens, order)
            closure = poisson_closure(ideal, algebra)
            assert closure.reduced_gb == closure_by_rounds(ideal, algebra).reduced_gb
            assert is_poisson_ideal(closure, algebra)


class TestBracketLoops:
    """`poisson_bracket` brackets on exponent tuples and `ideals._ad` on
    packed ints, both from the algebra's derivation table."""

    @pytest.mark.parametrize("kind", ["degrevlex", "lex"])
    @pytest.mark.parametrize("name", sorted(TABLES))
    def test_packed_ad_matches_poisson_bracket(self, name, kind):
        algebra = TABLES[name]()
        variables = algebra.variables
        ring = MonomialOrder(kind, variables).key_for(variables)
        rows, d_table = ideals._derivations(algebra, ring)
        rng = random.Random(f"ad-{name}-{kind}")
        for _ in range(30):
            p = random_cpoly(rng, variables, max_degree=4, max_terms=4)
            d = ideals._denominator([p.terms])
            packed = ideals._pack(ring, p.terms, d)
            for k, row in enumerate(rows):
                expected = poisson_bracket(algebra, p, algebra.var(variables[k]))
                got = ideals._unpack(ring, ideals._ad(packed, row, ring), d * d_table)
                assert got == expected.terms


class TestWitness:
    def test_golden_witness(self):
        closure = poisson_closure(
            CommIdeal(VARS, [mono((2, 0, 0)),
                             4 * mono((1, 1, 0)) + mono((0, 0, 2))]), b1())
        cert = nilpotent_nonprime_witness(closure, v("e"), 4)
        assert cert.verdict == "NotPrime"
        assert (cert.witness, cert.power) == (v("e"), 2)

    def test_member_is_inconclusive(self):
        cert = nilpotent_nonprime_witness(CommIdeal(VARS, [v("e")]), v("e"), 4)
        assert cert.verdict == "Inconclusive"
        assert cert.witness is None

    def test_no_power_lands_inside(self):
        ideal = CommIdeal(VARS, [4 * mono((1, 1, 0)) + mono((0, 0, 2))])
        cert = nilpotent_nonprime_witness(ideal, v("e"), 6)
        assert cert.verdict == "Inconclusive"

    def test_certificates_reverify(self):
        from sclim.ideals import PrimalityCertificate
        ideal = CommIdeal(VARS, [v("e")])
        with pytest.raises(ValueError):
            PrimalityCertificate("NotPrime", ideal, v("e"), 2)  # e is a member
        with pytest.raises(ValueError):
            PrimalityCertificate("NotPrime", ideal, v("f"), 2)  # f^2 is not


class TestIdealEqual:
    def test_order_of_generators_is_irrelevant(self):
        assert ideal_equal(CommIdeal(VARS, [v("e"), v("f")]),
                           CommIdeal(VARS, [v("f"), v("e")]))

    def test_different_ideals(self):
        assert not ideal_equal(CommIdeal(VARS, [v("e")]),
                               CommIdeal(VARS, [v("e") ** 2]))

    def test_scaling_is_irrelevant(self):
        assert ideal_equal(CommIdeal(VARS, [2 * v("e")]),
                           CommIdeal(VARS, [v("e")]))


# -- independent linear-algebra oracle ------------------------------------------


class TestClosureOracle:
    def test_degree_two_slice_matches_buchberger_route(self):
        algebra = b1()
        contains = degree_slice_basis(
            [mono((2, 0, 0)), 4 * mono((1, 1, 0)) + mono((0, 0, 2))],
            algebra, cap=2)
        for m in DEG2_MONOMIALS:
            assert contains(m)
        assert not contains(v("e"))
        assert not contains(CPoly.const(1, VARS))


# -- metamorphic checks past the oracle's reach ------------------------------------


def chevalley(g):
    """The Chevalley involution e <-> f, h -> -h, a Poisson automorphism of
    B1: {f, e} = -h is the image of {e, f} = h."""
    return CPoly(VARS, {(b, a, c): x * (-1) ** c for (a, b, c), x in g.terms.items()})


def standard_counts(ideal, top):
    """The ideal's standard monomials in each degree d = 0..top, from its
    leads: least[a][b] is the least c with e^a f^b h^c a multiple of a lead."""
    key = ideal.order.key_for(ideal.variables)
    least = [[top + 1] * (top + 1) for _ in range(top + 1)]
    for g in ideal.reduced_gb:
        a, b, c = max(g.terms, key=key)
        if a + b <= top:
            least[a][b] = min(least[a][b], c)
    for a in range(top + 1):
        for b in range(top + 1 - a):
            least[a][b] = min(least[a][b], least[a - 1][b] if a else top + 1,
                              least[a][b - 1] if b else top + 1)
    return [sum(d - a - b < least[a][b] for a in range(d + 1) for b in range(d + 1 - a))
            for d in range(top + 1)]


CLOSURE_ORDERS = [MonomialOrder("degrevlex", VARS),
                  MonomialOrder("degrevlex", ("h", "e", "f")),
                  MonomialOrder("lex", VARS)]


class TestPaperClosureMetamorphic:
    """The closure C of (e^n, 4ef + h^2), at sizes where no second engine
    checks it: θ(C) = C, one ideal in three orders, and 2d + 1 standard
    monomials in each degree d < n and none from n on (End(V_n) as an
    sl2-module is V_1 + V_3 + ... + V_(2n-1))."""

    @pytest.fixture(scope="class", params=[20, 50, 100])
    def closures(self, request):
        n = request.param
        gens = [mono((n, 0, 0)), 4 * mono((1, 1, 0)) + mono((0, 0, 2))]
        return n, [poisson_closure(CommIdeal(VARS, gens, order), b1())
                   for order in CLOSURE_ORDERS]

    def test_chevalley_involution_preserves_the_closure(self, closures):
        # θ(C) ⊆ C, and θ is an involution, so θ(C) = C.
        _, in_orders = closures
        for closure in in_orders:
            assert all(closure.contains(chevalley(g)) for g in closure.reduced_gb)

    def test_one_ideal_in_every_order(self, closures):
        _, in_orders = closures
        for a, b in itertools.permutations(in_orders, 2):
            assert all(b.contains(g) for g in a.reduced_gb)

    def test_standard_monomials_by_degree(self, closures):
        # Every monomial of degree above n is a multiple of one of degree n.
        n, in_orders = closures
        for closure in in_orders:
            assert standard_counts(closure, n) == [2 * d + 1 for d in range(n)] + [0]
