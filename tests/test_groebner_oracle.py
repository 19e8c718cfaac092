"""The Groebner engine and the bracket against routes that share no code with them.

`sympy.groebner` is a test-only oracle: on seeded random ideals in both
orders its reduced basis must be the engine's.  sympy's `reduced` and an
S-polynomial built in sympy check division by non-monic divisors that are
not a Groebner basis, in both orders.  A sympy biderivation built from a
bracket table checks `poisson_bracket` over four tables, and a closure loop
written here on sympy polynomials over that biderivation must give
`poisson_closure`'s basis, in both orders, over the linear, constant and
quadratic tables.  Inputs whose exponents sit just below, at and just above
the engine's first field width check that a packed exponent never wraps
into the next field.
"""

import itertools
import random
from fractions import Fraction

import pytest
import sympy

from helpers import nonzero, random_cpoly
from sclim import ideals
from sclim.ideals import (CommIdeal, MonomialOrder, groebner, is_poisson_ideal,
                          poisson_closure, reduce_poly, s_polynomial)
from sclim.pbw import B
from sclim.poisson import CPoly, PoissonAlgebra, poisson_bracket, semiclassical_limit

VARS = ("e", "f", "h")
E, F, H = SYMBOLS = sympy.symbols(VARS)
SYMPY_ORDER = {"degrevlex": "grevlex", "lex": "lex"}


def to_sympy(p: CPoly):
    return sympy.Poly.from_dict(
        {exps: sympy.Rational(c.numerator, c.denominator)
         for exps, c in p.terms.items()}, *SYMBOLS, domain="QQ")


def from_sympy(expr) -> CPoly:
    poly = sympy.Poly(expr, *SYMBOLS, domain="QQ")
    return CPoly(VARS, {exps: Fraction(int(c.p), int(c.q))
                        for exps, c in poly.terms()})


def sympy_basis(gens, kind: str) -> set:
    gb = sympy.groebner([to_sympy(g).as_expr() for g in gens], *SYMBOLS,
                        order=SYMPY_ORDER[kind], domain="QQ")
    return {from_sympy(g) for g in gb.exprs}


# Bracket tables {(x, y): {x, y}} over e, f, h, one per kind of entry: linear
# (sl2* and Heisenberg), constant, and quadratic (log-canonical).
TABLES = {
    "B1": {(E, F): H, (E, H): -2 * E, (F, H): 2 * F},
    "heisenberg": {(E, F): H},
    "constant": {(E, F): sympy.Integer(1)},
    "log-canonical": {(E, F): E * F, (E, H): E * H, (F, H): F * H},
}


def table_bracket(table, a, b):
    """{a, b} = sum over the table's pairs (x, y) of
    (da/dx db/dy - da/dy db/dx) {x, y}."""
    return sympy.expand(sum((sympy.diff(a, x) * sympy.diff(b, y)
                             - sympy.diff(a, y) * sympy.diff(b, x)) * value
                            for (x, y), value in table.items()))


def table_algebra(table) -> PoissonAlgebra:
    return PoissonAlgebra(VARS, {(str(x), str(y)): from_sympy(value)
                                 for (x, y), value in table.items()})


def table_closure(table, gens, kind: str) -> set:
    """Adjoin brackets of the basis with e, f, h until all lie in the ideal."""
    gb = sympy.groebner([to_sympy(g).as_expr() for g in gens], *SYMBOLS,
                        order=SYMPY_ORDER[kind], domain="QQ")
    while True:
        new = [table_bracket(table, g, x) for g in gb.exprs for x in SYMBOLS]
        new = [p for p in new if not gb.contains(p)]
        if not new:
            return {from_sympy(g) for g in gb.exprs}
        gb = sympy.groebner(list(gb.exprs) + new, *SYMBOLS,
                            order=SYMPY_ORDER[kind], domain="QQ")


def mono(exps, coeff=1):
    return CPoly.monomial(exps, coeff, VARS)


class TestAgainstSympy:
    @pytest.mark.parametrize("kind", ["degrevlex", "lex"])
    def test_random_ideals(self, kind):
        rng = random.Random(501 if kind == "degrevlex" else 502)
        order = MonomialOrder(kind, VARS)
        for _ in range(60):
            gens = [random_cpoly(rng, VARS, max_degree=3, max_terms=3)
                    for _ in range(rng.randint(1, 3))]
            gens = [g for g in gens if not g.is_zero()]
            if not gens:
                continue
            ours = groebner(gens, order, VARS)
            assert len(ours) == len(set(ours))
            assert set(ours) == sympy_basis(gens, kind)

    @pytest.mark.parametrize("n", [2, 3, 4, 6])
    def test_closure_of_the_paper_images(self, n):
        # n = 2 is the closure golden case: all six quadratic monomials.
        gens = [mono((n, 0, 0)), 4 * mono((1, 1, 0)) + mono((0, 0, 2))]
        b1 = semiclassical_limit(B())
        for kind in ("degrevlex", "lex"):
            closure = poisson_closure(CommIdeal(b1, gens, MonomialOrder(kind, VARS)), b1)
            assert set(closure.reduced_gb) == table_closure(TABLES["B1"], gens, kind)

    def test_closure_of_random_ideals(self):
        # The linear and constant tables; the quadratic one has its own test.
        for name, kind in itertools.product(["B1", "heisenberg", "constant"],
                                            ["degrevlex", "lex"]):
            table = TABLES[name]
            algebra = table_algebra(table)
            rng = random.Random(f"closure-{name}-{kind}")
            for _ in range(15):
                gens = [random_cpoly(rng, VARS, max_degree=2, max_terms=2)
                        for _ in range(rng.randint(1, 2))]
                gens = [g for g in gens if not g.is_zero()]
                ideal = CommIdeal(algebra, gens, MonomialOrder(kind, VARS))
                closure = poisson_closure(ideal, algebra)
                assert set(closure.reduced_gb) == table_closure(table, gens, kind)


def non_monic(rng, key, max_degree):
    """A random nonzero polynomial whose leading coefficient is not 1."""
    g = nonzero(rng, lambda r: random_cpoly(r, VARS, max_degree=max_degree,
                                            max_terms=3))
    return g if g.terms[max(g.terms, key=key)] != 1 else g * Fraction(-3, 2)


def sympy_s_polynomial(f, g, kind: str):
    order = SYMPY_ORDER[kind]
    fx, gx = to_sympy(f).as_expr(), to_sympy(g).as_expr()
    lcm = sympy.lcm(sympy.LM(fx, *SYMBOLS, order=order),
                    sympy.LM(gx, *SYMBOLS, order=order))
    return sympy.expand(lcm / sympy.LT(fx, *SYMBOLS, order=order) * fx
                        - lcm / sympy.LT(gx, *SYMBOLS, order=order) * gx)


class TestDivisionAgainstSympy:
    """Divisors that are neither monic nor a Groebner basis.

    The remainder then depends on the divisors' order.  The engine and
    sympy's `reduced` both cancel the largest remaining term with the first
    divisor whose leading monomial divides it, so they must agree exactly.
    """

    @pytest.mark.parametrize("kind", ["degrevlex", "lex"])
    def test_reduce_poly(self, kind):
        rng = random.Random(f"division-{kind}")
        key = MonomialOrder(kind, VARS).key_for(VARS)
        for _ in range(40):
            p = random_cpoly(rng, VARS, max_degree=5, max_terms=6)
            divisors = [non_monic(rng, key, 3) for _ in range(rng.randint(1, 3))]
            _, remainder = sympy.reduced(
                to_sympy(p).as_expr(), [to_sympy(g).as_expr() for g in divisors],
                *SYMBOLS, order=SYMPY_ORDER[kind], domain="QQ")
            assert reduce_poly(p, divisors, key) == from_sympy(remainder)

    @pytest.mark.parametrize("kind", ["degrevlex", "lex"])
    def test_s_polynomial(self, kind):
        rng = random.Random(f"s-polynomial-{kind}")
        key = MonomialOrder(kind, VARS).key_for(VARS)
        for _ in range(40):
            f, g = non_monic(rng, key, 4), non_monic(rng, key, 4)
            assert s_polynomial(f, g, key) == from_sympy(sympy_s_polynomial(f, g, kind))


class TestBracketAgainstSympy:
    def test_b1_table_is_the_semiclassical_limit(self):
        assert table_algebra(TABLES["B1"]) == semiclassical_limit(B())

    @pytest.mark.parametrize("name", sorted(TABLES))
    def test_random_pairs(self, name):
        table = TABLES[name]
        algebra = table_algebra(table)
        rng = random.Random(f"bracket-{name}")
        for _ in range(40):
            a, b = (random_cpoly(rng, VARS, max_degree=4, max_terms=4)
                    for _ in range(2))
            expected = table_bracket(table, to_sympy(a).as_expr(),
                                     to_sympy(b).as_expr())
            assert poisson_bracket(algebra, a, b) == from_sympy(expected)

    @pytest.mark.parametrize("kind", ["degrevlex", "lex"])
    def test_closure_over_the_log_canonical_table(self, kind):
        # A quadratic table: brackets raise the degree.
        table = TABLES["log-canonical"]
        algebra = table_algebra(table)
        order = MonomialOrder(kind, VARS)
        rng = random.Random(f"log-canonical-{kind}")
        for _ in range(10):
            gens = [random_cpoly(rng, VARS, max_degree=3, max_terms=2, min_degree=1)
                    for _ in range(rng.randint(1, 2))]
            gens = [g for g in gens if not g.is_zero()]
            closure = poisson_closure(CommIdeal(algebra, gens, order), algebra)
            assert set(closure.reduced_gb) == table_closure(table, gens, kind)


# The engine packs a monomial into fields of `ideals._FIELD_BITS` bits whose
# top bits are guards, so monomials of degree below WIDTH fit before it
# widens the fields.
WIDTH = 1 << (ideals._FIELD_BITS - 1)


class TestFieldWidth:
    @pytest.mark.parametrize("kind", ["degrevlex", "lex"])
    @pytest.mark.parametrize("degree", [WIDTH - 1, WIDTH, WIDTH + 1])
    def test_groebner(self, kind, degree):
        # The pair's lcm e^degree * f has degree one more: at WIDTH - 1 the
        # inputs fit and the lcm does not.
        gens = [mono((degree, 0, 0)) - 2 * mono((0, 2, 0)) + mono((0, 0, 1)),
                Fraction(3, 2) * mono((1, 1, 0))]
        ours = groebner(gens, MonomialOrder(kind, VARS), VARS)
        assert set(ours) == sympy_basis(gens, kind)

    @pytest.mark.parametrize("power", [WIDTH // 2 - 1, WIDTH // 2, WIDTH // 2 + 1])
    def test_lex_reduction_raises_a_lower_exponent(self, power):
        # Modulo e - h^power, e^2 + f is h^(2 power) + f: in lex, reduction
        # raises h's exponent to just below, at or just above the width.
        order = MonomialOrder("lex", VARS)
        divisor = mono((1, 0, 0)) - mono((0, 0, power))
        p = mono((2, 0, 0)) + mono((0, 1, 0))
        _, remainder = sympy.reduced(to_sympy(p).as_expr(), [to_sympy(divisor).as_expr()],
                                     *SYMBOLS, order="lex", domain="QQ")
        assert reduce_poly(p, [divisor], order.key_for(VARS)) == from_sympy(remainder)
        assert CommIdeal(VARS, [divisor], order).reduce(p) == from_sympy(remainder)
        gens = [divisor, mono((2, 0, 0)) - mono((0, 1, 0))]
        assert set(groebner(gens, order, VARS)) == sympy_basis(gens, "lex")

    @pytest.mark.parametrize("kind", ["degrevlex", "lex"])
    def test_quadratic_bracket_raises_the_degree_past_the_width(self, kind):
        # {e^(WIDTH-1) + h, f} = (WIDTH-1) e^(WIDTH-1) f - fh has degree WIDTH.
        table = TABLES["log-canonical"]
        algebra = table_algebra(table)
        gens = [mono((WIDTH - 1, 0, 0)) + mono((0, 0, 1))]
        closure = poisson_closure(CommIdeal(algebra, gens, MonomialOrder(kind, VARS)),
                                  algebra)
        assert set(closure.reduced_gb) == table_closure(table, gens, kind)
        assert is_poisson_ideal(closure, algebra)
