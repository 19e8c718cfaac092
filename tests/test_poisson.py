"""Tests for the Poisson bracket layer and the semiclassical limit."""

import random

import pytest

from helpers import (corrupted_b, gl_presentation, limit_by_commutators, random_cpoly,
                     two_copies_of_b)
from sclim.arith import Scalar
from sclim.errors import NotCommutativeAtOne
from sclim.pbw import B, B_q, PBWPresentation, SwapRule, Usl2
from sclim.poisson import (CPoly, PoissonAlgebra, jacobi_residuals,
                           poisson_bracket, semiclassical_limit)

VARS = ("e", "f", "h")


def b1() -> PoissonAlgebra:
    return semiclassical_limit(B())


def v(name: str) -> CPoly:
    return CPoly.variable(name, VARS)


class TestBracket:
    def test_generator_pair(self):
        assert poisson_bracket(b1(), v("e"), v("f")) == v("h")

    def test_leibniz_example(self):
        # {e^2, f} = 2e{e, f} = 2eh, expanded by hand
        assert poisson_bracket(b1(), v("e") ** 2, v("f")) == 2 * (v("e") * v("h"))

    def test_antisymmetry_random(self):
        rng = random.Random(301)
        algebra = b1()
        for _ in range(100):
            a = random_cpoly(rng)
            assert poisson_bracket(algebra, a, a).is_zero()

    def test_quadratic_invariant_brackets_to_zero(self):
        # {4ef + h^2, x} expands by hand to 0 for x = e, f, h.
        algebra = b1()
        omega = 4 * (v("e") * v("f")) + v("h") ** 2
        for name in VARS:
            assert poisson_bracket(algebra, omega, v(name)).is_zero()

    def test_leibniz_random(self):
        rng = random.Random(302)
        algebra = b1()
        for _ in range(200):
            a, b, c = (random_cpoly(rng) for _ in range(3))
            lhs = poisson_bracket(algebra, a * b, c)
            rhs = a * poisson_bracket(algebra, b, c) + poisson_bracket(algebra, a, c) * b
            assert lhs == rhs

    def test_bilinearity_random(self):
        rng = random.Random(303)
        algebra = b1()
        for _ in range(100):
            a, b, c = (random_cpoly(rng) for _ in range(3))
            assert poisson_bracket(algebra, a, b + c) == \
                poisson_bracket(algebra, a, b) + poisson_bracket(algebra, a, c)

    def test_jacobi_on_random_polynomials(self):
        rng = random.Random(304)
        algebra = b1()
        for _ in range(100):
            a, b, c = (random_cpoly(rng, max_degree=2) for _ in range(3))
            total = (poisson_bracket(algebra, a, poisson_bracket(algebra, b, c))
                     + poisson_bracket(algebra, b, poisson_bracket(algebra, c, a))
                     + poisson_bracket(algebra, c, poisson_bracket(algebra, a, b)))
            assert total.is_zero()


class TestJacobiResiduals:
    def test_limit_table_is_admissible(self):
        residuals = jacobi_residuals(b1())
        assert all(r.is_zero() for r in residuals)
        assert b1().is_jacobi

    def test_corrupted_table_fails(self):
        # {h,e} = 2f instead of 2e: expanding the triple residual by hand
        # leaves a nonzero polynomial.
        table = {("e", "f"): v("h"), ("e", "h"): -2 * v("f"),
                 ("f", "h"): 2 * v("f")}
        algebra = PoissonAlgebra(VARS, table)
        assert not algebra.is_jacobi

    def test_zero_table(self):
        algebra = PoissonAlgebra(VARS, {})
        assert algebra.is_jacobi
        assert all(r.is_zero() for r in jacobi_residuals(algebra))


class TestSemiclassicalLimit:
    def test_limit_of_b(self):
        algebra = b1()
        assert algebra.bracket_of("e", "f") == v("h")
        assert algebra.bracket_of("h", "e") == 2 * v("e")
        assert algebra.bracket_of("h", "f") == -2 * v("f")
        assert algebra.is_jacobi

    def test_commutative_presentation_gives_zero_bracket(self):
        one = Scalar.of(1, "t")
        rules = {(j, i): SwapRule(one, {}) for j in range(3) for i in range(j)}
        p = PBWPresentation("comm3", ("x", "y", "z"), rules, parameter="t")
        algebra = semiclassical_limit(p)
        for a in "xyz":
            for b in "xyz":
                assert algebra.bracket_of(a, b).is_zero()

    def test_constant_relations_fail_at_one(self):
        # The enveloping-algebra relations do not vanish at t = 1, so the
        # fiber there is not commutative.
        rules = dict(Usl2().swap_rules)
        p = PBWPresentation("Usl2_t", ("E", "F", "H"), rules, parameter="t")
        with pytest.raises(NotCommutativeAtOne):
            semiclassical_limit(p)

    def test_requires_symbolic_parameter(self):
        with pytest.raises(ValueError):
            semiclassical_limit(Usl2())

    def test_serialization_key_order(self):
        data = b1().to_json()
        assert list(data["brackets"]) == ["e,f", "e,h", "f,h"]
        assert data["brackets"] == {"e,f": "h", "e,h": "-2*e", "f,h": "2*f"}


def _on_xyz(name, rules):
    """A presentation on x < y < z over t: `rules` maps a pair to (coeff,
    tail), and the other pairs commute."""
    one = Scalar.of(1, "t")
    full = {(j, i): SwapRule(one, {}) for j in range(3) for i in range(j)}
    full.update({pair: SwapRule(c, tail) for pair, (c, tail) in rules.items()})
    return PBWPresentation(name, ("x", "y", "z"), full, parameter="t")


def _homogenized_gl(n):
    """U(gl_n) with every commutator scaled by t - 1: n^2 generators, so the
    rules' dict order is not the (i, j) order of the limit's table."""
    u, shift = gl_presentation(n), Scalar.variable("t") - 1
    rules = {pair: SwapRule(rule.coeff, {e: c * shift for e, c in rule.tail.items()})
             for pair, rule in u.swap_rules.items()}
    return PBWPresentation(f"B(gl_{n})", u.generators, rules, parameter="t")


T = Scalar.variable("t")
LIMIT_CASES = {
    "B": B, "B_q": B_q, "B2": two_copies_of_b, "B(gl_3)": lambda: _homogenized_gl(3),
    "corrupted": corrupted_b,
    "Usl2_t": lambda: PBWPresentation("Usl2_t", ("E", "F", "H"),
                                      dict(Usl2().swap_rules), parameter="t"),
    # Both the coefficient 1 - 2t of x*y and the tail -(t + 3)*z fail at 1.
    "two_fail": lambda: _on_xyz("two_fail", {(1, 0): (T * 2, {(0, 0, 1): T + 3})}),
    "tail_fails": lambda: _on_xyz("tail_fails", {(2, 1): (T, {(1, 0, 0): T * T})}),
    "pole": lambda: _on_xyz("pole", {(1, 0): (T / T, {(0, 0, 1): 1 / (T - 1)})}),
    # y x = t x y, z x = x z / t, z y = t^2 y z: rational coefficients, and
    # the x*y coefficient 1 - 1/t sums a polynomial and a fraction.
    "quantum": lambda: _on_xyz("quantum", {(1, 0): (T, {}), (2, 0): (1 / T, {}),
                                           (2, 1): (T * T, {})}),
    "rational_fails": lambda: _on_xyz("rational_fails", {(1, 0): (1 / (T + 1), {})}),
}


class TestLimitReadOffRules:
    """`semiclassical_limit` reads each commutator off its swap rule; the
    same table, term order and first error come from multiplying out."""

    @pytest.mark.parametrize("name", sorted(LIMIT_CASES))
    def test_same_table_or_error_as_commutators(self, name):
        p = LIMIT_CASES[name]()
        outcomes = []
        for route in (semiclassical_limit, limit_by_commutators):
            try:
                algebra = route(p)
            except (NotCommutativeAtOne, ValueError) as exc:
                outcomes.append((type(exc), str(exc)))
            else:
                outcomes.append([(key, list(entry.terms.items()))
                                 for key, entry in algebra._table.items()])
        assert outcomes[0] == outcomes[1]

    def test_cases_cover_both_outcomes(self):
        failures = {}
        for name, make in LIMIT_CASES.items():
            try:
                semiclassical_limit(make())
            except (NotCommutativeAtOne, ValueError) as exc:
                failures[name] = str(exc)
        assert failures == {
            "corrupted": "B_corrupted: overlap check failed",
            "Usl2_t": "[E,F] does not vanish at 1: coefficient 1 of (0, 0, 1)",
            "two_fail": "[x,y] does not vanish at 1: coefficient -2*t+1 of (1, 1, 0)",
            "tail_fails": "[y,z] does not vanish at 1: coefficient -t^2 of (1, 0, 0)",
            "pole": "[x,y] has a pole at 1",
            "rational_fails": "[x,y] does not vanish at 1: coefficient t/(t+1) of (1, 1, 0)",
        }
