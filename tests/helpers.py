"""Shared fixtures: seeded random generators and independent oracles."""

import heapq
import itertools
from fractions import Fraction

from sclim import pbw
from sclim.arith import Scalar, UniPoly
from sclim.errors import NotCommutativeAtOne, PoleAtPoint
from sclim.ideals import CommIdeal
from sclim.pbw import B, NCPoly, PBWPresentation, SwapRule, commutator
from sclim.poisson import CPoly, PoissonAlgebra, poisson_bracket


def random_fraction(rng, lo=-6, hi=6):
    return Fraction(rng.randint(lo, hi), rng.randint(1, 4))


def random_unipoly(rng, max_degree=2, var="t"):
    return UniPoly([random_fraction(rng) for _ in range(rng.randint(0, max_degree) + 1)],
                   var)


def random_scalar(rng, max_degree=2, var="t"):
    """Random polynomial scalar (denominator 1)."""
    return Scalar(random_unipoly(rng, max_degree, var))


def nonzero(rng, make):
    while True:
        value = make(rng)
        if not value.is_zero():
            return value


def random_exponents(rng, n_vars, max_degree, min_degree=0):
    exps = [0] * n_vars
    for _ in range(rng.randint(min_degree, max_degree)):
        exps[rng.randrange(n_vars)] += 1
    return tuple(exps)


def random_ncpoly(rng, presentation, max_degree=3, max_terms=3, coeff_degree=1):
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        exps = random_exponents(rng, len(presentation.generators), max_degree)
        coeff = random_scalar(rng, coeff_degree, presentation.coeff_var)
        cur = terms.get(exps)
        terms[exps] = coeff if cur is None else cur + coeff
    return NCPoly(presentation, terms)


def random_cpoly(rng, variables=("e", "f", "h"), max_degree=2, max_terms=3,
                 min_degree=0):
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        exps = random_exponents(rng, len(variables), max_degree, min_degree)
        terms[exps] = terms.get(exps, Fraction(0)) + random_fraction(rng)
    return CPoly(variables, terms)


def corrupted_b() -> PBWPresentation:
    """B with the h*e rule damaged: the tail lands on f instead of e."""
    shift = Scalar(UniPoly([-1, 1], "t"))
    rules = dict(B().swap_rules)
    rules[(2, 0)] = SwapRule(Scalar.of(1, "t"), {(0, 1, 0): shift * 2})
    return PBWPresentation("B_corrupted", ("e", "f", "h"), rules, parameter="t")


def two_copies_of_b() -> PBWPresentation:
    """B on e < f < h next to a copy on E < F < H that commutes with it."""
    one = Scalar.of(1, "t")
    pad = (0, 0, 0)
    rules = {(j, i): SwapRule(one, {}) for j in range(3, 6) for i in range(3)}
    for (j, i), rule in B().swap_rules.items():
        rules[(j, i)] = SwapRule(rule.coeff, {e + pad: c for e, c in rule.tail.items()})
        rules[(j + 3, i + 3)] = SwapRule(rule.coeff,
                                         {pad + e: c for e, c in rule.tail.items()})
    return PBWPresentation("B2", ("e", "f", "h", "E", "F", "H"), rules, parameter="t")


def limit_by_commutators(p: PBWPresentation) -> PoissonAlgebra:
    """The bracket table of `semiclassical_limit`, with each generator
    commutator multiplied out through the product table rather than read
    off its swap rule: an oracle for the table, the first
    `NotCommutativeAtOne` and its message."""
    if not p.has_symbolic_parameter():
        raise ValueError(f"{p.name} has no symbolic parameter")
    if not p.is_confluent:
        raise ValueError(f"{p.name}: overlap check failed")
    shift = Scalar.variable(p.coeff_var) - 1
    table = {}
    n = len(p.generators)
    for i in range(n):
        for j in range(i + 1, n):
            entry = {}
            for exps, c in commutator(p.generator(i), p.generator(j)).terms.items():
                try:
                    at_one = c.evaluate(1)
                except PoleAtPoint as exc:
                    raise NotCommutativeAtOne(
                        f"[{p.generators[i]},{p.generators[j]}] has a pole at 1") from exc
                if at_one != 0:
                    raise NotCommutativeAtOne(
                        f"[{p.generators[i]},{p.generators[j]}] does not vanish at 1: "
                        f"coefficient {c} of {exps}")
                entry[exps] = (c / shift).evaluate(1)
            table[(p.generators[i], p.generators[j])] = CPoly(p.generators, entry)
    return PoissonAlgebra(p.generators, table)


def word_normal_form(p: PBWPresentation, word: tuple[int, ...]) -> dict:
    """Normal form of one word by whole-word rewriting, exponents -> Scalar.

    The oracle for the product table: it swaps the leftmost out-of-order
    pair of a word and shares no code with `pbw._times`.  Every rewrite
    yields words that are shorter, or as long and lexicographically
    smaller, so taking the largest pending word first finishes each word
    before it is reached again: equal words merge instead of being
    rewritten twice.
    """
    def rank(w):
        return (-len(w), tuple(-g for g in w), w)

    pending = {word: p._one}
    queue = [rank(word)]
    out = {}
    while queue:
        w = heapq.heappop(queue)[2]
        c = pending.pop(w, None)
        if c is None:
            continue
        pos = next((k for k in range(len(w) - 1) if w[k] > w[k + 1]), None)
        if pos is None:
            exps = [0] * len(p.generators)
            for g in w:
                exps[g] += 1
            pbw._accumulate(out, tuple(exps), c)
            continue
        j, i = w[pos], w[pos + 1]
        rule = p.swap_rules[(j, i)]
        images = [(w[:pos] + (i, j) + w[pos + 2:], c * rule.coeff)]
        images += [(w[:pos] + pbw._exponents_to_word(t) + w[pos + 2:], c * tc)
                   for t, tc in rule.tail.items()]
        for image, ic in images:
            if image not in pending:
                heapq.heappush(queue, rank(image))
            pbw._accumulate(pending, image, ic)
    return out


def gl_presentation(n: int) -> PBWPresentation:
    """U(gl_n) on the matrix units E_ab, ordered row by row:
    [E_ab, E_cd] = [b == c]·E_ad - [d == a]·E_cb."""
    names = [f"E{a}{b}" for a in range(1, n + 1) for b in range(1, n + 1)]
    index = {(a, b): a * n + b for a in range(n) for b in range(n)}
    one = Scalar.of(1, "t")
    rules = {}
    for (a, b), j in index.items():
        for (c, d), i in index.items():
            if i >= j:
                continue
            tail = {}
            for sign, key, hit in ((1, (a, d), b == c), (-1, (c, b), d == a)):
                if hit:
                    exps = [0] * n * n
                    exps[index[key]] = 1
                    tail[tuple(exps)] = tail.get(tuple(exps), 0) + sign
            rules[(j, i)] = SwapRule(one, {e: Scalar.of(c, "t") for e, c in tail.items()})
    return PBWPresentation(f"U(gl_{n})", names, rules)


def closure_by_rounds(ideal: CommIdeal, algebra) -> CommIdeal:
    """Poisson closure by rounds of new bases, over the public API.

    Each round brackets the remainders the round before added (at first, the
    ideal's generators) with every variable, and takes the ideal generated
    by the current reduced basis and the nonzero remainders of those
    brackets.  Earlier generators need no new bracket: theirs lie in the
    current ideal already.  So the round that adds nothing leaves an ideal
    whose generators all bracket into it, which by Leibniz is Poisson.
    """
    xs = [algebra.var(name) for name in algebra.variables]
    current, fresh = ideal, ideal.generators
    while True:
        fresh = [r for p in fresh for x in xs
                 if not (r := current.reduce(poisson_bracket(algebra, p, x))).is_zero()]
        if not fresh:
            return current
        current = CommIdeal(current.variables, current.reduced_gb + tuple(fresh),
                            current.order)


def degree_slice_basis(generators, algebra, cap, variables=("e", "f", "h")):
    """Membership test for the degree-<=cap slice of the Poisson closure.

    Saturates the span of the generators under multiplication by variables
    (when the product stays under the cap) and brackets with variables, using
    exact Gaussian elimination; independent of the Buchberger machinery.
    """
    monomials = sorted(
        exps for exps in itertools.product(range(cap + 1), repeat=len(variables))
        if sum(exps) <= cap)
    index = {m: i for i, m in enumerate(monomials)}

    def vectorize(p):
        vec = [Fraction(0)] * len(monomials)
        for exps, c in p.terms.items():
            vec[index[exps]] = c
        return vec

    pivots: dict[int, list[Fraction]] = {}

    def reduce_vec(vec):
        vec = vec[:]
        for pivot, row in sorted(pivots.items()):
            if vec[pivot] != 0:
                factor = vec[pivot]
                vec = [a - factor * b for a, b in zip(vec, row)]
        return vec

    def insert(p):
        vec = reduce_vec(vectorize(p))
        lead = next((k for k, a in enumerate(vec) if a != 0), None)
        if lead is None:
            return False
        pivots[lead] = [a / vec[lead] for a in vec]
        return True

    gens = [algebra.var(name) for name in variables]
    frontier = [g for g in generators if insert(g)]
    while frontier:
        new_frontier = []
        for p in frontier:
            for x in gens:
                for candidate in (p * x, poisson_bracket(algebra, p, x)):
                    if candidate.is_zero() or candidate.degree() > cap:
                        continue
                    if insert(candidate):
                        new_frontier.append(candidate)
        frontier = new_frontier

    def contains(p):
        return all(a == 0 for a in reduce_vec(vectorize(p)))

    return contains
