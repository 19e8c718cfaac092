"""The natural maps between the parametric algebra, its fibers, and the limit.

Four maps are implemented, all exact:

* `gamma_eval` evaluates an element of the parametric algebra at finitely many
  sample nodes, giving one element of each fiber (a `FamilyElement`).
* `gamma_inverse` reconstructs the unique preimage whose coefficients are
  Laurent polynomials inside a caller-supplied band, by per-monomial
  interpolation; surplus nodes re-verify the fit and turn a wrong band or a
  tampered family into an explicit `InconsistentFamily` error.
* `gamma_hat` evaluates every coefficient at 1 and reads the ordered
  monomials as commutative ones, landing in the limit ring.  Its domain is
  the set of elements whose coefficients are regular at 1.
* `gamma_hat_via_family` is the composite sample-evaluate / reconstruct /
  specialize route to the same value, used by the verification pipeline to
  exercise the construction end to end.

`verify_counterexample` runs the full certificate chain for a given n: the
central element, the properness of the pair of ideal generators (through the
certified rescaling onto U(sl2), whose n-dimensional module over Q they must
kill), the images in the limit, the Poisson closure, and the nilpotent
non-primeness witness.
"""

from __future__ import annotations

import time
from functools import lru_cache
from typing import Optional, Sequence

from .arith import Rational, Scalar, _agrees, _as_rational, interpolate_band
from .errors import (InconsistentFamily, InsufficientSamples, PoleAtOne,
                     PoleAtPoint, PoleAtSample)
from .ideals import (CommIdeal, is_poisson_ideal, membership,
                     nilpotent_nonprime_witness, poisson_closure)
from .pbw import (AlgebraMorphism, B, B_q, NCPoly, PBWPresentation, Usl2,
                  annihilates, casimir, commutator, is_central,
                  sl2_representation, specialize_presentation)
from .poisson import B1, CPoly


class SampleSet:
    """Strictly increasing sample nodes, all valid parameter values.

    Nodes may be arbitrary rationals outside {0, 1, -1}; the default
    constructor takes consecutive integers from 2 up, which are never roots
    of unity.
    """

    def __init__(self, nodes: Sequence[int | Rational]):
        vals = [_as_rational(x) for x in nodes]
        if not vals:
            raise ValueError("need at least one node")
        if any(vals[k] >= vals[k + 1] for k in range(len(vals) - 1)):
            raise ValueError("nodes must be strictly increasing")
        if any(v in (0, 1, -1) for v in vals):
            raise ValueError("nodes 0, 1, -1 are not valid parameter values")
        self.nodes = tuple(vals)

    @classmethod
    def integers(cls, count: int) -> "SampleSet":
        return cls(range(2, 2 + count))

    def __len__(self) -> int:
        return len(self.nodes)

    def __iter__(self):
        return iter(self.nodes)

    def __repr__(self) -> str:
        return f"SampleSet({', '.join(str(x) for x in self.nodes)})"


# Plain slotted records: see `ideals.MonomialOrder`.
class FamilyElement:
    """One fiber element per sample node."""

    __slots__ = ("nodes", "fibers")

    def __init__(self, nodes: tuple[Rational, ...], fibers: tuple[NCPoly, ...]):
        if len(nodes) != len(fibers):
            raise ValueError("one fiber element per node")
        self.nodes = nodes
        self.fibers = fibers

    def fiber(self, node: int | Rational) -> NCPoly:
        return self.fibers[self.nodes.index(_as_rational(node))]

    def support(self) -> set[tuple[int, ...]]:
        out: set[tuple[int, ...]] = set()
        for fib in self.fibers:
            out.update(fib.terms)
        return out


def gamma_eval(b: NCPoly, samples: SampleSet) -> FamilyElement:
    """Coefficientwise evaluation at every node, one fiber element each
    (`specialize_presentation` rejects a presentation with no parameter)."""
    p = b.presentation
    fibers = []
    for node in samples:
        fiber_presentation = specialize_presentation(p, node)
        terms = {}
        for exps, c in b.terms.items():
            try:
                terms[exps] = c.at(node)
            except PoleAtPoint as exc:
                raise PoleAtSample(f"coefficient {c} has a pole at node {node}") from exc
        fibers.append(NCPoly(fiber_presentation, terms))
    return FamilyElement(samples.nodes, tuple(fibers))


def gamma_inverse(family: FamilyElement, band: tuple[int, int],
                  parent: Optional[PBWPresentation] = None) -> NCPoly:
    """Reconstruct the unique preimage with coefficients in the Laurent band.

    `band` = (m_min, m_max) bounds the exponent range of each coefficient.
    Interpolation uses the first m_max - m_min + 1 nodes; every node is then
    re-checked, so families outside the image at this band raise
    `InconsistentFamily`.  The preimage lies in `parent`, by default the
    `family` of the first fiber's presentation, or `B` for a fiber that
    `specialize_presentation` did not build.
    """
    m_min, m_max = band
    if m_max < m_min:
        raise ValueError("empty coefficient band")
    width = m_max - m_min + 1
    if len(family.nodes) < width:
        raise InsufficientSamples(
            f"band of width {width} needs at least {width} nodes, "
            f"got {len(family.nodes)}")
    parent = parent or family.fibers[0].presentation.family or B()
    var = parent.coeff_var
    terms = {}
    for exps in sorted(family.support()):
        samples = [(node, fib.coefficient(exps).constant_value())
                   for node, fib in zip(family.nodes, family.fibers)]
        coeff = interpolate_band(samples[:width], m_min, var)
        for node, value in samples:
            if not _agrees(coeff, node, value):
                raise InconsistentFamily(
                    f"monomial {exps}: samples do not lie in the band "
                    f"[{m_min}, {m_max}]")
        if not coeff.is_zero():
            terms[exps] = coeff
    return NCPoly(parent, terms)


def gamma_hat(b: NCPoly) -> CPoly:
    """The natural map into the limit: evaluate every coefficient at 1.

    Ordered monomials are read as commutative ones.  Defined exactly on
    elements whose coefficients are regular at 1; a pole raises `PoleAtOne`.
    """
    p = b.presentation
    if not p.has_symbolic_parameter():
        raise ValueError(f"{p.name} has no symbolic parameter")
    terms = {}
    for exps, c in b.terms.items():
        try:
            terms[exps] = c.evaluate(1)
        except PoleAtPoint as exc:
            raise PoleAtOne(f"coefficient {c} of {exps} has a pole at 1") from exc
    return CPoly(p.generators, terms)


def gamma_hat_via_family(z: NCPoly, samples: SampleSet) -> CPoly:
    """The same value as `gamma_hat`, via the sample/reconstruct/project route.

    The coefficients must be polynomial in the parameter; the band is
    [0, max degree].
    """
    if not all(c.is_polynomial() for c in z.terms.values()):
        raise ValueError("coefficients must be polynomial in the parameter")
    top = max((c.num.degree for c in z.terms.values()), default=0)
    reconstructed = gamma_inverse(gamma_eval(z, samples), (0, top), parent=z.presentation)
    return gamma_hat(reconstructed)


# -- the end-to-end certificate -------------------------------------------------


@lru_cache(maxsize=None)
def _rescaling() -> Scalar:
    """q - 1, once x_k -> (t-1) X_k from B_q into U(sl2) over Q(t), sending q
    to t, and X_k -> x_k / (q-1) back are certified as algebra morphisms, the
    first undoing the second on generators; else `ValueError`."""
    bq, u = B_q(), Usl2()
    t = Scalar.variable(u.coeff_var)
    s = bq.parameter_scalar() - 1
    xs, ys = [bq.generator(k) for k in range(3)], [u.generator(k) for k in range(3)]
    down = AlgebraMorphism(bq, u, dict(zip(bq.generators, [y.scale(t - 1) for y in ys])), t)
    up = AlgebraMorphism(u, bq, dict(zip(u.generators, [x.scale(1 / s) for x in xs])))
    if not (down.holds and up.holds and all(down(up(y)) == y for y in ys)):
        raise ValueError("the rescaling onto U(sl2) is not an isomorphism")
    return s


def _over_q(z: NCPoly, s: Scalar) -> NCPoly:
    """w over Q in U(sl2) with the rescaling sending z to s^deg(z) w, s = q - 1
    read as t - 1: as a monomial m goes to s^|m| X^m, w's coefficient at m is
    c_m / s^(deg(z) - |m|), a rational or no such w exists."""
    u, d = Usl2(), z.degree()
    terms = {m: c / s ** (d - sum(m)) for m, c in z.terms.items()}
    if not all(c.is_constant() for c in terms.values()):
        raise ValueError(f"{z} is not a power of {s} times an element over Q")
    return NCPoly(u, {m: Scalar.of(c.constant_value(), u.coeff_var) for m, c in terms.items()})


def _ideal_generators(n: int, omega: NCPoly) -> tuple[NCPoly, NCPoly]:
    """The generators e^n, an ordered monomial, and omega - (q-1)^2 (n^2-1)
    of P in B_q, omega its central element."""
    bq = omega.presentation
    qm1 = bq.parameter_scalar() - 1
    return bq.monomial((n, 0, 0)), omega - bq.scalar(qm1 ** 2 * (n * n - 1))


def _ms_since(started: float) -> float:
    return (time.perf_counter() - started) * 1000


class CheckResult:
    __slots__ = ("name", "passed", "details", "ms")

    def __init__(self, name: str, passed: bool, details: str, ms: float):
        self.name = name
        self.passed = passed
        self.details = details
        # Wall time of this check alone; not part of the certificate.
        self.ms = ms


class CounterexampleReport:
    __slots__ = ("checks", "witness")

    def __init__(self, checks: tuple[CheckResult, ...],
                 witness: Optional[tuple[str, int]]):
        self.checks = checks
        self.witness = witness

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)


def verify_counterexample(n: int, samples: SampleSet) -> CounterexampleReport:
    """Run every certificate for the prime ideal with nilpotent limit image.

    Checks, in order: (a) the quadratic element is central; (b) rescaled into
    U(sl2), the two ideal generators annihilate its n-dimensional module over
    Q, so the ideal is proper;
    (c) their images at 1 are e^n and 4ef + h^2, by both the direct and the
    sampled route; (d) the Poisson closure of those images is bracket-stable;
    (e) images of further ideal elements land in the closure; (f) the
    closure admits the nilpotent witness (e, n), hence is not prime.

    A failed sub-check is recorded in the report, never skipped.  Each
    check records its own wall time in `ms`; building e^n and the central
    element beforehand belongs to no check.
    """
    if n < 2:
        raise ValueError("the construction needs n >= 2")
    if len(samples) < 3:
        raise ValueError("need at least 3 sample nodes")

    bq = B_q()
    f, h = bq.generator(1), bq.generator(2)
    q = bq.parameter_scalar()
    omega = casimir(bq)
    gen_power, gen_central = _ideal_generators(n, omega)

    checks: list[CheckResult] = []

    # (a) centrality
    started = time.perf_counter()
    central = is_central(omega)
    checks.append(CheckResult(
        "central_element", central,
        "4ef + h^2 - 2(q-1)h commutes with e, f, h" if central else
        "quadratic element is not central", _ms_since(started)))

    # (b) properness via the n-dimensional module over Q: the certified rescaling
    # sends each generator of P to a unit times an element of U(sl2) over Q.
    started = time.perf_counter()
    try:
        rep = sl2_representation(n, Usl2())
        s = _rescaling()
        kills_power, kills_central = (annihilates(rep, _over_q(z, s))
                                      for z in (gen_power, gen_central))
        ok = kills_power and kills_central
        detail = (f"{n}-dimensional module satisfies the relations; "
                  f"annihilates e^{n}: {kills_power}, "
                  f"annihilates the shifted central element: {kills_central}")
    except ValueError as exc:
        ok, detail = False, str(exc)
    checks.append(CheckResult("ideal_proper", ok, detail, _ms_since(started)))

    # (c) images in the limit, direct and via sampling
    started = time.perf_counter()
    b1 = B1()
    expected_power = CPoly.monomial((n, 0, 0), 1, b1.variables)
    expected_central = (CPoly.monomial((1, 1, 0), 4, b1.variables)
                        + CPoly.monomial((0, 0, 2), 1, b1.variables))
    image_power = gamma_hat(gen_power)
    image_central = gamma_hat(gen_central)
    sampled_power = gamma_hat_via_family(gen_power, samples)
    sampled_central = gamma_hat_via_family(gen_central, samples)
    sampled_agree = sampled_power == image_power and sampled_central == image_central
    ok = image_power == expected_power and image_central == expected_central and sampled_agree
    checks.append(CheckResult(
        "generator_images", ok,
        f"images at 1: {image_power}; {image_central} (sampled route agrees: {sampled_agree})",
        _ms_since(started)))

    # (d) Poisson closure of the image ideal
    started = time.perf_counter()
    plain = CommIdeal(b1, [image_power, image_central])
    closure = poisson_closure(plain, b1)
    plain_stable = is_poisson_ideal(plain, b1)
    closure_stable = is_poisson_ideal(closure, b1)
    checks.append(CheckResult(
        "poisson_closure", closure_stable and not closure.is_trivial(),
        f"plain ideal bracket-stable: {plain_stable}; "
        f"closure bracket-stable: {closure_stable}; "
        f"closure basis: {closure.basis_strings()}", _ms_since(started)))

    # (e) sampled ideal elements land in the closure; e^n and the central
    # generator keep their images from (c)
    started = time.perf_counter()
    qm1_inverse = (q - 1).inverse()
    images = [("e^n", image_power, sampled_power),
              ("central generator", image_central, sampled_central)]
    for label, element in [
            ("(q-1)^-1 [e^n, f]", commutator(gen_power, f)),
            ("(q-1)^-1 [e^n, h]", commutator(gen_power, h)),
            ("(q-1)^-1 [central, f]", commutator(gen_central, f))]:
        element = element.scale(qm1_inverse)
        images.append((label, gamma_hat(element),
                       gamma_hat_via_family(element, samples)))
    element_reports = []
    all_in = True
    for label, image, sampled in images:
        inside, _ = membership(image, closure)
        agrees = sampled == image
        all_in = all_in and inside and agrees
        element_reports.append(f"{label} -> {image}: member={inside}")
    checks.append(CheckResult(
        "image_elements_in_closure", all_in, "; ".join(element_reports),
        _ms_since(started)))

    # (f) nilpotent witness
    started = time.perf_counter()
    e_limit = b1.var("e")
    certificate = nilpotent_nonprime_witness(closure, e_limit, n)
    ok = certificate.verdict == "NotPrime"
    witness = None
    if ok:
        witness = (str(certificate.witness), certificate.power)
        detail = (f"e^{certificate.power} lies in the closure, e does not: "
                  f"not prime")
    else:
        detail = "no nilpotent witness found"
    checks.append(CheckResult("nilpotent_witness", ok, detail, _ms_since(started)))

    return CounterexampleReport(checks=tuple(checks), witness=witness)
