"""Spans and counts around calls into sclim's public functions.

`Tracer.install` replaces each target function wherever sclim's own modules
look it up: module globals, names imported into other modules, and class
attributes.  The program's source is not touched.  Each call records one
span (name, start, end, parent) in flat arrays that stay in memory until
`dump` writes them; a few targets also add counts taken at the same call
boundary.  Everything runs on one thread, so a plain stack gives parents.
"""

from __future__ import annotations

import functools
import json
import sys
from array import array
from collections import Counter
from time import perf_counter

# (span name, module, attribute path).  The span name is the metric prefix.
TARGETS = (
    ("arith.gcd", "sclim.arith", "UniPoly.gcd"),
    ("arith.ScalarMatrix.mul", "sclim.arith", "ScalarMatrix.__mul__"),
    ("arith.interpolate_band", "sclim.arith", "interpolate_band"),
    ("pbw.multiply", "sclim.pbw", "multiply"),
    ("pbw.commutator", "sclim.pbw", "commutator"),
    ("pbw.is_central", "sclim.pbw", "is_central"),
    ("pbw.check_pbw_overlaps", "sclim.pbw", "check_pbw_overlaps"),
    ("pbw.sl2_representation", "sclim.pbw", "sl2_representation"),
    ("pbw.annihilates", "sclim.pbw", "annihilates"),
    ("poisson.poisson_bracket", "sclim.poisson", "poisson_bracket"),
    ("poisson.semiclassical_limit", "sclim.poisson", "semiclassical_limit"),
    ("ideals.groebner", "sclim.ideals", "groebner"),
    ("ideals.s_polynomial", "sclim.ideals", "s_polynomial"),
    ("ideals.reduce_poly", "sclim.ideals", "reduce_poly"),
    ("ideals.poisson_closure", "sclim.ideals", "poisson_closure"),
    ("ideals.membership", "sclim.ideals", "membership"),
    ("ideals.is_poisson_ideal", "sclim.ideals", "is_poisson_ideal"),
    ("ideals.nilpotent_nonprime_witness", "sclim.ideals", "nilpotent_nonprime_witness"),
    ("limitmap.verify_counterexample", "sclim.limitmap", "verify_counterexample"),
    ("limitmap.gamma_eval", "sclim.limitmap", "gamma_eval"),
    ("limitmap.gamma_inverse", "sclim.limitmap", "gamma_inverse"),
    ("limitmap.gamma_hat_via_family", "sclim.limitmap", "gamma_hat_via_family"),
    ("exprs.parse_expression", "sclim.exprs", "parse_expression"),
    ("exprs.parse_cpoly", "sclim.exprs", "parse_cpoly"),
    ("cli.main", "sclim.cli", "main"),
)

# Direct children of a verify_counterexample span that open each of its six
# checks, in report order; spans before the first belong to building e^n and
# the central element.
CHECK_MARKERS = {
    "pbw.is_central": "central_element",
    "pbw.sl2_representation": "ideal_proper",
    "poisson.semiclassical_limit": "generator_images",
    "ideals.groebner": "poisson_closure",
    "ideals.poisson_closure": "poisson_closure",
    "pbw.commutator": "image_elements_in_closure",
    "ideals.nilpotent_nonprime_witness": "nilpotent_witness",
}
CHECK_ORDER = ("setup", "central_element", "ideal_proper", "generator_images",
               "poisson_closure", "image_elements_in_closure", "nilpotent_witness")


def _coeff_bits(fractions) -> int:
    return max((max(x.numerator.bit_length(), x.denominator.bit_length())
                for x in fractions), default=0)


def _ncpoly_bits(poly) -> int:
    return max((_coeff_bits(c.num.coeffs + c.den.coeffs) for c in poly.terms.values()),
               default=0)


class Tracer:
    def __init__(self):
        self.names = [name for name, _, _ in TARGETS]
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        # 1 when a span of the same name is already open (recursion), so that
        # busy time counts only the outermost call.
        self.span_nested = array("b")
        self.counts = Counter()
        self.maxima = Counter()
        self._stack = [-1]
        self._open = [0] * len(self.names)
        self._closure = self.names.index("ideals.poisson_closure")
        self._seen_pairs: dict[int, tuple[object, set]] = {}

    # -- installation ------------------------------------------------------------

    def install(self) -> None:
        modules = [m for name, m in sorted(sys.modules.items())
                   if (name == "sclim" or name.startswith("sclim.")) and m is not None]
        after = {"arith.gcd": self._after_gcd, "pbw.multiply": self._after_multiply,
                 "ideals.groebner": self._after_groebner,
                 "ideals.reduce_poly": self._after_reduce}
        for nid, (name, module, path) in enumerate(TARGETS):
            owner = sys.modules[module]
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            original = getattr(owner, attr)
            wrapper = self._wrap(nid, original, after.get(name))
            if outer:
                is_static = isinstance(owner.__dict__[attr], staticmethod)
                setattr(owner, attr, staticmethod(wrapper) if is_static else wrapper)
                continue
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)

    def _wrap(self, nid: int, fn, after):
        names, parents = self.span_name, self.span_parent
        starts, ends, nested = self.span_start, self.span_end, self.span_nested
        stack, open_ = self._stack, self._open

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1])
            nested.append(open_[nid] > 0)
            starts.append(0.0)
            ends.append(0.0)
            stack.append(idx)
            open_[nid] += 1
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = perf_counter()
                starts[idx] = t0
                open_[nid] -= 1
                stack.pop()
            if after is not None:
                after(args, result)
            return result

        return wrapper

    # -- counts at call boundaries ---------------------------------------------------

    def _after_gcd(self, args, g) -> None:
        self.counts["arith.gcd.useful"] += g.degree > 0

    def _after_multiply(self, args, out) -> None:
        a, b = args[0], args[1]
        p = a.presentation
        # Keep the presentation alive so its id is never reused.
        seen = self._seen_pairs.setdefault(id(p), (p, set()))[1]
        reused = 0
        for ea in a.terms:
            for eb in b.terms:
                if (ea, eb) in seen:
                    reused += 1
                else:
                    seen.add((ea, eb))
        self.counts["pbw.multiply.pairs"] += len(a.terms) * len(b.terms)
        self.counts["pbw.multiply.pairs_reused"] += reused
        self.counts["pbw.multiply.out_terms"] += len(out.terms)
        self._max("arith.coeff_bits.max", _ncpoly_bits(out))

    def _after_groebner(self, args, basis) -> None:
        self._max("ideals.groebner.peak_basis", len(basis))
        self._max("arith.coeff_bits.max",
                  max((_coeff_bits(g.terms.values()) for g in basis), default=0))
        if self._open[self._closure]:
            self.counts["ideals.poisson_closure.groebner_calls"] += 1

    def _after_reduce(self, args, remainder) -> None:
        self.counts["ideals.reduce_poly.zero"] += remainder.is_zero()

    def _max(self, key: str, value: int) -> None:
        if value > self.maxima[key]:
            self.maxima[key] = value

    # -- results ---------------------------------------------------------------------

    def summary(self) -> dict:
        """Per span name: calls, busy_s (outermost calls) and self_s."""
        n = len(self.span_start)
        dur = [self.span_end[i] - self.span_start[i] for i in range(n)]
        child = [0.0] * n
        for i in range(n):
            p = self.span_parent[i]
            if p >= 0:
                child[p] += dur[i]
        spans = {name: {"calls": 0, "busy_s": 0.0, "self_s": 0.0} for name in self.names}
        for i in range(n):
            entry = spans[self.names[self.span_name[i]]]
            entry["calls"] += 1
            entry["self_s"] += dur[i] - child[i]
            if not self.span_nested[i]:
                entry["busy_s"] += dur[i]
        return {"spans": spans, "counts": dict(self.counts), "maxima": dict(self.maxima),
                "verify_checks": self._verify_checks()}

    def _verify_checks(self) -> list[dict]:
        """Per verify_counterexample span: its time and the time of each check.

        A check runs from the first direct child span that opens it to the
        first that opens the next one; the report's own `timing` field is not
        used.
        """
        verify = self.names.index("limitmap.verify_counterexample")
        rank = {name: k for k, name in enumerate(CHECK_ORDER)}
        out = []
        for v in (i for i, nid in enumerate(self.span_name) if nid == verify):
            bounds = [("setup", self.span_start[v])]
            for c in range(v + 1, len(self.span_start)):
                if self.span_start[c] > self.span_end[v]:
                    break
                check = CHECK_MARKERS.get(self.names[self.span_name[c]])
                if self.span_parent[c] == v and check is not None \
                        and rank[check] > rank[bounds[-1][0]]:
                    bounds.append((check, self.span_start[c]))
            ends = [start for _, start in bounds[1:]] + [self.span_end[v]]
            out.append({"total_s": self.span_end[v] - self.span_start[v],
                        "checks": {name: end - start
                                   for (name, start), end in zip(bounds, ends)}})
        return out

    def dump(self, path) -> None:
        """Write every span as parallel arrays."""
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"names": self.names, "name": self.span_name.tolist(),
                       "parent": self.span_parent.tolist(),
                       "start": self.span_start.tolist(),
                       "end": self.span_end.tolist()}, fh)
