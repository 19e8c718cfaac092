"""Answer checks that do not use the code under test.

Every answer the program prints is re-derived by another route:

* normal forms are evaluated on exact `Fraction` matrices of sl2 weight
  modules, built here, and compared with the input evaluated the same way;
* images at parameter value 1, commutators divided by (t-1) and Poisson
  brackets are recomputed with sympy from the bracket table
  {e,f} = h, {h,e} = 2e, {h,f} = -2f;
* ideal answers (reduced bases, membership, remainders, closures) are
  recomputed with `sympy.groebner`.

Each check returns None when the answer holds and a one-line reason
otherwise.  sympy is imported on first use, so the timed part of a run never
pays for it.
"""

from __future__ import annotations

import ast
import functools
import re
from fractions import Fraction

_TOKEN = re.compile(r"\s*(\d+|[A-Za-z_]\w*|\S)")


def evaluate(text: str, atoms: dict):
    """Value of an expression in the program's grammar, over the given atoms.

    Integers become exact `Fraction`s and `^` is a power, so `/` stays exact.
    Only the listed atoms, numbers and `+ - * / ^ ( )` are accepted.
    """
    code = []
    for tok in _TOKEN.findall(text):
        if tok.isdigit():
            code.append(tok if code[-1:] == ["**"] else f"_F({tok})")
        elif tok == "^":
            code.append("**")
        elif tok in "+-*/()":
            code.append(tok)
        elif tok in atoms:
            code.append(tok)
        else:
            raise ValueError(f"unexpected token {tok!r} in {text[:80]!r}")
    return eval(" ".join(code), {"__builtins__": {}, "_F": Fraction}, dict(atoms))


class Mat:
    """Square matrix of Fractions, just enough arithmetic for `evaluate`."""

    __slots__ = ("rows", "_powers")

    def __init__(self, rows):
        self.rows = tuple(tuple(Fraction(x) for x in row) for row in rows)
        self._powers = [self]  # self ** (k + 1), filled on demand

    @classmethod
    def scalar(cls, size: int, value) -> "Mat":
        return cls([[value if i == j else 0 for j in range(size)] for i in range(size)])

    def _lift(self, other) -> "Mat":
        return other if isinstance(other, Mat) else Mat.scalar(len(self.rows), other)

    def __add__(self, other):
        o = self._lift(other)
        return Mat([[a + b for a, b in zip(r, s)] for r, s in zip(self.rows, o.rows)])

    __radd__ = __add__

    def __neg__(self):
        return Mat([[-a for a in r] for r in self.rows])

    def __sub__(self, other):
        return self + (-self._lift(other))

    def __rsub__(self, other):
        return self._lift(other) - self

    def __mul__(self, other):
        if not isinstance(other, Mat):
            return Mat([[a * other for a in r] for r in self.rows])
        cols = list(zip(*other.rows))
        return Mat([[sum(a * b for a, b in zip(r, c)) for c in cols] for r in self.rows])

    def __rmul__(self, other):
        return self * other

    def __pow__(self, exponent: int):
        if exponent == 0:
            return Mat.scalar(len(self.rows), 1)
        while len(self._powers) < exponent:
            self._powers.append(self._powers[-1] * self)
        return self._powers[exponent - 1]

    def __eq__(self, other):
        return isinstance(other, Mat) and self.rows == other.rows

    __hash__ = None


def sl2_module(dim: int) -> tuple[Mat, Mat, Mat]:
    """E, F, H on the weight basis v_0..v_{dim-1}, with [E,F]=H, [H,E]=2E, [H,F]=-2F."""
    E = Mat([[c * (dim - c) if r == c - 1 else 0 for c in range(dim)] for r in range(dim)])
    F = Mat([[1 if r == c + 1 else 0 for c in range(dim)] for r in range(dim)])
    H = Mat([[dim - 1 - 2 * r if r == c else 0 for c in range(dim)] for r in range(dim)])
    if not (E * F - F * E == H and H * E - E * H == E * 2 and H * F - F * H == F * -2):
        raise AssertionError("sl2 module matrices are wrong")
    return E, F, H


MODULE_DIMS = (3, 4)
PARAMETER_POINT = Fraction(3)


def module_atoms(algebra: str, dim: int) -> dict:
    """Atoms of `algebra` acting on the `dim`-dimensional module.

    For the deformation algebras e, f, h act as (par-1)E, (par-1)F, (par-1)H,
    which satisfies ef - fe = (par-1)h, he - eh = 2(par-1)e and
    hf - fh = -2(par-1)f; the parameter is fixed at `PARAMETER_POINT`.
    """
    E, F, H = sl2_module(dim)
    if algebra == "Usl2":
        return {"E": E, "F": F, "H": H}
    if algebra.startswith("B_lambda:"):
        value, atoms = Fraction(algebra.split(":", 1)[1]), {}
    else:
        value = PARAMETER_POINT
        atoms = {"t" if algebra == "B" else "q": value}
    scale = value - 1
    atoms.update(e=E * scale, f=F * scale, h=H * scale)
    return atoms


def check_normal_form(algebra: str, given: str, answer: str) -> str | None:
    """The printed normal form acts like the input on the sl2 modules."""
    for dim in MODULE_DIMS:
        atoms = module_atoms(algebra, dim)
        if evaluate(given, atoms) != evaluate(answer, atoms):
            return f"{algebra}: normal form differs from the input on the {dim}-dim module"
    return None


# -- sympy routes -------------------------------------------------------------------


@functools.cache
def _ring():
    """sympy and the generators e, f, h, t of the commutative test ring."""
    import sympy
    return sympy, sympy.symbols("e f h t")


def _poly(value):
    sp, gens = _ring()
    return sp.Poly(value, *gens, domain="QQ")


def commutative(text: str, t_value=None):
    """`text` as a sympy Poly over QQ in commuting e, f, h, t, optionally
    with t fixed at `t_value`."""
    sp, gens = _ring()
    atoms = {str(x): _poly(x) for x in gens}
    if t_value is not None:
        atoms["t"] = Fraction(t_value)
    value = evaluate(text, atoms)
    return value if isinstance(value, sp.Poly) else _poly(value)


def bracket(a, b):
    """Poisson bracket of the limit algebra, from its generator table."""
    _, (e, f, h, _t) = _ring()
    table = {(0, 1): _poly(h), (0, 2): _poly(-2 * e), (1, 2): _poly(2 * f)}
    da = [a.diff(x) for x in (e, f, h)]
    db = [b.diff(x) for x in (e, f, h)]
    out = _poly(0)
    for (i, j), entry in table.items():
        out += (da[i] * db[j] - da[j] * db[i]) * entry
    return out


def _at_one(p):
    t = _ring()[1][3]
    return _poly(p.as_expr().subs(t, 1))


def check_nf_power(expr: str, answer: str) -> str | None:
    """At t=1 the multinomial expansion; at t=3 the module action."""
    if commutative(answer, 1) != commutative(expr, 1):
        return "nf differs from the commutative expansion at t=1"
    return check_normal_form("B", expr, answer)


def check_commutator(lhs: str, rhs: str, answer: str) -> str | None:
    comm = commutative(answer)
    if not _at_one(comm).is_zero:
        return "commutator does not vanish at t=1"
    # The coefficients are polynomials in t vanishing at 1, so dividing by
    # (t-1) and setting t=1 is taking d/dt at 1.
    t = _ring()[1][3]
    if _at_one(comm.diff(t)) != bracket(commutative(lhs, 1), commutative(rhs, 1)):
        return "(comm/(t-1)) at t=1 differs from the bracket of the images"
    return None


def check_bracket(lhs: str, rhs: str, answer: str) -> str | None:
    if commutative(answer) != bracket(commutative(lhs), commutative(rhs)):
        return "bracket differs from the biderivation of the table"
    return None


def _groebner(polys, order: str):
    sp, (e, f, h, _t) = _ring()
    return sp.groebner([p.as_expr() for p in polys], e, f, h, domain="QQ",
                       order="grevlex" if order == "degrevlex" else "lex")


def _monic_set(exprs) -> set:
    sp, (e, f, h, _t) = _ring()
    return {sp.Poly(p, e, f, h, domain="QQ").monic().as_expr() for p in exprs if p != 0}


def check_membership(gens: list[str], poly: str, order: str, answer: dict) -> str | None:
    gb = _groebner([commutative(g) for g in gens], order)
    if _monic_set(gb.exprs) != _monic_set(commutative(b).as_expr() for b in answer["basis"]):
        return f"{order} basis differs from sympy's reduced basis"
    p = commutative(poly).as_expr()
    if gb.contains(p) != answer["member"]:
        return "membership verdict differs from sympy's"
    if _poly(gb.reduce(p)[1]) != commutative(answer["remainder"]):
        return "remainder differs from sympy's"
    return None


def poisson_closure(gens: list[str]):
    """Reduced degrevlex basis of the smallest Poisson ideal holding `gens`:
    adjoin brackets with e, f, h until they all lie in the ideal."""
    xs = [commutative(x) for x in "efh"]
    gb = _groebner([commutative(g) for g in gens], "degrevlex")
    while True:
        new = [bracket(_poly(g), x) for g in gb.exprs for x in xs]
        new = [p for p in new if not gb.contains(p.as_expr())]
        if not new:
            return gb
        gb = _groebner([_poly(g) for g in gb.exprs] + new, "degrevlex")


def check_closure(gens: list[str], basis: list[str], outside=()) -> str | None:
    """The printed basis is sympy's closure basis and holds none of `outside`."""
    closure = poisson_closure(gens)
    if _monic_set(closure.exprs) != _monic_set(commutative(b).as_expr() for b in basis):
        return "closure basis differs from sympy's"
    if any(closure.contains(commutative(p).as_expr()) for p in outside):
        return f"closure holds one of {list(outside)}"
    return None


# -- verify-paper -------------------------------------------------------------------


def _monomial(n: int) -> str:
    return "e" if n == 1 else f"e^{n}"


def expected_checks(n: int) -> list[tuple[str, str]]:
    """Hand-written (name, details) of the six passing checks for one n.

    The poisson_closure details end with the closure basis, which is checked
    separately by `check_closure`; here only its prefix is fixed.
    """
    lead = f"{n}*{_monomial(n - 1)}*h"
    return [
        ("central_element", "4ef + h^2 - 2(q-1)h commutes with e, f, h"),
        ("ideal_proper", f"{n}-dimensional module satisfies the relations; "
                         f"annihilates e^{n}: True, "
                         f"annihilates the shifted central element: True"),
        ("generator_images",
         f"images at 1: e^{n}; 4*e*f + h^2 (sampled route agrees: True)"),
        ("poisson_closure", "plain ideal bracket-stable: False; "
                            "closure bracket-stable: True; closure basis: "),
        ("image_elements_in_closure",
         f"e^n -> e^{n}: member=True; "
         f"central generator -> 4*e*f + h^2: member=True; "
         f"(q-1)^-1 [e^n, f] -> {lead}: member=True; "
         f"(q-1)^-1 [e^n, h] -> -{2 * n}*e^{n}: member=True; "
         f"(q-1)^-1 [central, f] -> 0: member=True"),
        ("nilpotent_witness", f"e^{n} lies in the closure, e does not: not prime"),
    ]


def check_verify_report(report: dict, n_max: int, samples: int, version: str) -> str | None:
    """The whole report modulo `timing`, plus a sympy check of each closure."""
    config = {"command": "verify-paper", "n_min": 2, "n_max": n_max,
              "samples": samples, "nodes": [str(k) for k in range(2, samples + 2)]}
    if report.get("version") != version or report.get("config") != config:
        return "report version or config differs"
    if report.get("verdict") != "pass":
        return f"verdict {report.get('verdict')!r}"
    checks = report.get("checks", [])
    expected = [(f"n={n}:{name}", details)
                for n in range(2, n_max + 1) for name, details in expected_checks(n)]
    if len(checks) != len(expected):
        return f"{len(checks)} checks, expected {len(expected)}"
    for check, (name, details) in zip(checks, expected):
        if check.get("name") != name or check.get("status") != "pass":
            return f"check {check.get('name')} is not a passing {name}"
        if not name.endswith(":poisson_closure"):
            if check.get("details") != details:
                return f"{name}: details differ"
            continue
        text = check.get("details", "")
        if not text.startswith(details):
            return f"{name}: details differ"
        n = int(name[2:name.index(":")])
        basis = ast.literal_eval(text[len(details):])
        reason = check_closure([f"e^{n}", "4*e*f + h^2"], basis, outside=["e"])
        if reason:
            return f"{name}: {reason}"
    return None


# -- library-mix --------------------------------------------------------------------


def check_mix_op(op: dict, answer) -> str | None:
    kind = op["kind"]
    if kind == "parse":
        return check_normal_form(op["algebra"], op["expr"], answer)
    if kind == "comm":
        return check_commutator(op["lhs"], op["rhs"], answer)
    if kind == "central":
        return None if answer == op["central"] else "centrality verdict is wrong"
    if kind == "bracket":
        return check_bracket(op["lhs"], op["rhs"], answer)
    if kind == "member":
        return check_membership(op["gens"], op["poly"], op["order"], answer)
    if kind == "closure":
        return check_closure(op["gens"], answer)
    if kind == "roundtrip":
        if answer["output"] != answer["input"]:
            return "round trip changed the element"
        return check_normal_form("B", op["expr"], answer["output"])
    if kind == "overlaps":
        return None if answer == op["confluent"] else "overlap verdict is wrong"
    return f"unknown op kind {kind!r}"
