"""Seeded inputs for the three workloads.

Everything here is pure: the same seed gives the same job lists and op
streams.  The program under test only ever sees the strings and numbers
built here.
"""

from __future__ import annotations

import random
from fractions import Fraction

WORKLOADS = ("verify-paper", "nf-power", "library-mix")

VERIFY_N_MAX = 10

# One pass of nf-power: (power, whether the coefficient of e is t + r).  The
# slot of t changes the cost by about 10%, so it is fixed.
NF_JOBS = ((9, False), (9, True), (10, False))

# Presentations each workload builds when a fresh worker becomes ready.
SETUP_PRESENTATIONS = {
    "verify-paper": ("B", "B_q"),
    "nf-power": ("B",),
    "library-mix": ("B", "B_q", "Usl2"),
}

# One block of the library-mix stream.  Every block holds these kinds in these
# proportions, shuffled per block, so that seeds change the inputs and the
# order but never the mix itself.
# Closures are the slowest kind by far and alike in cost, so the 25 of them in
# every 1,000 ops hold the p99 op, and no kind takes half of the stream time.
MIX_BLOCK = (("parse", 10), ("comm", 6), ("central", 2), ("bracket", 8),
             ("member", 6), ("closure", 1), ("roundtrip", 4), ("overlaps", 3))
MIX_OPS = 1000

LAMBDA_VALUES = ("2", "3", "1/2", "-1", "5/2", "3/4", "-2", "4/3")


def _rat(rng: random.Random, top: int = 9) -> Fraction:
    return Fraction(rng.choice((-1, 1)) * rng.randint(1, top), rng.randint(1, 5))


def _coeff(value: Fraction, param: str | None = None) -> str:
    text = str(value)
    if param is None:
        return f"({text})"
    return f"({param}+{text})" if value > 0 else f"({param}-{-value})"


def verify_jobs(seed: int) -> list[list[str]]:
    """One `verify-paper` CLI invocation; the seed picks only `--samples`."""
    samples = random.Random(seed).randint(5, 8)
    return [["verify-paper", "--n-min", "2", "--n-max", str(VERIFY_N_MAX),
             "--samples", str(samples)]]


def nf_terms(seed: int) -> list[tuple[list[str], int]]:
    """Coefficients of e, f, h and the power for each nf-power job."""
    rng = random.Random(seed)
    jobs = []
    for power, with_t in NF_JOBS:
        coeffs = [_coeff(_rat(rng)) for _ in range(3)]
        if with_t:
            coeffs[0] = _coeff(_rat(rng), "t")
        jobs.append((coeffs, power))
    return jobs


def nf_expression(coeffs: list[str], power: int) -> str:
    c1, c2, c3 = coeffs
    return f"({c1}*e + {c2}*f + {c3}*h)^{power}"


def nf_jobs(seed: int) -> list[list[str]]:
    return [["nf", "--algebra", "B", nf_expression(c, k)] for c, k in nf_terms(seed)]


def cli_jobs(workload: str, seed: int) -> list[list[str]]:
    return verify_jobs(seed) if workload == "verify-paper" else nf_jobs(seed)


# -- library-mix --------------------------------------------------------------------

_GENS = {"B": ("e", "f", "h"), "B_q": ("e", "f", "h"), "Usl2": ("E", "F", "H")}
_PARAM = {"B": "t", "B_q": "q"}


def _linear(rng: random.Random, gens, param: str | None, terms: int) -> str:
    parts = []
    for g in rng.sample(gens, terms):
        c = _rat(rng, 5)
        if param is not None and rng.random() < 0.3:
            parts.append(f"{_coeff(c, param)}*{g}")
        else:
            parts.append(f"{_coeff(c)}*{g}")
    parts.append(_coeff(_rat(rng, 5)))
    return "(" + " + ".join(parts) + ")"


def _nc_product(rng: random.Random, gens, param: str | None, factors: int) -> str:
    return "*".join(_linear(rng, gens, param, rng.randint(1, 3))
                    for _ in range(factors))


def _cpoly(rng: random.Random, degree: int, terms: int) -> str:
    parts = []
    for _ in range(terms):
        d = rng.randint(1, degree)
        mono = "*".join(rng.choice("efh") for _ in range(d))
        parts.append(f"{_coeff(_rat(rng, 5))}*{mono}")
    return " + ".join(parts)


def _op_parse(rng):
    name = rng.choice(("B", "B_q", "Usl2", "B_lambda"))
    if name == "B_lambda":
        name = f"B_lambda:{rng.choice(LAMBDA_VALUES)}"
        gens, param = ("e", "f", "h"), None
    else:
        gens, param = _GENS[name], _PARAM.get(name)
    return {"algebra": name, "expr": _nc_product(rng, gens, param, rng.randint(2, 3))}


def _op_comm(rng):
    gens = ("e", "f", "h")
    return {"lhs": _nc_product(rng, gens, "t", rng.randint(1, 2)),
            "rhs": _nc_product(rng, gens, "t", 1)}


CASIMIR_B = "(4*e*f + h^2 - 2*(t-1)*h)"


def _op_central(rng):
    c0, c1 = (_coeff(_rat(rng, 5), "t" if rng.random() < 0.5 else None)
              for _ in range(2))
    expr = f"{c0} + {c1}*{CASIMIR_B}"
    central = rng.random() < 0.5
    if not central:
        expr += f" + {_coeff(_rat(rng, 5))}*{rng.choice('efh')}"
    return {"expr": expr, "central": central}


def _op_bracket(rng):
    return {"lhs": _cpoly(rng, 3, rng.randint(1, 3)),
            "rhs": _cpoly(rng, 3, rng.randint(1, 3))}


def _op_member(rng):
    gens = [_cpoly(rng, 2, rng.randint(1, 2)) for _ in range(2)]
    if rng.random() < 0.5:
        poly = (f"({_cpoly(rng, 1, 1)})*({gens[0]}) + "
                f"({_cpoly(rng, 1, 1)})*({gens[1]})")
    else:
        poly = _cpoly(rng, 2, 3)
    return {"gens": gens, "poly": poly,
            "order": rng.choice(("degrevlex", "lex"))}


def _op_closure(rng):
    a, b = _rat(rng, 5), _rat(rng, 5)
    return {"gens": ["e^3", f"{_coeff(a)}*e*f + {_coeff(b)}*h^2"]}


def _op_roundtrip(rng):
    terms = []
    for _ in range(rng.randint(1, 3)):
        # Ordered monomials, so that the coefficients stay in the band.
        mono = "*".join(sorted(rng.choice("efh") for _ in range(rng.randint(1, 2))))
        a, b, c = (_rat(rng, 5) for _ in range(3))
        terms.append(f"({a}*t^2 + {b}*t + {c})*{mono}")
    return {"expr": " + ".join(terms), "band": [0, 2], "nodes": 4}


def _op_overlaps(rng):
    alpha, beta = _rat(rng, 5), _rat(rng, 5)
    confluent = rng.random() < 0.5
    gamma = -beta if confluent else -beta + _rat(rng, 5)
    relations = [
        {"lhs": ["y", "x"], "coeff": "1", "rhs": [{"coeff": str(alpha), "monomial": {"z": 1}}]},
        {"lhs": ["z", "x"], "coeff": "1", "rhs": [{"coeff": str(beta), "monomial": {"x": 1}}]},
        {"lhs": ["z", "y"], "coeff": "1", "rhs": [{"coeff": str(gamma), "monomial": {"y": 1}}]},
    ]
    data = {"name": "fresh", "generators": ["x", "y", "z"],
            "parameter": None, "relations": relations}
    # Relations of Lie type are confluent iff the Jacobi identity holds,
    # which for these brackets is alpha * (beta + gamma) == 0.
    return {"presentation": data, "confluent": alpha * (beta + gamma) == 0}


_MAKERS = {"parse": _op_parse, "comm": _op_comm, "central": _op_central,
           "bracket": _op_bracket, "member": _op_member, "closure": _op_closure,
           "roundtrip": _op_roundtrip, "overlaps": _op_overlaps}


def mix_ops(seed: int, count: int = MIX_OPS) -> list[dict]:
    """The library-mix op stream: whole shuffled blocks of `MIX_BLOCK`."""
    rng = random.Random(seed)
    block = [kind for kind, weight in MIX_BLOCK for _ in range(weight)]
    ops = []
    while len(ops) < count:
        rng.shuffle(block)
        ops.extend({"kind": kind, **_MAKERS[kind](rng)} for kind in block)
    return ops
