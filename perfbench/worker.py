"""One benchmark job in a fresh process; `run.py` starts it.

Reads one JSON request on stdin and writes one JSON reply on stdout:

    {"cli": [argv...]}   call sclim.cli.main(argv) in this process
    {"ops": [op...]}     run a library-mix op stream through the public API

Optional keys: "trace" (record spans and counts, see tracer.py), "spans"
(file to write the spans to) and "profile" (file for a cProfile dump of
this process).  sclim is imported from the PYTHONPATH the parent sets.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import time
import traceback
from fractions import Fraction

import sclim.cli
import sclim.exprs
from sclim import ideals, limitmap, pbw, poisson
from tracer import Tracer

VARS = ("e", "f", "h")


def _presentation(name: str):
    if name.startswith("B_lambda:"):
        return pbw.B_lambda(Fraction(name.split(":", 1)[1]))
    return {"B": pbw.B, "B_q": pbw.B_q, "Usl2": pbw.Usl2}[name]()


# Each op calls the public API through module attributes, so a tracer
# installed after import sees the calls.  It returns a JSON-able answer.

def _op_parse(op, b1):
    return str(sclim.exprs.parse_expression(op["expr"], _presentation(op["algebra"])))


def _op_comm(op, b1):
    B = pbw.B()
    a = sclim.exprs.parse_expression(op["lhs"], B)
    b = sclim.exprs.parse_expression(op["rhs"], B)
    return str(pbw.commutator(a, b))


def _op_central(op, b1):
    return pbw.is_central(sclim.exprs.parse_expression(op["expr"], pbw.B()))


def _op_bracket(op, b1):
    a = sclim.exprs.parse_cpoly(op["lhs"], VARS)
    b = sclim.exprs.parse_cpoly(op["rhs"], VARS)
    return str(poisson.poisson_bracket(b1, a, b))


def _op_member(op, b1):
    gens = [sclim.exprs.parse_cpoly(g, VARS) for g in op["gens"]]
    ideal = ideals.CommIdeal(VARS, gens, ideals.MonomialOrder(op["order"], VARS))
    inside, remainder = ideals.membership(sclim.exprs.parse_cpoly(op["poly"], VARS), ideal)
    return {"basis": ideal.basis_strings(), "member": inside, "remainder": str(remainder)}


def _op_closure(op, b1):
    gens = [sclim.exprs.parse_cpoly(g, VARS) for g in op["gens"]]
    return ideals.poisson_closure(ideals.CommIdeal(b1, gens), b1).basis_strings()


def _op_roundtrip(op, b1):
    B = pbw.B()
    element = sclim.exprs.parse_expression(op["expr"], B)
    family = limitmap.gamma_eval(element, limitmap.SampleSet.integers(op["nodes"]))
    back = limitmap.gamma_inverse(family, tuple(op["band"]), parent=B)
    return {"input": str(element), "output": str(back)}


def _op_overlaps(op, b1):
    return pbw.check_pbw_overlaps(pbw.presentation_from_json(op["presentation"])).passed


OPS = {"parse": _op_parse, "comm": _op_comm, "central": _op_central,
       "bracket": _op_bracket, "member": _op_member, "closure": _op_closure,
       "roundtrip": _op_roundtrip, "overlaps": _op_overlaps}


def run_ops(ops: list[dict]) -> dict:
    """Set up as a library user would, then time each op on its own."""
    for name in ("B", "B_q", "Usl2"):
        _presentation(name)
    b1 = poisson.semiclassical_limit(pbw.B())
    starts, latencies, answers, errors = [], [], [], []
    clock = time.perf_counter
    for index, op in enumerate(ops):
        fn = OPS[op["kind"]]
        t0 = clock()
        try:
            answer = fn(op, b1)
        except Exception:  # an op that raises is a failed op, not a failed run
            answer = None
            errors.append({"index": index, "error": traceback.format_exc(limit=3)})
        latencies.append(clock() - t0)
        starts.append(t0)
        answers.append(answer)
    return {"starts": starts, "latencies": latencies, "answers": answers, "errors": errors}


def run_cli(argv: list[str]) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = sclim.cli.main(argv)
    return {"exit": code, "stdout": out.getvalue(), "error": err.getvalue().strip() or None}


def main() -> None:
    request = json.load(sys.stdin)
    tracer = Tracer() if request.get("trace") else None
    if tracer is not None:
        tracer.install()
    profiler = None
    if request.get("profile"):
        import cProfile
        profiler = cProfile.Profile()
        profiler.enable()
    if "cli" in request:
        started = time.perf_counter()
        reply = run_cli(request["cli"])
    else:
        reply = run_ops(request["ops"])
        started = reply["starts"][0] if reply["starts"] else time.perf_counter()
    # perf_counter is the system-wide monotonic clock, so the parent can place
    # these stamps on its own time line.
    reply["started"] = started
    reply["wall_s"] = time.perf_counter() - started
    if profiler is not None:
        profiler.disable()
        profiler.dump_stats(request["profile"])
    if tracer is not None:
        reply["layers"] = tracer.summary()
        if request.get("spans"):
            tracer.dump(request["spans"])
    reply["version"] = sclim.__version__
    json.dump(reply, sys.stdout)


if __name__ == "__main__":
    main()
