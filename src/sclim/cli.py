"""Command-line front end.

Every kernel operation is reachable from here: normal forms, commutators,
Poisson brackets, semiclassical limits, Poisson closures, ideal membership,
growth tables, confluence checks, and the full per-n verification pipeline
(`verify-paper`).

Exit codes: 0 all checks passed (or a plain answer was printed), 1 a
mathematical check failed (the report says which), 2 bad input (parse errors,
malformed files, invalid configuration).

Reports are emitted as JSON (default) or as a Markdown rendering of the same
record.  This module alone knows that schema: the kernel returns plain
results, and `_timed_check`/`_make_report` turn them into the record.
Reruns with identical configuration produce byte-identical JSON apart from
the per-check `timing` fields (milliseconds).
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import TYPE_CHECKING, Optional, Sequence

from . import __version__
from .errors import KernelError, NotCommutativeAtOne, ParseError
# json, exprs, poisson, ideals and limitmap are imported where they are used:
# a cold `nf` or `comm` process loads none of them but exprs, and a cold
# `verify-paper`, `limit`, `gk` or `overlaps` process never loads exprs.
from .pbw import (B, B_lambda, B_q, PBWPresentation, Usl2, commutator,
                  growth_dimensions, growth_slope, presentation_from_json)

if TYPE_CHECKING:
    from .poisson import PoissonAlgebra

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_INPUT = 2

_BUILTIN_ALGEBRAS = ("B", "B_q", "Usl2", "B_lambda:<value>")


def _load_presentation(algebra: Optional[str], path: Optional[str]) -> PBWPresentation:
    if path is not None:
        import json
        with open(path, "r", encoding="utf-8") as fh:
            try:
                data = json.load(fh)
            except json.JSONDecodeError as exc:
                raise ParseError(f"{path}: {exc}") from exc
        return presentation_from_json(data)
    name = algebra or "B"
    if name == "B":
        return B()
    if name == "B_q":
        return B_q()
    if name == "Usl2":
        return Usl2()
    if name.startswith("B_lambda:"):
        return B_lambda(name.split(":", 1)[1])
    raise ParseError(
        f"unknown algebra {name!r}; builtins: {', '.join(_BUILTIN_ALGEBRAS)}")


def _limit_algebra(algebra: Optional[str], path: Optional[str]) -> PoissonAlgebra:
    from .poisson import B1, semiclassical_limit
    if path is None and (algebra is None or algebra == "B1"):
        return B1()
    return semiclassical_limit(_load_presentation(algebra, path))


def _split_polys(text: str) -> list[str]:
    return [part.strip() for part in text.split(",") if part.strip()]


def _make_report(config: dict, checks: list[dict], passed: bool) -> dict:
    return {
        "version": __version__,
        "config": config,
        "checks": checks,
        "verdict": "pass" if passed else "fail",
    }


def _render(report: dict, fmt: str) -> str:
    if fmt == "json":
        import json
        return json.dumps(report, indent=2)
    lines = [f"# sclim report (v{report['version']})", ""]
    lines.append(f"verdict: **{report['verdict']}**")
    lines.append("")
    lines.append("| check | status | details |")
    lines.append("| --- | --- | --- |")
    for check in report["checks"]:
        details = str(check.get("details", "")).replace("|", "\\|")
        lines.append(f"| {check['name']} | {check['status']} | {details} |")
    return "\n".join(lines)


def _timed_check(name: str, passed: bool, details: str, ms: float) -> dict:
    return {
        "name": name,
        "status": "pass" if passed else "fail",
        "details": details,
        "timing": round(ms, 3),
    }


# -- command handlers ------------------------------------------------------------


def _cmd_nf(args) -> int:
    from .exprs import parse_expression
    presentation = _load_presentation(args.algebra, args.file)
    print(parse_expression(args.expr, presentation))
    return EXIT_OK


def _cmd_comm(args) -> int:
    from .exprs import parse_expression
    presentation = _load_presentation(args.algebra, args.file)
    a = parse_expression(args.lhs, presentation)
    b = parse_expression(args.rhs, presentation)
    print(commutator(a, b))
    return EXIT_OK


def _cmd_bracket(args) -> int:
    from .exprs import parse_cpoly
    from .poisson import poisson_bracket
    algebra = _limit_algebra(args.algebra, args.file)
    a = parse_cpoly(args.lhs, algebra.variables)
    b = parse_cpoly(args.rhs, algebra.variables)
    print(poisson_bracket(algebra, a, b))
    return EXIT_OK


def _cmd_limit(args) -> int:
    import json
    from .poisson import semiclassical_limit
    presentation = _load_presentation(args.algebra, args.file)
    started = time.perf_counter()
    config = {"command": "limit", "algebra": presentation.name}
    try:
        passed, details = True, json.dumps(semiclassical_limit(presentation).to_json())
    except NotCommutativeAtOne as exc:
        passed, details = False, str(exc)
    check = _timed_check("commutative_at_1", passed, details,
                         (time.perf_counter() - started) * 1000)
    print(_render(_make_report(config, [check], passed), args.format))
    return EXIT_OK if passed else EXIT_CHECK_FAILED


def _cmd_closure(args) -> int:
    from .exprs import parse_cpoly
    from .ideals import CommIdeal, MonomialOrder, poisson_closure
    from .poisson import B1
    algebra = B1()
    variables = algebra.variables
    gens = [parse_cpoly(text, variables) for text in _split_polys(args.ideal)]
    ideal = CommIdeal(variables, gens, MonomialOrder(args.order, tuple(variables)))
    closure = poisson_closure(ideal, algebra)
    print(_render({"vars": list(variables),
                   "generators": _split_polys(args.ideal),
                   "closure_basis": closure.basis_strings()}, "json"))
    return EXIT_OK


def _cmd_member(args) -> int:
    from .exprs import parse_cpoly
    from .ideals import CommIdeal, MonomialOrder, membership
    variables = tuple(_split_polys(args.vars))
    gens = [parse_cpoly(text, variables) for text in _split_polys(args.ideal)]
    ideal = CommIdeal(variables, gens, MonomialOrder(args.order, tuple(variables)))
    poly = parse_cpoly(args.poly, variables)
    inside, remainder = membership(poly, ideal)
    print("member" if inside else f"not a member (remainder: {remainder})")
    return EXIT_OK


def _cmd_gk(args) -> int:
    presentation = _load_presentation(args.algebra, args.file)
    dims = growth_dimensions(presentation, args.dmax)
    lo = args.window_lo if args.window_lo is not None else max(1, args.dmax // 2)
    hi = args.window_hi if args.window_hi is not None else args.dmax
    slope = growth_slope(dims, lo, hi)
    print(_render({"algebra": presentation.name,
                   "dimensions": dims,
                   "window": [lo, hi],
                   "slope": str(slope),
                   "slope_float": float(slope)}, "json"))
    return EXIT_OK


def _cmd_overlaps(args) -> int:
    presentation = _load_presentation(args.algebra, args.file)
    report = presentation.overlap_report
    checks = [
        _timed_check(f"overlap_{'_'.join(presentation.generators[g] for g in c.triple)}",
                     c.ok,
                     "both reductions agree" if c.ok else
                     f"left: {c.left}; right: {c.right}",
                     c.ms)
        for c in report.checks
    ]
    config = {"command": "overlaps", "algebra": presentation.name}
    print(_render(_make_report(config, checks, report.passed), args.format))
    return EXIT_OK if report.passed else EXIT_CHECK_FAILED


def _cmd_verify(args) -> int:
    from .limitmap import SampleSet, verify_counterexample
    if not 2 <= args.n_min <= args.n_max:
        raise ValueError("need 2 <= n-min <= n-max")
    if args.samples < 3:
        raise ValueError("need at least 3 samples")
    nodes = SampleSet.integers(args.samples)
    checks = []
    all_passed = True
    for n in range(args.n_min, args.n_max + 1):
        report = verify_counterexample(n, nodes)
        all_passed = all_passed and report.passed
        for sub in report.checks:
            checks.append(_timed_check(f"n={n}:{sub.name}", sub.passed,
                                       sub.details, sub.ms))
    config = {"command": "verify-paper", "n_min": args.n_min,
              "n_max": args.n_max, "samples": args.samples,
              "nodes": [str(x) for x in nodes]}
    print(_render(_make_report(config, checks, all_passed), args.format))
    return EXIT_OK if all_passed else EXIT_CHECK_FAILED


# -- argument parsing --------------------------------------------------------------


class _CommandParser(argparse.ArgumentParser):
    """Reads a value that starts with one '-', such as -3/2*e, as no option."""

    def _parse_optional(self, arg_string):
        if arg_string in self._option_string_actions or arg_string.startswith("--"):
            return super()._parse_optional(arg_string)
        return None


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sclim",
        description="Exact kernel for PBW deformation families and their "
                    "semiclassical limits.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_CommandParser)

    def add_algebra_opts(p, with_format=False):
        p.add_argument("--algebra", default=None,
                       help="builtin algebra name (B, B_q, Usl2, B_lambda:VALUE)")
        p.add_argument("--file", default=None,
                       help="path to a presentation JSON file")
        if with_format:
            p.add_argument("--format", default="json",
                           choices=("json", "markdown"))

    p = sub.add_parser("nf", help="normal form of an expression")
    add_algebra_opts(p)
    p.add_argument("expr")
    p.set_defaults(handler=_cmd_nf)

    p = sub.add_parser("comm", help="commutator of two expressions")
    add_algebra_opts(p)
    p.add_argument("lhs")
    p.add_argument("rhs")
    p.set_defaults(handler=_cmd_comm)

    p = sub.add_parser("bracket", help="Poisson bracket in the limit algebra")
    p.add_argument("--algebra", default="B1",
                   help="B1 (default) or a parametric algebra to take the limit of")
    p.add_argument("--file", default=None)
    p.add_argument("lhs")
    p.add_argument("rhs")
    p.set_defaults(handler=_cmd_bracket)

    p = sub.add_parser("limit", help="semiclassical limit of a presentation")
    add_algebra_opts(p, with_format=True)
    p.set_defaults(handler=_cmd_limit)

    p = sub.add_parser("closure", help="Poisson closure of an ideal in the limit")
    p.add_argument("--ideal", required=True,
                   help="comma-separated generator polynomials")
    p.add_argument("--order", default="degrevlex", choices=("degrevlex", "lex"))
    p.set_defaults(handler=_cmd_closure)

    p = sub.add_parser("member", help="ideal membership test")
    p.add_argument("--ideal", required=True)
    p.add_argument("--poly", required=True)
    p.add_argument("--vars", default="e,f,h")
    p.add_argument("--order", default="degrevlex", choices=("degrevlex", "lex"))
    p.set_defaults(handler=_cmd_member)

    p = sub.add_parser("gk", help="growth dimension table and log-log slope")
    add_algebra_opts(p)
    p.add_argument("--dmax", type=int, default=12)
    p.add_argument("--window-lo", type=int, default=None)
    p.add_argument("--window-hi", type=int, default=None)
    p.set_defaults(handler=_cmd_gk)

    p = sub.add_parser("overlaps", help="diamond-lemma confluence check")
    add_algebra_opts(p, with_format=True)
    p.set_defaults(handler=_cmd_overlaps)

    p = sub.add_parser("verify-paper",
                       help="run the full verification pipeline per n")
    p.add_argument("--n-min", type=int, default=2)
    p.add_argument("--n-max", type=int, default=2)
    p.add_argument("--samples", type=int, default=5,
                   help="sample node count (default 5)")
    p.add_argument("--format", default="json", choices=("json", "markdown"))
    p.set_defaults(handler=_cmd_verify)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if not exc.code else EXIT_INPUT
    try:
        return args.handler(args)
    except (KernelError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


def entrypoint() -> None:
    # Exact coefficients outgrow the 4,300 digits to which Python 3.10.7+
    # limits the conversion of an int to and from text.
    if hasattr(sys, "set_int_max_str_digits"):
        sys.set_int_max_str_digits(0)
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
