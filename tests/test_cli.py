"""Tests for the expression language and the command-line front end."""

import ast
import json
import os
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest

from helpers import random_cpoly, random_ncpoly
from sclim import cli, ideals, pbw
from sclim.cli import main
from sclim.errors import BudgetExceeded, ParseError
from sclim.exprs import parse_cpoly, parse_expression, parse_scalar
from sclim.pbw import (B, B_q, PBWPresentation, SwapRule, Usl2, casimir,
                       multiply, presentation_to_json)
from sclim.arith import Scalar


class TestParsing:
    def test_quadratic_central_element(self):
        bq = B_q()
        parsed = parse_expression("4*e*f + h^2 - 2*(q-1)*h", bq)
        assert parsed == casimir(bq)

    def test_products_normalize(self):
        b = B()
        assert parse_expression("f*e", b) == multiply(b.generator(1),
                                                      b.generator(0))

    def test_zero_power(self):
        assert parse_expression("e^0", B()) == B().one()

    def test_rational_literals(self):
        assert parse_expression("3/4*e", B()) == B().generator(0).scale(
            Scalar.of("3/4", "t"))

    def test_division_by_scalar_expression(self):
        bq = B_q()
        parsed = parse_expression("e/(q-1)", bq)
        assert parsed == bq.generator(0).scale(
            (Scalar.variable("q") - 1).inverse())

    def test_division_by_generator_rejected(self):
        with pytest.raises(ParseError):
            parse_expression("e/f", B())

    def test_error_position(self):
        with pytest.raises(ParseError) as excinfo:
            parse_expression("e + $", B())
        assert excinfo.value.position == 4

    @pytest.mark.parametrize("text", ["e^\u00b2", "e^\u0663"])
    def test_non_ascii_digits_rejected(self, text):
        # Superscript two and Arabic-Indic three pass str.isdigit.
        for parse in (lambda: parse_expression(text, B()),
                      lambda: parse_cpoly(text, ("e", "f", "h")),
                      lambda: parse_scalar(text.replace("e", "t"), "t")):
            with pytest.raises(ParseError) as excinfo:
                parse()
            assert excinfo.value.position == 2

    def test_unknown_symbol(self):
        with pytest.raises(ParseError):
            parse_expression("e + x", B())
        with pytest.raises(ParseError):
            parse_cpoly("q*e", ("e", "f", "h"))

    def test_scalar_parsing(self):
        assert parse_scalar("-2*(t-1)", "t") == -2 * (Scalar.variable("t") - 1)
        assert parse_scalar("1/(q-1)", "q") == \
            (Scalar.variable("q") - 1).inverse()


class TestRoundTrip:
    def test_ncpoly_print_parse(self):
        rng = random.Random(601)
        for p in (B(), B_q()):
            for _ in range(50):
                z = random_ncpoly(rng, p, max_degree=3, coeff_degree=2)
                assert parse_expression(str(z), p) == z

    def test_ncpoly_with_rational_function_coefficients(self):
        bq = B_q()
        inv = (Scalar.variable("q") - 1).inverse()
        z = bq.generator(0).scale(inv) + bq.monomial((0, 1, 2), inv * inv)
        assert parse_expression(str(z), bq) == z

    def test_cpoly_print_parse(self):
        rng = random.Random(602)
        for _ in range(50):
            p = random_cpoly(rng, max_degree=3)
            assert parse_cpoly(str(p), ("e", "f", "h")) == p

    def test_zero_prints_and_parses(self):
        assert str(B().zero()) == "0"
        assert parse_expression("0", B()).is_zero()


class TestCommands:
    def test_nf(self, capsys):
        assert main(["nf", "--algebra", "B", "f*e"]) == 0
        out = capsys.readouterr().out.strip()
        assert parse_expression(out, B()) == multiply(B().generator(1),
                                                      B().generator(0))

    def test_comm(self, capsys):
        assert main(["comm", "--algebra", "B_q", "e", "f"]) == 0
        out = capsys.readouterr().out.strip()
        qm1 = Scalar.variable("q") - 1
        assert parse_expression(out, B_q()) == B_q().generator(2).scale(qm1)

    def test_bracket(self, capsys):
        assert main(["bracket", "e", "f"]) == 0
        assert capsys.readouterr().out.strip() == "h"

    def test_member_not_a_member(self, capsys):
        code = main(["member",
                     "--ideal", "e^2, e*f, e*h, f^2, f*h, h^2",
                     "--poly", "e"])
        assert code == 0
        assert "not a member" in capsys.readouterr().out

    def test_member_positive(self, capsys):
        code = main(["member", "--ideal", "e^2, 4*e*f+h^2", "--poly", "e^2"])
        assert code == 0
        assert capsys.readouterr().out.strip() == "member"

    def test_closure(self, capsys):
        assert main(["closure", "--ideal", "e^2, 4*e*f+h^2"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["vars"] == ["e", "f", "h"]
        assert sorted(data["closure_basis"]) == sorted(
            ["e^2", "e*f", "e*h", "f^2", "f*h", "h^2"])

    def test_limit(self, capsys):
        assert main(["limit", "--algebra", "B"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["verdict"] == "pass"
        table = json.loads(report["checks"][0]["details"])
        assert table["brackets"] == {"e,f": "h", "e,h": "-2*e", "f,h": "2*f"}

    def test_gk(self, capsys):
        assert main(["gk", "--algebra", "B", "--dmax", "12"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["dimensions"][2] == 10
        assert 2.8 <= data["slope_float"] <= 3.2

    def test_overlaps_pass(self, capsys):
        assert main(["overlaps", "--algebra", "B_q"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["verdict"] == "pass"

    def test_verify_markdown(self, capsys):
        code = main(["verify-paper", "--n-min", "2", "--n-max", "2",
                     "--samples", "3", "--format", "markdown"])
        assert code == 0
        out = capsys.readouterr().out
        assert "| check | status |" in out
        assert "verdict: **pass**" in out


def _strip_timings(record):
    if isinstance(record, dict):
        return {k: _strip_timings(v) for k, v in record.items() if k != "timing"}
    if isinstance(record, list):
        return [_strip_timings(x) for x in record]
    return record


class TestExitCodeCorpus:
    def test_passing_run_exits_zero(self, capsys):
        assert main(["verify-paper", "--n-min", "2", "--n-max", "2",
                     "--samples", "3"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["verdict"] == "pass"
        names = [c["name"] for c in report["checks"]]
        assert len(names) == 6 and all(name.startswith("n=2:") for name in names)

    def test_corrupted_presentation_exits_one(self, tmp_path, capsys):
        data = presentation_to_json(B())
        # Damage the h*e rule: its tail lands on f instead of e.
        data["relations"][1]["rhs"][0]["monomial"] = {"f": 1}
        path = tmp_path / "corrupted.json"
        path.write_text(json.dumps(data))
        assert main(["overlaps", "--file", str(path)]) == 1
        report = json.loads(capsys.readouterr().out)
        assert report["verdict"] == "fail"

    def test_malformed_file_exits_two(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{ this is not json")
        assert main(["overlaps", "--file", str(path)]) == 2

    @pytest.mark.parametrize("field, value", [
        ("parameter", {"value": "2"}),
        ("parameter", "t"),
        ("relations", 5),
        ("monomial", 5),
        ("symbol", "E"),
        ("symbol", 5),
    ])
    def test_malformed_presentation_exits_two(self, tmp_path, capsys, field, value):
        # Usl2's coefficients are constants, so a bad symbol is its only fault.
        data = presentation_to_json(Usl2() if field == "symbol" else B())
        if field == "monomial":
            data["relations"][0]["rhs"][0]["monomial"] = value
        elif field == "symbol":
            data["parameter"] = {"symbol": value, "value": None}
        else:
            data[field] = value
        path = tmp_path / "malformed.json"
        path.write_text(json.dumps(data))
        for argv in (["nf", "--file", str(path), data["generators"][0]],
                     ["overlaps", "--file", str(path)]):
            assert main(argv) == 2
            err = capsys.readouterr().err
            assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("fault, message", [
        ("algebra", "zero denominator in '1/0'"),
        ("value", "bad parameter entry: zero denominator in '1/0'"),
        ("generators", "generator names must be distinct"),
    ])
    def test_zero_denominator_or_repeated_generator_exits_two(
            self, tmp_path, capsys, fault, message):
        data = presentation_to_json(B())
        if fault == "value":
            data["parameter"]["value"] = "1/0"
        elif fault == "generators":
            data["generators"] = ["e", "f", "e"]
        path = tmp_path / "malformed.json"
        path.write_text(json.dumps(data))
        argv = (["nf", "--algebra", "B_lambda:1/0", "e"] if fault == "algebra"
                else ["nf", "--file", str(path), "e"])
        assert main(argv) == 2
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_overlaps_certifies_once(self, tmp_path, capsys, monkeypatch):
        # `overlaps` prints the certificate the presentation was built with.
        calls = []
        original = pbw.check_pbw_overlaps

        def counted(p):
            calls.append(p.name)
            return original(p)

        monkeypatch.setattr(pbw, "check_pbw_overlaps", counted)
        # Count calls made through a name `cli` imports, too.
        monkeypatch.setattr(cli, "check_pbw_overlaps", counted, raising=False)
        path = tmp_path / "b.json"
        path.write_text(json.dumps(presentation_to_json(B())))
        assert main(["overlaps", "--file", str(path)]) == 0
        assert json.loads(capsys.readouterr().out)["verdict"] == "pass"
        assert calls == ["B"]

    def test_bad_expression_exits_two(self):
        assert main(["nf", "--algebra", "B", "e +"]) == 2

    @pytest.mark.parametrize("argv, message", [
        (["nf", "e/f"], "can only divide by a constant"),
        (["nf", "e/(t-t)"], "division by zero"),
        (["member", "--ideal", "e", "--poly", "e/h"], "can only divide by a constant"),
        (["member", "--ideal", "e", "--poly", "e/0"], "division by zero"),
    ])
    def test_division_rule_exits_two(self, capsys, argv, message):
        # One rule for both polynomial rings: divide only by a nonzero constant.
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {message} ") and err.count("\n") == 1

    def test_repeated_variable_exits_two(self, capsys):
        assert main(["member", "--vars", "e,e", "--ideal", "e", "--poly", "e"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_bad_config_exits_two(self):
        assert main(["verify-paper", "--n-min", "1", "--n-max", "2"]) == 2
        assert main(["verify-paper", "--n-min", "2", "--n-max", "2",
                     "--samples", "2"]) == 2

    def test_unknown_algebra_exits_two(self):
        assert main(["nf", "--algebra", "Nope", "e"]) == 2

    def test_usage_error_exits_two(self, capsys):
        assert main(["no-such-command"]) == 2
        capsys.readouterr()

    def test_kernel_cap_exits_two(self, tmp_path, capsys, monkeypatch):
        # A file builds a fresh presentation, whose overlap check rewrites
        # words, so a cap of no rewrite steps is reached at once.
        path = tmp_path / "b.json"
        path.write_text(json.dumps(presentation_to_json(B())))
        monkeypatch.setattr(pbw, "_MAX_REWRITE_STEPS", 0)
        assert main(["overlaps", "--file", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "within 0 steps" in err
        assert err.count("\n") == 1 and "Traceback" not in err
        assert issubclass(BudgetExceeded, RuntimeError)

    def test_span_closure_ignores_the_rounds_cap(self, capsys, monkeypatch):
        # The closure of n=3 takes 2n+1 = 7 breadth-first levels; the rounds
        # cap bounds only the closure of a table with an entry of degree >= 2.
        argv = ["verify-paper", "--n-min", "3", "--n-max", "3", "--samples", "3"]
        assert main(argv) == 0
        expected = _strip_timings(json.loads(capsys.readouterr().out))
        monkeypatch.setattr(ideals, "_MAX_CLOSURE_ROUNDS", 2)
        assert main(argv) == 0
        assert _strip_timings(json.loads(capsys.readouterr().out)) == expected

    def test_large_n_runs(self, capsys):
        # The closure of e^50 takes more than 100 bracket passes.
        assert main(["verify-paper", "--n-min", "50", "--n-max", "50",
                     "--samples", "3"]) == 0
        report = json.loads(capsys.readouterr().out)
        details = next(c["details"] for c in report["checks"]
                       if c["name"] == "n=50:poisson_closure")
        basis = ast.literal_eval(details.split("closure basis: ", 1)[1])
        assert len(basis) == 2 * 50 + 2


class TestReportStability:
    def test_json_reports_identical_modulo_timing(self, capsys):
        argv = ["verify-paper", "--n-min", "2", "--n-max", "3", "--samples", "4"]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert main(argv) == 0
        second = capsys.readouterr().out
        a = json.dumps(_strip_timings(json.loads(first)), sort_keys=False)
        b = json.dumps(_strip_timings(json.loads(second)), sort_keys=False)
        assert a == b

    def test_check_timings_fit_in_wall_time(self, capsys):
        # Each check times itself, so the six timings of one n cannot add up
        # to more than the whole command took.
        started = time.perf_counter()
        assert main(["verify-paper", "--n-min", "3", "--n-max", "3"]) == 0
        wall_ms = (time.perf_counter() - started) * 1000
        report = json.loads(capsys.readouterr().out)
        timings = [check["timing"] for check in report["checks"]]
        assert len(timings) == 6
        assert all(t > 0 for t in timings)
        assert sum(timings) <= wall_ms

    def test_overlap_timings_fit_in_wall_time(self, tmp_path, capsys):
        # Each triple times its own two reductions, so the timings of one
        # report cannot add up to more than the whole command took.  Two
        # commuting copies of B have twenty triples, B only one.
        path = tmp_path / "two_copies.json"
        path.write_text(json.dumps(presentation_to_json(_two_copies_of_b())))
        for argv, count in ((["overlaps", "--algebra", "B"], 1),
                            (["overlaps", "--file", str(path)], 20)):
            started = time.perf_counter()
            assert main(argv) == 0
            wall_ms = (time.perf_counter() - started) * 1000
            timings = [check["timing"] for check in
                       json.loads(capsys.readouterr().out)["checks"]]
            assert len(timings) == count
            assert sum(timings) <= wall_ms

    def test_report_schema(self, capsys):
        assert main(["verify-paper", "--n-min", "2", "--n-max", "2",
                     "--samples", "3"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert list(report) == ["version", "config", "checks", "verdict"]
        for check in report["checks"]:
            assert list(check) == ["name", "status", "details", "timing"]


def _two_copies_of_b() -> PBWPresentation:
    """B on e < f < h next to a copy on E < F < H that commutes with it."""
    one = Scalar.of(1, "t")
    pad = (0, 0, 0)
    rules = {(j, i): SwapRule(one, {}) for j in range(3, 6) for i in range(3)}
    for (j, i), rule in B().swap_rules.items():
        rules[(j, i)] = SwapRule(rule.coeff, {e + pad: c for e, c in rule.tail.items()})
        rules[(j + 3, i + 3)] = SwapRule(rule.coeff,
                                         {pad + e: c for e, c in rule.tail.items()})
    return PBWPresentation("B2", ("e", "f", "h", "E", "F", "H"), rules, parameter="t")


class TestModuleEntry:
    def test_python_dash_m_runs_the_cli(self):
        src = Path(__file__).resolve().parents[1] / "src"
        env = dict(os.environ, PYTHONPATH=str(src))
        done = subprocess.run([sys.executable, "-m", "sclim", "nf", "--algebra", "B", "f*e"],
                              capture_output=True, text=True, env=env, timeout=60)
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip() == "e*f + (-t+1)*h"
