"""Runs the sclim benchmark; see perfbench/README.md.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload W --seed N --profile

Run from the root of a checkout; the program is imported from ./src.  The
last line of standard output is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`.  The exit code is 0 when every answer
passed its check, 1 when one did not, and 2 when the program could not run.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import oracle
import workloads
from speed import SpeedClock, WallClock

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"

# Set-up is timed in groups of fresh workers, one group before the first pass
# and one after each pass up to a total, so that one run's median spans
# several of the core's speed states.
SETUP_GROUP = 3
SETUP_PROBES = 18
# Every process still running this long after the start is killed, so that a
# run ends within the 180 s its caller allows.
HARD_LIMIT_S = 165.0
CHECK_RESERVE_S = 30.0
TAIL_PERCENTILES = (99, 90, 75)
TAIL_BEYOND = 10

ENV = dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED="0")
WORKER = [sys.executable, "-s", str(HERE / "worker.py")]


class Unusable(Exception):
    """The program cannot be started at all; no result is printed."""


@dataclass
class Done:
    code: int
    stdout: str
    stderr: str
    started: float
    ended: float
    peak_rss_mb: float


def run_process(cmd: list[str], deadline: float, request: dict | None = None) -> Done:
    """Run `cmd` in the checkout and wait for it; kill it at `deadline`."""
    started = time.perf_counter()
    proc = subprocess.Popen(
        cmd, cwd=ROOT, env=ENV, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        stdin=subprocess.DEVNULL if request is None else subprocess.PIPE)
    killer = threading.Timer(max(0.0, deadline - time.monotonic()), proc.kill)
    killer.start()
    errors: list[bytes] = []
    reader = threading.Thread(target=lambda: errors.append(proc.stderr.read()))
    reader.start()
    reaped = False
    try:
        if request is not None:
            try:
                proc.stdin.write(json.dumps(request).encode())
                proc.stdin.close()
            except BrokenPipeError:
                pass
        out = proc.stdout.read()
        reader.join()
        # wait4 rather than Popen.wait: it also gives this child's peak RSS.
        _, status, usage = os.wait4(proc.pid, 0)
        reaped = True
        ended = time.perf_counter()
    finally:
        killer.cancel()
        if not reaped:
            proc.kill()
            proc.wait()
        reader.join()
        proc.stdout.close()
        proc.stderr.close()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Done(proc.returncode, out.decode(), b"".join(errors).decode(errors="replace"),
                started, ended, usage.ru_maxrss / 1024)


# -- one pass over a workload's jobs ---------------------------------------------------


@dataclass
class Op:
    """One job (a CLI process) or one library op, as the checks see it.

    `latency_s` is in the clock's seconds, `raw_s` in wall seconds.
    """

    latency_s: float = 0.0
    raw_s: float = 0.0
    answer: object = None
    error: str | None = None


@dataclass
class Pass:
    wall_s: float = 0.0
    raw_wall_s: float = 0.0
    peak_rss_mb: float = 0.0
    ops: list[Op] = field(default_factory=list)
    layers: list[dict] = field(default_factory=list)
    version: str = ""


def _cli_answer(workload: str, code: int, stdout: str) -> Op:
    """The part of a CLI job's output that its check reads."""
    if code != 0:
        return Op(error=f"exit code {code}")
    if workload == "nf-power":
        return Op(answer=stdout.strip())
    try:
        report = json.loads(stdout)
    except ValueError:
        return Op(error="report is not JSON")
    for check in report.get("checks", []):
        check.pop("timing", None)  # wall-clock, and cumulative per n: never read
    return Op(answer=report)


def _timed(op: Op, clock, t0: float, t1: float) -> Op:
    op.latency_s, op.raw_s = clock.seconds(t0, t1), t1 - t0
    return op


def cli_pass(workload: str, jobs: list[list[str]], deadline: float, clock) -> Pass:
    """Each job as its own `python -m sclim.cli` process, one after another."""
    result = Pass()
    for argv in jobs:
        done = run_process([sys.executable, "-s", "-m", "sclim.cli", *argv], deadline)
        op = _timed(_cli_answer(workload, done.code, done.stdout), clock,
                    done.started, done.ended)
        if op.error and done.stderr:
            op.error += ": " + done.stderr.strip().splitlines()[-1]
        result.ops.append(op)
        result.peak_rss_mb = max(result.peak_rss_mb, done.peak_rss_mb)
    result.wall_s = sum(op.latency_s for op in result.ops)
    result.raw_wall_s = sum(op.raw_s for op in result.ops)
    return result


def worker_pass(workload: str, requests: list[dict], deadline: float, clock) -> Pass:
    """Each request in a fresh worker.py process, one after another."""
    result = Pass()
    for request in requests:
        done = run_process(WORKER, deadline, request)
        result.peak_rss_mb = max(result.peak_rss_mb, done.peak_rss_mb)
        try:
            reply = json.loads(done.stdout)
        except ValueError:
            tail = done.stderr.strip().splitlines()[-1:] or [""]
            reply = {"started": done.started, "wall_s": done.ended - done.started,
                     "error": f"worker exit code {done.code}: {tail[0]}"}
        if "layers" in reply:
            result.layers.append(reply["layers"])
        result.version = reply.get("version", result.version)
        started, ended = reply["started"], reply["started"] + reply["wall_s"]
        result.wall_s += clock.seconds(started, ended)
        result.raw_wall_s += ended - started
        if "cli" in request:
            op = _cli_answer(workload, reply.get("exit", -1), reply.get("stdout", ""))
            if op.error and reply.get("error"):
                op.error += ": " + reply["error"].splitlines()[-1]
            result.ops.append(_timed(op, clock, started, ended))
        elif "error" in reply:
            result.ops.extend(Op(error=reply["error"]) for _ in request["ops"])
        else:
            errors = {e["index"]: e["error"] for e in reply["errors"]}
            result.ops.extend(
                _timed(Op(answer=answer, error=errors.get(k)), clock, t0, t0 + lat)
                for k, (t0, lat, answer)
                in enumerate(zip(reply["starts"], reply["latencies"], reply["answers"])))
    return result


def requests_for(workload: str, seed: int) -> list[dict]:
    if workload == "library-mix":
        return [{"ops": workloads.mix_ops(seed)}]
    return [{"cli": argv} for argv in workloads.cli_jobs(workload, seed)]


# -- answer checks ------------------------------------------------------------------------


def checks_for(workload: str, seed: int, version: str) -> list:
    """One function per op of a pass, taking that op's answer."""
    if workload == "verify-paper":
        return [lambda answer, argv=argv: oracle.check_verify_report(
                    answer, workloads.VERIFY_N_MAX,
                    int(argv[argv.index("--samples") + 1]), version)
                for argv in workloads.verify_jobs(seed)]
    if workload == "nf-power":
        return [lambda answer, expr=workloads.nf_expression(c, k):
                oracle.check_nf_power(expr, answer) for c, k in workloads.nf_terms(seed)]
    return [lambda answer, op=op: oracle.check_mix_op(op, answer)
            for op in workloads.mix_ops(seed)]


def check_passes(workload: str, seed: int, passes: list[Pass], version: str) -> list[str]:
    """Check every answer of the first pass; later passes must repeat it.

    Returns one line per failed op, naming the pass and op index.
    """
    failures = []
    reference = passes[0].ops
    verdicts = []
    for k, (op, check) in enumerate(zip(reference, checks_for(workload, seed, version))):
        reason = op.error
        if reason is None:
            try:
                reason = check(op.answer)
            except Exception as exc:  # a malformed answer fails its check
                reason = f"check raised {exc!r}"
        verdicts.append(reason)
        if reason:
            failures.append(f"pass 0 op {k}: {reason}")
    for p, later in enumerate(passes[1:], start=1):
        for k, (op, ref) in enumerate(zip(later.ops, reference)):
            reason = op.error or verdicts[k]
            if reason is None and op.answer != ref.answer:
                reason = "answer differs from pass 0"
            if reason:
                failures.append(f"pass {p} op {k}: {reason}")
    return failures


# -- metrics ------------------------------------------------------------------------------


def nearest_rank(values: list[float], pct: float) -> float:
    ordered = sorted(values)
    return ordered[max(0, math.ceil(pct / 100 * len(ordered)) - 1)]


def tail_latency(values: list[float]) -> tuple[int, float]:
    """The highest of p99, p90, p75 with at least ten values above it.

    With fewer than twenty values no percentile above the median qualifies;
    the median is returned and the caller says so.
    """
    n = len(values)
    for pct in TAIL_PERCENTILES:
        if n - math.ceil(pct / 100 * n) >= TAIL_BEYOND:
            return pct, nearest_rank(values, pct)
    return 50, statistics.median(values)


def end_to_end(setup: list[float], passes: list[Pass]) -> tuple[dict, dict]:
    """End-to-end metrics of one run, with a note on each one's samples."""
    latencies = [op.latency_s for p in passes for op in p.ops]
    busy = sum(p.wall_s for p in passes)
    pct, tail = tail_latency(latencies)
    values = {
        "setup_s": statistics.median(setup),
        "wall_s": statistics.median(p.wall_s for p in passes),
        "ops_per_s": len(latencies) / busy,
        "op_p50_ms": statistics.median(latencies) * 1000,
        "op_p99_ms": tail * 1000,
        "peak_rss_mb": statistics.median(p.peak_rss_mb for p in passes),
    }
    notes = {
        "setup_s": f"median of {len(setup)} fresh workers",
        "wall_s": f"median of {len(passes)} passes over the job list",
        "ops_per_s": f"{len(latencies)} ops in {busy:.3f} s of pass time",
        "op_p50_ms": f"median of {len(latencies)} ops",
        "op_p99_ms": f"p{pct} of {len(latencies)} ops"
                     + ("" if pct > 50 else " (too few ops for a tail; median shown)"),
        "peak_rss_mb": f"median over {len(passes)} passes of the largest worker",
    }
    raw = statistics.median(p.raw_wall_s for p in passes)
    notes["wall_s"] += f" ({raw:.3f} s of wall-clock time)"
    return values, notes


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(layers: list[dict]) -> dict:
    """Per-layer metrics of one traced pass, summed over its workers."""
    spans: dict[str, dict] = {}
    counts: dict[str, int] = {}
    maxima: dict[str, int] = {}
    for layer in layers:
        for name, s in layer["spans"].items():
            agg = spans.setdefault(name, {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
            for key in agg:
                agg[key] += s[key]
        for key, value in layer["counts"].items():
            counts[key] = counts.get(key, 0) + value
        for key, value in layer["maxima"].items():
            maxima[key] = max(maxima.get(key, 0), value)
    out = {}
    for name, s in spans.items():
        for key, value in s.items():
            out[f"{name}.{key}"] = value
    out["arith.gcd.useful_ratio"] = _ratio(counts.get("arith.gcd.useful", 0),
                                           spans["arith.gcd"]["calls"])
    out["arith.coeff_bits.max"] = maxima.get("arith.coeff_bits.max", 0)
    out["pbw.multiply.pairs"] = counts.get("pbw.multiply.pairs", 0)
    out["pbw.multiply.pair_reuse_ratio"] = _ratio(counts.get("pbw.multiply.pairs_reused", 0),
                                                  out["pbw.multiply.pairs"])
    out["pbw.multiply.out_terms"] = counts.get("pbw.multiply.out_terms", 0)
    out["ideals.groebner.peak_basis"] = maxima.get("ideals.groebner.peak_basis", 0)
    out["ideals.reduce_poly.zero_ratio"] = _ratio(counts.get("ideals.reduce_poly.zero", 0),
                                                  spans["ideals.reduce_poly"]["calls"])
    out["ideals.poisson_closure.groebner_calls"] = counts.get(
        "ideals.poisson_closure.groebner_calls", 0)
    return out


def is_count(name: str) -> bool:
    return not name.endswith("_s") and name != "trace.overhead_ratio"


# -- environment and output ---------------------------------------------------------------


def git_commit() -> str | None:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(args, version: str) -> dict:
    return {"python": platform.python_version(), "nproc": args.nproc,
            "sclim_version": version, "commit": git_commit(), "seed": args.seed,
            "loadavg": args.loadavg}


def spec() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def finish(args, env: dict, attempted: int, failures: list[str], metrics: dict,
           units: dict, details: dict) -> int:
    """Print the summary and the result line; keep the whole record on disk."""
    RESULTS.mkdir(exist_ok=True)
    record = {"env": env, "workload": args.workload, "trace": args.trace,
              "attempted": attempted, "failures": failures, "metrics": metrics, **details}
    tag = f"{args.workload}-seed{args.seed}-{'trace' if args.trace else 'run'}"
    with open(RESULTS / f"{tag}.json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    print("env " + json.dumps(env))
    for line in failures[:20]:
        print("FAILED " + line)
    failed = len({line.split(":", 1)[0] for line in failures})
    print(f"failed_ratio {_ratio(failed, attempted):12.4f} 1    {failed} of {attempted} ops")
    print(json.dumps({"correct": not failures, "attempted": attempted, "failed": failed,
                      "metrics": {name: {"value": metrics[name], "unit": units[name]}
                                  for name in units}}))
    return 0 if not failures else 1


def probe_setup(workload: str, deadline: float) -> list[Done]:
    """Time fresh workers from start to ready: import plus built-in presentations."""
    module = "sclim.exprs" if workload == "library-mix" else "sclim.cli"
    code = "".join([f"import json, sclim, {module}\nfrom sclim import pbw, poisson\n",
                    *(f"pbw.{name}()\n" for name in workloads.SETUP_PRESENTATIONS[workload]),
                    "poisson.semiclassical_limit(pbw.B())\n",
                    "print(json.dumps([sclim.__version__, sclim.__file__]))\n"])
    probes = [run_process([sys.executable, "-s", "-c", code], deadline)
              for _ in range(SETUP_GROUP)]
    for probe in probes:
        if probe.code != 0:
            raise Unusable(f"setup failed: {probe.stderr.strip()[-500:]}")
        path = json.loads(probe.stdout)[1]
        if not Path(path).resolve().is_relative_to(SRC):
            raise Unusable(f"imported sclim from {path}, not from {SRC}")
    return probes


def run_measured(args, deadline: float) -> int:
    jobs = requests_for(args.workload, args.seed)
    passes: list[Pass] = []
    with SpeedClock() as clock:
        probes = probe_setup(args.workload, deadline)
        # Leave time for the answer checks before the hard limit.
        window_end = min(time.monotonic() + args.seconds, deadline - CHECK_RESERVE_S)
        # Closed loop, one client: whole passes back to back while the next
        # one is expected to end inside the window.  At least one pass runs.
        while True:
            if args.workload == "library-mix":
                passes.append(worker_pass(args.workload, jobs, deadline, clock))
            else:
                passes.append(cli_pass(args.workload, [j["cli"] for j in jobs],
                                       deadline, clock))
            if len(probes) < SETUP_PROBES:
                probes += probe_setup(args.workload, deadline)
            expected = statistics.median(p.raw_wall_s for p in passes)
            if time.monotonic() + expected > window_end:
                break
        setup = [clock.seconds(p.started, p.ended) for p in probes]
    version = json.loads(probes[0].stdout)[0]
    env = environment(args, version)
    failures = check_passes(args.workload, args.seed, passes, version)
    values, notes = end_to_end(setup, passes)
    units = {m["name"]: m["unit"] for m in spec()["end_to_end"]}
    for name, value in values.items():
        print(f"{name:12s} {value:12.4f} {units[name]:4s} {notes[name]}")
    details = {"notes": notes, "cpu": clock.cpu,
               "setup_wall_s": [p.ended - p.started for p in probes],
               "passes": [{"ref_s": [op.latency_s for op in p.ops],
                           "wall_s": [op.raw_s for op in p.ops]} for p in passes]}
    attempted = sum(len(p.ops) for p in passes)
    return finish(args, env, attempted, failures, values, units, details)


def run_traced(args, deadline: float) -> int:
    """Untraced, traced and traced again, each in fresh in-process workers."""
    requests = requests_for(args.workload, args.seed)
    RESULTS.mkdir(exist_ok=True)
    spans = str(RESULTS / f"{args.workload}-seed{args.seed}-spans")
    # Reference-speed time for the overhead ratio: the two runs it compares
    # may meet different speeds of the core.
    with SpeedClock() as clock:
        plain = worker_pass(args.workload, requests, deadline, clock)
        traced = worker_pass(args.workload, [dict(r, trace=True, spans=f"{spans}{k}.json")
                                             for k, r in enumerate(requests)], deadline, clock)
        again = worker_pass(args.workload, [dict(r, trace=True) for r in requests],
                            deadline, clock)
    version = plain.version
    failures = check_passes(args.workload, args.seed, [plain, traced, again], version)
    if len(traced.layers) != len(requests) or len(again.layers) != len(requests):
        failures.append("trace: a traced worker did not report its layers")
        metrics = {}
    else:
        metrics = layer_metrics(traced.layers)
        repeat = layer_metrics(again.layers)
        for name in sorted(metrics):
            if is_count(name) and metrics[name] != repeat[name]:
                failures.append(f"trace: count {name} is {metrics[name]} then {repeat[name]}")
    metrics["trace.overhead_ratio"] = _ratio(traced.wall_s, plain.wall_s)
    checks = [layer["verify_checks"] for layer in traced.layers if layer["verify_checks"]]
    for k, per_n in enumerate(checks[0] if checks else [], start=2):
        parts = ", ".join(f"{name} {sec:.3f}" for name, sec in per_n["checks"].items())
        print(f"n={k}: {per_n['total_s']:.3f} s ({parts})")
    for name in sorted(metrics):
        print(f"{name:48s} {metrics[name]}")
    units = {m["name"]: m["unit"] for m in spec()["per_layer"]}
    missing = [name for name in units if name not in metrics]
    if missing:
        failures.append(f"trace: no value for {missing}")
        for name in missing:
            metrics[name] = 0
    details = {"untraced_wall_s": plain.wall_s, "traced_wall_s": traced.wall_s,
               "verify_checks": checks}
    attempted = sum(len(p.ops) for p in (plain, traced, again))
    return finish(args, environment(args, version), attempted, failures,
                  metrics, units, details)


def run_profiled(args, deadline: float) -> int:
    """One pass with each worker under cProfile; nothing else is measured."""
    RESULTS.mkdir(exist_ok=True)
    paths = []
    requests = []
    for k, request in enumerate(requests_for(args.workload, args.seed)):
        paths.append(RESULTS / f"{args.workload}-seed{args.seed}-job{k}.prof")
        requests.append(dict(request, profile=str(paths[-1])))
    result = worker_pass(args.workload, requests, deadline, WallClock)
    for path in paths:
        print(f"profile written: {path}  (read it with: python3 -m pstats {path})")
    return 0 if all(op.error is None for op in result.ops) else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--profile", action="store_true",
                        help="write a cProfile dump of each worker to perfbench/results")
    args = parser.parse_args(argv)
    args.nproc = len(os.sched_getaffinity(0))
    args.loadavg = list(os.getloadavg())
    if not (SRC / "sclim" / "__init__.py").is_file():
        print(f"error: no sclim sources under {SRC}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + HARD_LIMIT_S
    try:
        if args.profile:
            return run_profiled(args, deadline)
        if args.trace:
            return run_traced(args, deadline)
        return run_measured(args, deadline)
    except Unusable as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
