#!/usr/bin/env python3
"""Benchmark for crosscap: verification sweeps, CSV export and single-knot queries.

    python3 benchmarks/run.py --workload sweep --seed 1 --seconds 20 --trace 0
    python3 benchmarks/run.py --all [--trace 1]

Run from the repository root; the package is imported from ./src. An
untraced run (--trace 0) reports the end-to-end metrics BENCHMARK.json
lists; a traced run (--trace 1) reports its per-layer metrics, including the
tracing overhead. Every output is checked: the reports and the CSV against
the digests in spec.json, every query against the plain-int oracle.

Times are reported at reference machine speed: a fixed piece of the
benchmark's own work is timed next to every measurement (see measure.Speed),
and each time is divided by how much slower than its reference that work
ran. The raw times and the factors go to the results file.

The last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics; a results file with the run environment goes to
.bench_results/.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import io
import itertools
import json
import math
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
import traceback
from array import array
from pathlib import Path

import measure
import oracle
from tracing import Tracer, installed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = ROOT / ".bench_results"
MODULES = ("continued_fractions", "torus_knots", "verify", "cli")

#: Fresh interpreters started to time the CLI's set-up; the median is reported.
SETUP_SHOTS = 11
#: Untraced passes repeat a sweep or an export at least this often.
MIN_REPS = 3
#: Knots sampled from a workload's inputs for the per-call timings.
SAMPLE = 400
#: Per-call timings repeat over the sample this often; the median is reported.
MICRO_REPEATS = 3
#: Queries whose oracle answers are computed together, between timed calls.
QUERY_BATCH = 1024
#: Latency slots allocated up front, so the footprint does not grow with speed.
QUERY_CAPACITY = 1 << 19
#: Calibration units timed between two sweeps or exports (one unit is ~15 ms).
REP_UNITS = 4
#: CLI call timed as set-up: import crosscap.cli, build the parser, answer N(8, 3).
SETUP_CODE = "import sys; from crosscap.cli import main; sys.exit(main(['cf', '8', '3', '--json']))"
#: The calibration unit: the oracle's crosscap number of every small knot.
CALIBRATION_PAIRS = [(p, q) for p in range(30, 50) for q in range(2, p) if math.gcd(p, q) == 1]


def calibration_unit() -> None:
    for p, q in CALIBRATION_PAIRS:
        oracle.crosscap(p, q)


def load_program():
    """Import the four crosscap modules from ./src, refusing any other copy."""
    src = ROOT / "src"
    if not (src / "crosscap" / "__init__.py").is_file():
        raise SystemExit(f"benchmark: no crosscap package under {src}")
    sys.path.insert(0, str(src))
    modules = {name: importlib.import_module(f"crosscap.{name}") for name in MODULES}
    for module in modules.values():
        if Path(module.__file__).resolve().parent != src / "crosscap":
            raise SystemExit(f"benchmark: imported {module.__file__}, not the copy under {src}")
    return modules


# --- operations -------------------------------------------------------------


class Rep:
    """One timed call of a workload's operation; `factor` is the machine's speed factor."""

    __slots__ = ("wall", "parent_cpu", "worker_cpu", "factor", "knots", "ok", "facts")

    def __init__(self, wall, parent_cpu, worker_cpu, factor, knots, ok, facts):
        self.wall, self.parent_cpu, self.worker_cpu = wall, parent_cpu, worker_cpu
        self.factor, self.knots, self.ok, self.facts = factor, knots, ok, facts

    @property
    def rate(self) -> float:
        """Knots per second at reference speed."""
        return self.knots * self.factor / self.wall


def sweep_operation(mods, pins, max_p, workers):
    config = mods["verify"].SweepConfig(max_p=max_p, workers=workers)

    def call(api):
        report = api["run_verification"](config)
        return report, api["serialize_report"](report)

    def check(output):
        report, text = output
        data = text.encode()
        ok = (
            hashlib.sha256(data).hexdigest() == pins["report_sha256"]
            and report.knots_checked == pins["knots_checked"]
            and not report.violations
            and not report.lemma_failures
        )
        return report.knots_checked, ok, {"report_bytes": len(data)}

    api = {name: getattr(mods["verify"], name) for name in ("run_verification", "serialize_report")}
    return api, call, check


def export_operation(mods, pins, max_p):
    path = RESULTS / f"export-{os.getpid()}.csv"
    argv = ["verify", "--max-p", str(max_p), "--csv", str(path)]

    def call(api):
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                status = api["main"](argv)
            return status, path.read_bytes()
        finally:
            path.unlink(missing_ok=True)

    def check(output):
        status, data = output
        rows = data.count(b"\n") - 1
        ok = (
            status == 0
            and hashlib.sha256(data).hexdigest() == pins["csv_sha256"]
            and rows == pins["csv_rows"]
        )
        return rows, ok, {"csv_rows": rows, "csv_bytes": len(data)}

    return {"main": mods["cli"].main}, call, check


def repeat(api, call, check, speed, seconds, min_reps):
    """Call the operation until `seconds` pass and `min_reps` calls are done.

    The speed factor of a call is the mean of the calibrations just before and
    just after it.
    """
    reps = []
    before = speed.factor(REP_UNITS)
    deadline = time.perf_counter() + seconds
    while len(reps) < min_reps or time.perf_counter() < deadline:
        cpu0 = measure.cpu_seconds(resource.RUSAGE_SELF)
        kids0 = measure.cpu_seconds(resource.RUSAGE_CHILDREN)
        start = time.perf_counter()
        try:
            output = call(api)
        except Exception:
            traceback.print_exc()
            output = None
        wall = time.perf_counter() - start
        cpu = measure.cpu_seconds(resource.RUSAGE_SELF) - cpu0
        kids = measure.cpu_seconds(resource.RUSAGE_CHILDREN) - kids0
        after = speed.factor(REP_UNITS)
        knots, ok, facts = check(output) if output is not None else (0, False, {})
        reps.append(Rep(wall, cpu, kids, (before + after) / 2, knots, ok, facts))
        before = after
    return reps


def query_pairs(seed, max_p):
    """Distinct coprime pairs p > q >= 2, p log-uniform in [3, max_p]."""
    rng = random.Random(seed)
    seen = measure.Distinct()
    lo, hi = math.log(3), math.log(max_p)
    while True:
        p = round(math.exp(rng.uniform(lo, hi)))
        q = rng.randrange(2, p)
        if math.gcd(p, q) == 1 and seen.add((p, q)):
            yield p, q


class QueryRun:
    """Latencies at reference speed (ns, in call order) and counts of one query loop."""

    def __init__(self, latencies, failed, raw_ns, factors):
        self.latencies, self.failed = latencies, failed
        self.raw_ns, self.factors = raw_ns, factors

    @property
    def rate(self) -> float:
        """Queries per second at reference speed: one client, so 1 / mean latency."""
        return len(self.latencies) / sum(self.latencies) * 1e9


def run_queries(api, pairs, speed, seconds):
    """Closed loop over `pairs` for `seconds`.

    Each query asks for the knot's invariant record and for the expansion of
    p/q with its two sums. A failed query is recorded with an unbounded
    latency. One calibration unit runs between batches.
    """
    invariants, normalize = api["invariants"], api["normalize"]
    make_rational, cf_expand = api["make_rational"], api["cf_expand"]
    skipped_sum, coefficient_sum = api["skipped_sum"], api["coefficient_sum"]
    clock = time.perf_counter_ns
    latencies = array("q", bytes(8 * QUERY_CAPACITY))
    n = failed = raw_ns = 0
    factors = []
    before = speed.factor()
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline and n + QUERY_BATCH <= QUERY_CAPACITY:
        batch = list(itertools.islice(pairs, QUERY_BATCH))
        wanted = [(oracle.invariants_record(p, q), *oracle.cf_answer(p, q)) for p, q in batch]
        first = n
        for (p, q), want in zip(batch, wanted):
            try:
                start = clock()
                record = invariants(normalize(p, q)).as_dict()
                cf = cf_expand(make_rational(p, q))
                total, plain = skipped_sum(cf), coefficient_sum(cf)
                elapsed = clock() - start
                ok = (record, list(cf), total, plain) == want
            except Exception:
                traceback.print_exc()
                ok = False
            if not ok:
                failed += 1
                elapsed = 1 << 62
            latencies[n] = elapsed
            n += 1
        after = speed.factor()
        factor = (before + after) / 2
        factors.append(factor)
        for j in range(first, n):
            raw_ns += latencies[j]
            latencies[j] = round(latencies[j] / factor)
        before = after
    del latencies[n:]  # in place: a copy would count toward peak_rss_mb
    return QueryRun(latencies, failed, raw_ns, factors)


# --- per-layer measurements -----------------------------------------------


def per_call_us(fn, args_list, speed):
    """Median over MICRO_REPEATS of the mean µs per call of `fn`, at reference speed."""
    means = []
    for _ in range(MICRO_REPEATS):
        factor = speed.factor()
        start = time.perf_counter()
        for args in args_list:
            fn(*args)
        means.append((time.perf_counter() - start) / len(args_list) * 1e6 / factor)
    return statistics.median(means)


def micro_metrics(mods, pairs, max_p, speed):
    """µs per call of each layer's public functions on the workload's own knots.

    Inputs are derived from the knots the way the pipeline derives them: the
    N(x, y) calls of Teragaito's rule, q/p for lemma 9, and p/q for lemma 2.
    A function a later version no longer has reads as absent (0).
    """
    cf, tk, vf = mods["continued_fractions"], mods["torus_knots"], mods["verify"]
    knots = [tk.TorusKnot(p, q) for p, q in pairs]
    n_args = [args for p, q in pairs for args in oracle.n_arguments(p, q)]

    def q_over_p():
        return [cf.cf_expand(cf.make_rational(q, p)) for p, q in pairs]

    table = {
        "continued_fractions.cf_expand_us": lambda: (
            cf.cf_expand,
            [(cf.make_rational(x, y),) for x, y in n_args + [(q, p) for p, q in pairs] + pairs],
        ),
        "continued_fractions.skipped_sum_us": lambda: (
            cf.skipped_sum, [(cf.cf_expand(cf.make_rational(x, y)),) for x, y in n_args]
        ),
        "continued_fractions.bredon_wood_N_us": lambda: (cf.bredon_wood_N, n_args),
        "continued_fractions.lemma9_expansions_us": lambda: (
            cf.lemma9_expansions, [(e,) for e in q_over_p()]
        ),
        "continued_fractions.cf_value_us": lambda: (
            cf.cf_value, [(e,) for c in q_over_p() for e in cf.lemma9_expansions(c)]
        ),
        "torus_knots.TorusKnot_us": lambda: (tk.TorusKnot, pairs),
        "torus_knots.crosscap_us": lambda: (tk.crosscap, [(k,) for k in knots]),
        "torus_knots.invariants_us": lambda: (tk.invariants, [(k,) for k in knots]),
        "torus_knots.bounds_for_us": lambda: (
            tk.bounds_for, [(tk.genus(k), tk.crossing_number(k)) for k in knots]
        ),
        "verify.check_knot_us": lambda: (vf.check_knot, [(k,) for k in knots]),
    }
    for name in getattr(vf, "CHECK_NAMES", ()):
        table[f"verify.check.{name}_us"] = lambda name=name: (
            vf.check_knot, [(k, (name,)) for k in knots]
        )
    out = {}
    for metric, build in table.items():
        try:
            fn, args_list = build()
        except AttributeError as exc:
            print(f"absent: {metric} ({exc})", file=sys.stderr)
            out[metric] = 0.0
            continue
        out[metric] = per_call_us(fn, args_list, speed)

    enumerate_coprime = getattr(vf, "enumerate_coprime", None)
    if max_p is None or enumerate_coprime is None:
        out["verify.enumerate_coprime_us_per_knot"] = 0.0
    else:
        count = sum(1 for _ in enumerate_coprime(max_p))
        out["verify.enumerate_coprime_us_per_knot"] = per_call_us(
            lambda: sum(1 for _ in enumerate_coprime(max_p)), [()], speed
        ) / count
    return out


def traced_pass(mods, plain, run):
    """Call `run(api)` with every name in tracing.CALLS and `plain` itself traced."""
    tracer = Tracer()
    api = {name: tracer.wrap("bench", fn) for name, fn in plain.items()}
    with installed(tracer, mods):
        result = run(api)
    return tracer, result


def span_metrics(tracer: Tracer, knots: int, factor: float) -> dict:
    """Per-knot counts and self times (at reference speed) from a traced pass."""
    callees = tracer.by_callee()

    def calls(callee):
        totals = callees.get(callee)
        return totals.calls if totals else 0

    out = {
        f"continued_fractions.{fn}_calls_per_knot": calls(f"continued_fractions.{fn}") / knots
        for fn in ("cf_expand", "make_rational", "cf_canonicalize")
    }
    expand = callees.get("continued_fractions.cf_expand")
    out["continued_fractions.coefficients_per_expand"] = (
        expand.items / expand.calls if expand else 0.0
    )
    for module in ("continued_fractions", "torus_knots", "verify"):
        out[f"{module}.self_us_per_knot"] = tracer.self_seconds(module) / factor / knots * 1e6
    candidates = tracer.totals.get(("torus_knots", "continued_fractions.bredon_wood_N"))
    out["torus_knots.N_candidates_per_knot"] = candidates.calls / knots if candidates else 0.0
    out["cli.check_knot_calls_per_knot"] = calls("verify.check_knot") / knots
    main = callees.get("cli.main")
    out["cli.self_s"] = tracer.self_seconds("cli") / factor / main.calls if main else 0.0
    serialize = callees.get("verify.serialize_report")
    out["verify.serialize_report_ms"] = (
        serialize.seconds / factor / serialize.calls * 1e3 if serialize else 0.0
    )
    return out


def cpu_metrics(reps, workers) -> dict:
    """Parent and worker CPU per call, and how much of the cores the call used."""
    splits = [measure.core_split(r.wall, workers, r.parent_cpu, r.worker_cpu) for r in reps]
    return {
        "verify.parent_cpu_s": statistics.median(r.parent_cpu / r.factor for r in reps),
        "verify.worker_cpu_s": statistics.median(r.worker_cpu / r.factor for r in reps),
        "verify.core_utilisation": statistics.median(u for u, _ in splits),
        "verify.idle_core_s": statistics.median(i / r.factor for (_, i), r in zip(splits, reps)),
    }


def line_counts() -> dict:
    out = {}
    for module in MODULES:
        with open(ROOT / "src" / "crosscap" / f"{module}.py", "rb") as handle:
            out[f"{module}.lines"] = sum(1 for _ in handle)
    return out


# --- workloads ---------------------------------------------------------------


def measure_setup(speed):
    """Median time of fresh interpreters running one CLI call, at reference speed.

    Returns (median seconds, calls made, calls failed).
    """
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    cmd = [sys.executable, "-c", SETUP_CODE]
    times, failed = [], 0
    for shot in range(SETUP_SHOTS + 1):
        factor = speed.factor()
        start = time.perf_counter()
        done = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True, text=True, timeout=60)
        elapsed = time.perf_counter() - start
        try:
            ok = done.returncode == 0 and json.loads(done.stdout)["n"] == "2"
        except (ValueError, KeyError, TypeError):
            ok = False
        if not ok:
            failed += 1
            print(f"setup call failed: {done.returncode} {done.stderr.strip()}", file=sys.stderr)
        if shot:  # the first shot warms the file cache and is not timed
            times.append(elapsed / factor)
    return statistics.median(times), SETUP_SHOTS + 1, failed


def run_queries_workload(mods, params, seed, seconds, trace, speed):
    plain = {
        fn: getattr(mods[module], fn)
        for module, fns in (
            ("torus_knots", ("invariants", "normalize")),
            ("continued_fractions", ("make_rational", "cf_expand", "skipped_sum", "coefficient_sum")),
        )
        for fn in fns
    }
    max_p = params["max_p"]
    pairs = query_pairs(seed, max_p)
    if not trace:
        run = run_queries(plain, pairs, speed, seconds)
        values = {"peak_rss_mb": measure.peak_rss_mb()}  # before sorting adds a list
        latencies = sorted(run.latencies)
        values["knots_per_s"] = run.rate
        values["latency_p50_us"] = measure.percentile(latencies, 50) / 1e3
        n = len(latencies)
        details = {
            "query_samples": n,
            "latency_p99_us": measure.percentile(latencies, 99) / 1e3,
            "raw_knots_per_s": n / run.raw_ns * 1e9,
            "speed_factor_median": statistics.median(run.factors),
        }
        return n, run.failed, values, details

    sample = list(itertools.islice(query_pairs(seed, max_p), SAMPLE))
    values = micro_metrics(mods, sample, None, speed)
    untraced = run_queries(plain, pairs, speed, seconds / 2)
    tracer, traced = traced_pass(mods, plain, lambda api: run_queries(api, pairs, speed, seconds / 2))
    n = len(traced.latencies)
    values.update(span_metrics(tracer, n, sum(traced.factors) / len(traced.factors)))
    values["trace.overhead_pct"] = (untraced.rate / traced.rate - 1) * 100
    attempted = len(untraced.latencies) + n
    return attempted, untraced.failed + traced.failed, values, {"query_samples": n}


def run_call_workload(mods, spec, params, seconds, trace, speed):
    """A workload whose operation is one call over the whole range: sweep or export."""
    max_p, workers = params["max_p"], params.get("workers", 1)
    pins = spec["pins"][str(max_p)]
    if params["kind"] == "sweep":
        plain, call, check = sweep_operation(mods, pins, max_p, workers)
    else:
        plain, call, check = export_operation(mods, pins, max_p)
    RESULTS.mkdir(exist_ok=True)

    if not trace:
        reps = repeat(plain, call, check, speed, seconds, MIN_REPS)
        values = {"peak_rss_mb": measure.peak_rss_mb()}
        values["knots_per_s"] = statistics.median(r.rate for r in reps)
        values["latency_p50_us"] = statistics.median(r.wall / r.factor for r in reps) * 1e6
        raw_rate = statistics.median(r.knots / r.wall for r in reps)
    else:
        knot_pairs = [(k.p, k.q) for k in mods["verify"].enumerate_coprime(max_p)]
        sample = knot_pairs[:: max(1, len(knot_pairs) // SAMPLE)]
        values = micro_metrics(mods, sample, max_p, speed)
        untraced = repeat(plain, call, check, speed, seconds / 2, MIN_REPS)
        tracer, traced = traced_pass(
            mods, plain, lambda api: repeat(api, call, check, speed, seconds / 2, 1)
        )
        knots = max(1, sum(r.knots for r in traced))
        factor = sum(r.factor * r.wall for r in traced) / sum(r.wall for r in traced)
        values.update(span_metrics(tracer, knots, factor))
        values.update(cpu_metrics(untraced, workers))
        untraced_rate = statistics.median(r.rate for r in untraced)
        values["trace.overhead_pct"] = (untraced_rate / statistics.median(r.rate for r in traced) - 1) * 100
        facts = traced[-1].facts
        values["verify.report_bytes"] = facts.get("report_bytes", 0)
        values["cli.csv_rows"] = facts.get("csv_rows", 0)
        values["cli.csv_bytes"] = facts.get("csv_bytes", 0)
        raw_rate = statistics.median(r.knots / r.wall for r in untraced)
        reps = untraced + traced
    details = {
        "walls_s": [r.wall for r in reps],
        "speed_factors": [r.factor for r in reps],
        "raw_knots_per_s": raw_rate,
    }
    return len(reps), sum(not r.ok for r in reps), values, details


def run_workload(mods, spec, name, seed, seconds, trace):
    """Run one workload; returns (attempted, failed, metric values, details)."""
    params = spec["workloads"][name]
    speed = measure.Speed(calibration_unit, spec["calibration"]["unit_reference_s"])
    attempted = failed = 0
    if not trace:
        setup_s, attempted, failed = measure_setup(speed)
    if params["kind"] == "queries":
        n, bad, values, details = run_queries_workload(mods, params, seed, seconds, trace, speed)
    else:
        n, bad, values, details = run_call_workload(mods, spec, params, seconds, trace, speed)
    if trace:
        values.update(line_counts())
        # Layers this workload never reaches read as absent: 0.
        for metric in (
            "verify.parent_cpu_s", "verify.worker_cpu_s", "verify.core_utilisation",
            "verify.idle_core_s", "verify.report_bytes", "cli.csv_rows", "cli.csv_bytes",
        ):
            values.setdefault(metric, 0)
    else:
        values["setup_s"] = setup_s
    details["params"] = params
    return attempted + n, failed + bad, values, details


# --- reporting -------------------------------------------------------------


def environment() -> dict:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "crosscap").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        try:
            done = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
            )
            commit = done.stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            commit = None
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg": os.getloadavg(),
        "git_commit": commit,
        "source_sha256": digest.hexdigest(),
    }


def run_all(args, names) -> int:
    """Run each workload in its own fresh interpreter and merge the results.

    A fresh process per workload keeps peak_rss_mb a measure of that workload alone.
    """
    attempted = failed = 0
    correct = True
    metrics = {}
    for name in names:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--trace", str(args.trace)]
        if args.seconds is not None:
            cmd += ["--seconds", str(args.seconds)]
        done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=600)
        lines = done.stdout.splitlines()
        if done.returncode != 0 or not lines:
            raise SystemExit(f"benchmark: workload {name} exited with {done.returncode}")
        print("\n".join(lines[:-1]), flush=True)
        result = json.loads(lines[-1])
        correct = correct and result["correct"]
        attempted += result["attempted"]
        failed += result["failed"]
        metrics.update({f"{name}.{metric}": v for metric, v in result["metrics"].items()})
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    target = parser.add_mutually_exclusive_group(required=True)
    target.add_argument("--workload", help="one workload named in BENCHMARK.json")
    target.add_argument("--all", action="store_true", help="run every workload, each in its own process")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, help="measuring time per workload (default: run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    definition = json.loads((ROOT / "BENCHMARK.json").read_text())
    spec = json.loads((HERE / "spec.json").read_text())
    names = [w["name"] for w in definition["workloads"]]
    if args.all:
        return run_all(args, names)
    name = args.workload
    if name not in names:
        parser.error(f"unknown workload {name!r}; choose from {', '.join(names)}")
    mods = load_program()
    seconds = args.seconds if args.seconds is not None else definition["run_seconds"]
    declared = definition["per_layer" if args.trace else "end_to_end"]
    env = environment()

    attempted, failed, values, details = run_workload(mods, spec, name, args.seed, seconds, args.trace)
    missing = [m["name"] for m in declared if m["name"] not in values]
    if missing:
        raise SystemExit(f"benchmark: {name} measured no value for {', '.join(missing)}")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}
    for metric, entry in metrics.items():
        print(f"{name:9} {metric:50} {entry['value']:>14.6g} {entry['unit']}")
    print(f"{name:9} {'failed_ratio':50} {failed / attempted:>14.6g} ratio ({failed} of {attempted})")
    if "latency_p99_us" in details:
        print(f"{name:9} {'latency_p99_us (not bounded)':50} {details['latency_p99_us']:>14.6g} us")
    if "query_samples" in details:
        print(f"{name:9} {'latency samples':50} {details['query_samples']:>14} queries")

    RESULTS.mkdir(exist_ok=True)
    record = {
        "workload": name, "seed": args.seed, "seconds": seconds, "trace": args.trace,
        "environment": env, "attempted": attempted, "failed": failed,
        "values": values, "details": details,
    }
    out_path = RESULTS / f"{name}-seed{args.seed}-trace{args.trace}.json"
    out_path.write_text(json.dumps(record, indent=2) + "\n")
    print(f"results: {out_path.relative_to(ROOT)}")
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
