#!/usr/bin/env python3
"""Benchmark of quartzeq's certified answers: one workload, one seed.

    python3 benchmarks/run.py --workload certify --seed 1 --seconds 40 --trace 0

The workload's items run in one process and one thread as a closed loop
with one client: it waits for each answer before asking the next.  The
loop makes repeated passes over the same seeded items for --seconds (at
least three passes), and every timing is the 90th percentile for one item
across passes, so neither a stall of the host nor a fast spell that holds
most of an item's samples moves it.  The cold starts behind setup_s
are spread evenly over the run.  A pure-Python reference loop is timed between passes
(host.ref_ms), so that drift of the host can be told apart from a change
in the program.  After the timed phase every answer is checked against
reference.py.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  --trace 0 gives the end-to-end
metrics; --trace 1 is a separate traced run that gives the per-layer
metrics.  Each run also writes a full record (environment, validation by
outcome, per-item times) to .bench_out/ at the repository root, and a
traced run writes its spans there.  See benchmarks/README.md.
"""

import os

# One thread for every numeric library, here and in the cold starts.
THREAD_ENV = {var: "1" for var in (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")}
os.environ.update(THREAD_ENV)

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from collections import Counter  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

MIN_PASSES = 3  # untraced; a traced run makes at least two of each kind
SETUP_STARTS = 5
CLI_REPS = 3
D_VALUES_REPS = 31
P90_MIN_ITEMS = 100  # so that at least ten items lie beyond the 90th percentile

# The end-to-end metrics every untraced run reports (BENCHMARK.json lists
# the same), and the one reported only by workloads with P90_MIN_ITEMS items.
END_TO_END_UNITS = {
    "answers_per_s": "1/s", "answer_p50_ms": "ms", "answered_frac": "ratio",
    "peak_rss_mb": "MB", "setup_s": "s",
}
P90 = ("answer_p90_ms", "ms")

# Cold start: a fresh interpreter imports quartzeq and draws the inputs.
_SETUP = ("import sys; sys.path[:0] = sys.argv[1:3]; import workloads; "
          "workloads.generate(sys.argv[3], int(sys.argv[4]), sys.argv[5])")


def host_ref_ns() -> int:
    """A fixed pure-Python loop that runs no quartzeq or numpy code.

    Timed between passes: if it moves between two runs, the host moved.
    """
    t0 = time.perf_counter_ns()
    acc = 0
    for i in range(20000):
        acc += (i * 7) % 13
    return time.perf_counter_ns() - t0


def subprocess_seconds(argv: list[str]) -> float:
    """Wall time of one child process, started and waited for here."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    t0 = time.perf_counter()
    proc = subprocess.run(argv, cwd=ROOT, env=env, stdout=subprocess.DEVNULL,
                          stderr=subprocess.PIPE, timeout=120, check=False)
    elapsed = time.perf_counter() - t0
    if proc.returncode != 0:
        raise RuntimeError(f"{argv[1:4]} exited with {proc.returncode}: "
                           f"{proc.stderr.decode(errors='replace')[-500:]}")
    return elapsed


def environment() -> dict:
    import numpy
    import scipy

    rev = None
    if (ROOT / ".git").exists():
        try:
            rev = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                                 capture_output=True, timeout=30).stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            rev = None
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode())
        digest.update(path.read_bytes())
    return {
        "git_rev": rev, "src_sha256": digest.hexdigest()[:16],
        "nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
        "loadavg": [round(v, 2) for v in os.getloadavg()],
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "machine": platform.machine(),
    }


# --- the closed loop --------------------------------------------------------

def plain_call(item) -> tuple[int, object]:
    t0 = time.perf_counter_ns()
    try:
        result = item.call()
    except Exception as exc:  # recorded as the item's answer and judged later
        result = exc
    return time.perf_counter_ns() - t0, result


def record(item, result):
    """What validation needs from a result, taken outside the timed call."""
    import reference

    if isinstance(result, Exception):
        return result
    try:
        return reference.answer_record(item, result)
    except Exception as exc:  # an answer that cannot be read is a failure
        return exc


def closed_loop(items, seconds: float, host: list[int], traced_call=None,
                between=lambda elapsed: None):
    """Passes over ``items`` for ``seconds`` of wall time.

    Returns (plain times, traced times, answers); times are per item, one
    sample per pass.  Once the minimum number of passes is made, no pass
    starts that the last pass's duration says would end past ``seconds``
    after the loop began; what runs between passes counts too.  With
    ``traced_call`` (a function taking an item and returning its traced
    duration and result), every other pass is traced.  ``between`` runs
    after each pass and receives the seconds elapsed since the loop began.
    """
    plain = [[] for _ in items]
    traced = [[] for _ in items]
    answers = [None] * len(items)
    t_start = time.perf_counter()
    n_plain = n_traced = 0
    while True:
        tracing = traced_call is not None and n_plain > n_traced
        t_pass = time.perf_counter()
        for i, item in enumerate(items):
            if tracing:
                elapsed, result = traced_call(item)
                traced[i].append(elapsed)
            else:
                elapsed, result = plain_call(item)
                plain[i].append(elapsed)
            if answers[i] is None:
                answers[i] = record(item, result)
        if tracing:
            n_traced += 1
        else:
            n_plain += 1
        pass_s = time.perf_counter() - t_pass
        host.extend(host_ref_ns() for _ in range(5))
        between(time.perf_counter() - t_start)
        enough = (n_plain >= MIN_PASSES if traced_call is None
                  else min(n_plain, n_traced) >= 2)
        if enough and time.perf_counter() - t_start + pass_s > seconds:
            return plain, traced, answers


# --- validation --------------------------------------------------------------

def validate(items, answers) -> list[dict]:
    import reference

    rows = []
    for item, ans in zip(items, answers):
        if isinstance(ans, Exception):
            error, ok = type(ans).__name__, False
            ans = None
        else:
            error = None
            ok = reference.judge(item, ans, reference.expected(item))
        known = None if ok else reference.known_defect(item, error, ans)
        rows.append({"ok": ok, "error": error, "known": known})
    return rows


def outcome_of(row: dict) -> str:
    if row["ok"]:
        return "ok"
    return row["error"] or "wrong"


def item_class(item) -> str:
    s = item.spec
    return "/".join(str(p) for p in (item.kind, s.get("family"), s.get("regime")) if p)


# --- metrics -------------------------------------------------------------------

def item_time(samples: list[int]) -> float:
    """An item's time: the 90th percentile of its samples across passes.

    A shared host can alternate, over seconds to minutes, between a fast
    state and one about 1.6 times slower, and the share of a run spent fast
    varies from run to run.  An item's median lands in whichever state held
    most of its passes and jumps with that share; its 90th percentile stays
    in the slower state unless nine tenths of the run were fast, and a stall
    moves it only when it hits about a tenth of the passes.
    """
    return percentile(samples, 90)


def percentile(values, q: float) -> float:
    import numpy

    return float(numpy.percentile(values, q))


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(items, plain, rows, setup, rss_mb) -> tuple[dict, dict]:
    """(the end-to-end metrics, answer_p90_ms where the workload reports it)."""
    times = [item_time(s) for s in plain]
    answered = sum(r["ok"] for r in rows)
    values = {
        "answers_per_s": answered / (sum(times) / 1e9),
        "answer_p50_ms": percentile(times, 50) / 1e6,
        "answered_frac": answered / len(items),
        "peak_rss_mb": rss_mb,
        "setup_s": statistics.median(setup),
    }
    extra = {}
    if len(items) >= P90_MIN_ITEMS:
        extra[P90[0]] = metric(percentile(times, 90) / 1e6, P90[1])
    return {k: metric(v, END_TO_END_UNITS[k]) for k, v in values.items()}, extra


def per_layer(tracer, items, answers, rows, own, plain, traced, host, extra) -> dict:
    """Per-layer metrics from the traced run's spans and answers."""
    def p50(name, unit_ns, keep=lambda item: True):
        groups = tracer.durations(name)
        per_item = [item_time(groups[it.idx]) for it in items
                    if it.idx in groups and keep(it)]
        return statistics.median(per_item) / unit_ns

    def answer_sum(kind, key):
        return sum(a[key] for it, a in zip(items, answers)
                   if it.kind == kind and isinstance(a, dict))

    def errors(kind, name):
        return sum(1 for it, r in zip(items, rows) if it.kind == kind and r["error"] == name)

    def is_threshold(item):
        return item.kind == "verdict" and item.spec["regime"] != "AlwaysExists"

    def is_stiff(item):
        return item.spec.get("stiff", False)

    nocheck = tracer.durations("series.F_equilibrium.nocheck")
    nocheck_ns = sum(item_time(v) for v in nocheck.values())
    terms = answer_sum("F", "terms")
    relax = [a for it, a in zip(items, answers) if it.kind == "relax"]
    integrate_ns = sum(item_time(v) for v in
                       tracer.durations("dynamics.integrate").values())
    steps = answer_sum("relax", "steps")
    threshold = [it for it in items if is_threshold(it)]
    seen: set = set()
    repeats = 0
    for it in threshold:
        repeats += it.pool in seen
        seen.add(it.pool)
    own_plain = sum(item_time(plain[i]) for i in own)
    own_traced = sum(item_time(traced[i]) for i in own)
    values = {
        "series.F_us": (p50("series.F_equilibrium", 1e3), "us"),
        "series.F_nocheck_us": (p50("series.F_equilibrium.nocheck", 1e3), "us"),
        "series.terms": (terms, "count"),
        "series.ns_per_term": (nocheck_ns / terms, "ns"),
        "series.convergence_errors": (errors("F", "ConvergenceError"), "count"),
        "series.consistency_errors": (errors("F", "ConsistencyError"), "count"),
        "coefficients.d_values_us": (extra["d_values_us"], "us"),
        "asymptotics.expansion_ms": (p50("asymptotics.K_expansion_refined", 1e6), "ms"),
        "asymptotics.direct_us": (p50("asymptotics.K_direct", 1e3), "us"),
        "powerlaw.verdict_ms": (p50("powerlaw.existence_verdict", 1e6, is_threshold), "ms"),
        "powerlaw.F_evals": (extra["F_evals"], "count"),
        "powerlaw.wrong_verdicts": (sum(1 for it, r in zip(items, rows)
                                        if it.kind == "verdict" and not r["ok"]), "count"),
        "powerlaw.repeat_share": (repeats / len(threshold), "ratio"),
        "piecewise.roots_us": (p50("piecewise.solve_roots", 1e3), "us"),
        "dynamics.stiff_ms": (p50("dynamics.integrate", 1e6, is_stiff), "ms"),
        "dynamics.nonstiff_ms": (p50("dynamics.integrate", 1e6,
                                     lambda it: not is_stiff(it)), "ms"),
        "dynamics.steps": (steps, "count"),
        "dynamics.us_per_step": (integrate_ns / 1e3 / steps, "us"),
        "dynamics.converged_frac": (sum(1 for a in relax if isinstance(a, dict)
                                        and a["converged"]) / len(relax), "ratio"),
        "cli.import_s": (extra["cli.import_s"], "s"),
        "cli.classify_cold_s": (extra["cli.classify_cold_s"], "s"),
        "cli.simulate_cold_s": (extra["cli.simulate_cold_s"], "s"),
        "host.ref_ms": (statistics.median(host) / 1e6, "ms"),
        "trace.overhead_frac": ((own_traced - own_plain) / own_plain, "ratio"),
    }
    return {k: metric(v, u) for k, (v, u) in values.items()}


# --- the two kinds of run --------------------------------------------------------

def plain_run(args, size: str):
    import reference
    import workloads

    starts = 1 if args.tiny else SETUP_STARTS
    cold = [sys.executable, "-c", _SETUP, str(SRC), str(BENCH),
            args.workload, str(args.seed), size]
    setup: list[float] = []

    def cold_start(elapsed: float = 0.0):
        """One before the loop, the others between passes, evenly in time."""
        if len(setup) < starts and elapsed >= len(setup) * args.seconds / starts:
            setup.append(subprocess_seconds(cold))

    cold_start()
    items = workloads.generate(args.workload, args.seed, size)
    reference.resolve_anchors(items)
    host: list[int] = []
    plain, _, answers = closed_loop(items, args.seconds, host, between=cold_start)
    while len(setup) < starts:
        cold_start(args.seconds)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    rows = validate(items, answers)
    metrics, extra = end_to_end(items, plain, rows, setup, rss_mb)
    detail = {"passes": len(plain[0]), "setup_samples_s": setup,
              "host.ref_ms": statistics.median(host) / 1e6}
    return items, plain, rows, metrics, extra, detail, rows


def traced_run(args, size: str):
    import numpy
    import reference
    import workloads
    from quartzeq import (F_equilibrium, K_direct, PiecewiseConstantFamily,
                          PowerLawFamily, TabulatedFamily, estimate_m_with_error)
    from tracing import Tracer

    # The workload's own items, plus a small sample of the others so that
    # every layer's metrics exist in every traced run.
    items = workloads.generate(args.workload, args.seed, size)
    own = range(len(items))
    for name in workloads.WORKLOADS:
        if name != args.workload:
            items += workloads.generate(name, args.seed, "tiny")
    for i, item in enumerate(items):
        item.idx = i
    reference.resolve_anchors(items)

    tracer = Tracer()

    def traced_call(item):
        with tracer.span("item." + item.kind, item.idx) as root:
            with tracer.span(workloads.LAYER_CALL[item.kind], item.idx) as leaf:
                try:
                    result = item.call()
                except Exception as exc:  # as in plain_call
                    result = exc
                    leaf["error"] = type(exc).__name__
        s = item.spec
        if item.kind == "F":  # the same input without the cross-check
            with tracer.span("series.F_equilibrium.nocheck", item.idx):
                try:
                    F_equilibrium(item.family, s["x"], cross_check=False)
                except Exception:  # noqa: BLE001 - the checked call is the one judged
                    pass
        elif item.kind == "K":  # the direct sum the expansion is judged against
            with tracer.span("asymptotics.K_direct", item.idx):
                K_direct(s["a"], s["b"], reference.K_AT)
        return root["end"] - root["start"], result

    host: list[int] = []
    plain, traced_times, answers = closed_loop(items, args.seconds, host, traced_call)

    extra = {}
    families = {}
    for item in items:
        if item.kind == "verdict" and item.spec["regime"] != "AlwaysExists":
            families.setdefault(item.pool, item)
    f_evals = 0
    for item in families.values():
        with tracer.span("powerlaw.estimate_m_with_error", item.idx) as span:
            span["evals"] = estimate_m_with_error(item.family)[2]
        f_evals += span["evals"]
    extra["F_evals"] = f_evals

    idx = numpy.arange(1, 8193)
    kinds = {"piecewise": PiecewiseConstantFamily(1.0, 5),
             "power_law": PowerLawFamily.from_ab(1.5, 0.5),
             "tabulated": TabulatedFamily([1.0] * 16, [0.5] * 16, [0.5] * 16)}
    total = 0.0
    for j, (kind, fam) in enumerate(kinds.items()):
        for _ in range(D_VALUES_REPS):
            with tracer.span("coefficients.d_values", -1 - j, kind=kind):
                fam.d_values(idx)
        total += item_time(tracer.durations("coefficients.d_values")[-1 - j])
    extra["d_values_us"] = total / 1e3

    reps = 1 if args.tiny else CLI_REPS
    py = sys.executable
    cli = {
        "cli.import_s": [py, "-c", "import quartzeq.cli"],
        "cli.classify_cold_s": [py, "-m", "quartzeq.cli", "classify", "--a", "2", "--b", "0"],
        "cli.simulate_cold_s": [py, "-m", "quartzeq.cli", "simulate", "--family",
                                "piecewise", "--k", "1", "--N", "2", "--alpha", "0.2",
                                "--r", "1", "--imax", "20", "--t-end", "100"],
    }
    for name, argv in cli.items():  # sequential cold starts
        extra[name] = statistics.median(subprocess_seconds(argv) for _ in range(reps))

    rows = validate(items, answers)
    metrics = per_layer(tracer, items, answers, rows, own, plain, traced_times, host, extra)
    OUT.mkdir(exist_ok=True)
    tracer.write(OUT / f"trace_{args.workload}_seed{args.seed}.json")
    detail = {"passes": len(plain[0]) + len(traced_times[0]), "spans": len(tracer.spans),
              "host.ref_ms": statistics.median(host) / 1e6}
    own_items = [items[i] for i in own]
    return (own_items, [plain[i] for i in own], [rows[i] for i in own],
            metrics, {}, detail, rows)


# --- output --------------------------------------------------------------------

def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("certify", "verdict", "relax"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="self-test size: a few items, one cold start")
    args = parser.parse_args(argv)

    if not (SRC / "quartzeq" / "__init__.py").is_file():
        print(f"run.py: no quartzeq sources at {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(BENCH)]
    size = "tiny" if args.tiny else "full"

    run = traced_run if args.trace else plain_run
    items, plain, rows, metrics, extra, detail, all_rows = run(args, size)
    env = environment()

    failed = sum(not r["ok"] for r in rows)
    unexpected = sum(not r["ok"] and r["known"] is None for r in all_rows)
    known = Counter(r["known"] for r in all_rows if r["known"])
    classes = Counter((item_class(it), outcome_of(r)) for it, r in zip(items, rows))
    record_doc = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "size": size, "env": env, "detail": detail,
        "metrics": {**metrics, **extra}, "attempted": len(items), "failed": failed,
        "unexpected_failures": unexpected, "known_defects": dict(known),
        "outcomes": {f"{c} {o}": n for (c, o), n in sorted(classes.items())},
        "items": [{"class": item_class(it), "time_us": item_time(t) / 1e3,
                   "outcome": outcome_of(r)} for it, t, r in zip(items, plain, rows)],
    }
    OUT.mkdir(exist_ok=True)
    (OUT / f"BENCH_{args.workload}_seed{args.seed}_trace{args.trace}.json").write_text(
        json.dumps(record_doc, indent=1))

    print(f"# quartzeq benchmark  workload={args.workload} seed={args.seed} "
          f"trace={args.trace} items={len(items)} passes={detail['passes']}")
    print("# env " + " ".join(f"{k}={v}" for k, v in env.items())
          + f" host.ref_ms={detail['host.ref_ms']:.4f}")
    for name, m in {**metrics, **extra}.items():
        print(f"{name:28s} {m['value']:>14.6g} {m['unit']}")
    print(f"# validation: {len(items) - failed}/{len(items)} answered; "
          f"{unexpected} unexpected failures; known defects: "
          + (", ".join(f"{k} x{n}" for k, n in known.items()) or "none"))
    for (cls, outcome), n in sorted(classes.items()):
        print(f"#   {cls:34s} {outcome:18s} {n}")
    print(json.dumps({"correct": unexpected == 0, "attempted": len(items),
                      "failed": failed, "metrics": metrics}, allow_nan=False))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
