"""Command-line front end.

Every verb resolves its inputs into a config record (verb, family,
numerics, out, format), runs the corresponding library call, and emits
machine-readable output (JSON documents or CSV rows) with that record
echoed in a header, so any output file is self-describing and reruns are
reproducible; every flag a verb takes changes what it computes or writes.
Floats are serialized with repr, the shortest digit string that
round-trips exactly (at most 17 significant digits), which also makes
payloads byte-identical across runs on one platform.

Exit codes: 0 success (and, for `reproduce`, all checks passed);
1 failed checks; 2 usage errors; 3 numeric failures (unreached
tolerance, term cap, float overflow, integration breakdown) with a
structured JSON diagnostic on stderr; 141 (128 + SIGPIPE) when the reader
closes stdout early, silently, as a shell reports for any command in such
a pipe.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import io
import json
import math
import os
import sys

import numpy as np

from . import acceptance
from .coefficients import (
    CoefficientFamily,
    PowerLawFamily,
    family_from_config,
    load_family,
)
from .dynamics import initial_state, integrate
from .errors import ConsistencyError, ConvergenceError, DomainError, IntegrationError
from .piecewise import solve_roots
from .powerlaw import (
    SUPREMUM_AT_INFINITY,
    Regime,
    _inflow_ratio,
    _regime_verdict,
    classify_regime,
)
from .series import (
    DEFAULT_TERM_CAP,
    DEFAULT_TOL,
    audit_G_identity,
    audit_d_identity,
    evaluate,
)
from .asymptotics import K_direct, K_expansion_refined

__all__ = ["main"]

_EXIT_CHECK_FAILED = 1
_EXIT_USAGE = 2
_EXIT_NUMERIC = 3
_EXIT_BROKEN_PIPE = 141


def _config(args, family: dict | None, numerics: dict, fmt: str) -> dict:
    """The fully-resolved invocation record echoed into every output."""
    return {"verb": args.verb, "family": family, "numerics": numerics,
            "out": args.out, "format": fmt}


def _json_dump(doc: dict) -> str:
    # sort_keys pins byte-level layout; json serializes floats via repr
    return json.dumps(doc, sort_keys=True, indent=2, allow_nan=False)


def _emit(text: str, out: str | None) -> None:
    if out is None or out == "-":
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")
    else:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
            if not text.endswith("\n"):
                fh.write("\n")


def _csv_text(config: dict, header: list[str], rows) -> str:
    buf = io.StringIO()
    buf.write("# config: " + json.dumps(config, sort_keys=True, allow_nan=False) + "\n")
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([repr(v) if isinstance(v, float) else v for v in row])
    return buf.getvalue()


def _resolve_family(args) -> tuple[CoefficientFamily, dict]:
    """Family instance plus the config document describing it.

    A family comes from exactly one source: --family-config alone, --a and
    --b with --family power_law, or --k and --N (defaults 1 and 1) with
    --family piecewise or no --family; a family flag that source does not
    read is a usage error.
    """
    if args.family_config:
        source, reads = "--family-config", ()
    elif args.family == "power_law":
        source, reads = "--family power_law", ("family", "a", "b")
    else:
        source, reads = "the piecewise family", ("family", "k", "N")
    unread = [f"--{dest}" for dest in ("family", "k", "N", "a", "b")
              if getattr(args, dest) is not None and dest not in reads]
    if unread:
        raise DomainError(f"{source} does not read {', '.join(unread)}: "
                          "a family comes from one source")
    if args.family_config:
        fam = load_family(args.family_config)
    elif args.family != "power_law":
        fam = family_from_config({"kind": "piecewise_constant",
                                  "k": 1.0 if args.k is None else args.k,
                                  "N": 1 if args.N is None else args.N})
    elif args.a is None or args.b is None:
        raise DomainError("--family power_law needs both --a and --b "
                          "(other exponents and index-0 rates: --family-config)")
    else:
        fam = PowerLawFamily.from_ab(a=args.a, b=args.b)
    return fam, fam.describe()


# ---------------------------------------------------------------- verbs


def _cmd_equilibrium(args) -> int:
    fam, fam_doc = _resolve_family(args)
    tol = args.tol
    numerics = {"quantity": args.quantity, "r": args.r, "tol": tol,
                "term_cap": args.term_cap}
    if args.x is not None:
        numerics["x"] = args.x
    else:
        numerics["grid"] = {"x_min": args.x_min, "x_max": args.x_max,
                            "count": args.count, "spacing": args.spacing}
    fmt = args.format or ("json" if args.x is not None else "csv")
    config = _config(args, fam_doc, numerics, fmt)

    # argparse took finite numbers and an integer count; evaluate checks x >= 0
    if args.x is not None:
        points = [args.x]
    elif args.x_max < args.x_min:
        raise DomainError("x_max must be >= x_min")
    elif args.count < 1:
        raise DomainError(f"count must be >= 1, got {args.count}")
    elif args.spacing == "log" and args.x_min <= 0.0:
        raise DomainError("log spacing requires x_min > 0")
    else:  # one point is x_min either way
        space = np.linspace if args.spacing == "linear" else np.geomspace
        points = space(args.x_min, args.x_max, args.count)
    rows = [(float(x), bv.value, bv.tail_bound, bv.terms_used)
            for x, bv in zip(points, evaluate(fam, args.quantity, points, args.r,
                                              tol=tol, term_cap=args.term_cap))]
    if fmt == "csv":
        _emit(_csv_text(config, ["x", "value", "tail_bound", "terms_used"], rows),
              args.out)
    else:
        doc = {"config": config,
               "rows": [{"x": x, "value": v, "tail_bound": t, "terms_used": n}
                        for x, v, t, n in rows]}
        _emit(_json_dump(doc), args.out)
    return 0


def _cmd_roots(args) -> int:
    if args.k is None or args.N is None or args.alpha is None or args.r is None:
        raise DomainError("roots requires --k, --N, --alpha and --r")
    numerics = {"alpha": args.alpha, "r": args.r, "tol": args.tol}
    fam_doc = {"kind": "piecewise_constant", "k": args.k, "N": args.N}
    config = _config(args, fam_doc, numerics, args.format or "json")
    rep = solve_roots(args.k, args.N, args.r, args.alpha, tol=args.tol)
    doc = {"config": config}
    doc.update(dataclasses.asdict(rep))
    doc["roots"] = list(doc["roots"])
    _emit(_json_dump(doc), args.out)
    return 0


def _verdict_doc(verdict, extra: dict) -> dict:
    at_infinity = verdict.m_attained_at == SUPREMUM_AT_INFINITY
    doc = {
        "regime": verdict.regime.value,
        "a": verdict.a,
        "b": verdict.b,
        "m_estimate": verdict.m_estimate,
        "m_error_bar": verdict.m_error_bar,
        "m_attained_at": None if at_infinity else verdict.m_attained_at,
    }
    if at_infinity:
        doc["attained"] = SUPREMUM_AT_INFINITY
    doc.update(extra)
    return doc


def _cmd_classify(args) -> int:
    fam = PowerLawFamily.from_ab(a=args.a, b=args.b)
    numerics = {"a": args.a, "b": args.b}
    config = _config(args, fam.describe(), numerics, args.format or "json")
    verdict = classify_regime(fam)
    doc = {"config": config}
    doc.update(_verdict_doc(verdict, {}))
    _emit(_json_dump(doc), args.out)
    return 0


def _cmd_threshold(args) -> int:
    fam = PowerLawFamily.from_ab(a=args.a, b=args.b)
    numerics = {"a": args.a, "b": args.b}
    if args.alpha is not None:
        numerics["alpha"] = args.alpha
        numerics["r"] = args.r
    config = _config(args, fam.describe(), numerics, args.format or "json")
    verdict, evals = _regime_verdict(fam)
    extra: dict = {}
    if verdict.regime is Regime.ALWAYS_EXISTS:
        # F is unbounded here: there is no finite supremum to estimate
        extra["note"] = "F grows without bound; every inflow admits an equilibrium"
    elif verdict.regime is Regime.THRESHOLD_WEAK:
        extra["f_evaluations"] = evals
    if args.alpha is not None:
        # answered from the verdict above and its m estimate: no second scan
        extra["existence"] = verdict.existence(_inflow_ratio(args.alpha, args.r))
    doc = {"config": config}
    doc.update(_verdict_doc(verdict, extra))
    _emit(_json_dump(doc), args.out)
    return 0


def _cmd_asym(args) -> int:
    numerics = {"a": args.a, "b": args.b, "depth": args.depth}
    if args.compare_grid:
        numerics["compare_grid"] = args.compare_grid
    fmt = args.format or ("csv" if args.compare_grid else "json")
    config = _config(args, None, numerics, fmt)
    expansion = K_expansion_refined(args.a, args.b, depth=args.depth)
    record = {
        "variable": expansion.variable,
        "terms": [{"coeff": t.coefficient, "power": t.power,
                   "log_power": t.log_power} for t in expansion.terms],
        "remainder": expansion.remainder_power,
    }
    rows = []
    for x in args.compare_grid or ():
        direct = K_direct(args.a, args.b, x, tol=args.tol,
                          term_cap=args.term_cap).value
        approx = expansion.evaluate(x)
        rows.append((x, direct, approx, abs(direct - approx)))
    if fmt == "csv":
        _emit(_csv_text(config, ["x", "direct", "expansion", "residual"], rows),
              args.out)
    else:
        doc = {"config": config, "expansion": record}
        if rows:
            doc["comparison"] = [
                {"x": x, "direct": d, "expansion": e, "residual": res}
                for x, d, e, res in rows
            ]
        _emit(_json_dump(doc), args.out)
    return 0


def _cmd_identity_audit(args) -> int:
    fam, fam_doc = _resolve_family(args)
    if args.x is None:
        raise DomainError("identity-audit requires --x")
    numerics = {"x": args.x, "n_terms": args.n_terms}
    config = _config(args, fam_doc, numerics, args.format or "json")
    g_val, g_res = audit_G_identity(fam, args.x, n_terms=args.n_terms)
    d_val, d_res = audit_d_identity(fam, args.x, n_terms=args.n_terms)
    doc = {
        "config": config,
        "G": {"value": g_val, "residual": g_res},
        "d": {"value": d_val, "residual": d_res},
    }
    _emit(_json_dump(doc), args.out)
    return 0


def _cmd_simulate(args) -> int:
    fam, fam_doc = _resolve_family(args)
    if args.alpha is None or args.r is None:
        raise DomainError("simulate requires --alpha and --r")
    numerics = {"alpha": args.alpha, "r": args.r, "imax": args.imax,
                "t_end": args.t_end, "x0": args.x0, "tol": args.tol}
    config = _config(args, fam_doc, numerics, args.format or "csv")
    summary = integrate(fam, args.alpha, args.r,
                        initial_state(args.imax, x=args.x0), args.t_end,
                        tol=args.tol)
    rows = [
        (float(summary.t[j]), float(summary.x_series[j]),
         float(summary.cells_series[j]), float(summary.load_series[j]),
         float(summary.rhs_norm_series[j]))
        for j in range(summary.n_steps)
    ]
    summary_doc = {
        "config": config,
        "converged": summary.converged,
        "t_final": summary.final.t,
        "x_final": summary.final.x,
        "total_cells_final": summary.final.total_cells,
        "total_load_final": summary.final.total_load,
        "flux_log_final": summary.final.flux_log,
        "rhs_norm_final": summary.rhs_norm_final,
        "max_negativity": summary.max_negativity,
        "n_steps": summary.n_steps,
    }
    csv_text = _csv_text(config, ["t", "x", "total_cells", "total_load",
                                  "rhs_norm"], rows)
    if args.summary_out:
        _emit(csv_text, args.out)
        _emit(_json_dump(summary_doc), args.summary_out)
    elif args.out and args.out != "-":
        # series to the file, summary to stdout
        _emit(csv_text, args.out)
        _emit(_json_dump(summary_doc), None)
    else:
        # one stream: summary rides along as a trailing comment line
        _emit(csv_text + "# summary: "
              + json.dumps(summary_doc, sort_keys=True, allow_nan=False), None)
    return 0


def _cmd_reproduce(args) -> int:
    numerics = {"criteria": args.criterion or "all", "seed": args.seed}
    config = _config(args, None, numerics, args.format or "text")
    if args.criterion:
        results = [acceptance.run_criterion(n, args.seed) for n in args.criterion]
    else:
        results = acceptance.run_all(args.seed)
    all_passed = all(r.passed for r in results)
    if config["format"] == "json":
        doc = {
            "config": config,
            "all_passed": all_passed,
            "results": [{"number": r.number, "title": r.title,
                         "passed": r.passed, "runtime_s": r.runtime_s,
                         "details": r.details} for r in results],
        }
        _emit(_json_dump(doc), args.out)
    else:
        lines = ["# config: " + json.dumps(config, sort_keys=True)]
        lines += [r.line for r in results]
        passed = sum(1 for r in results if r.passed)
        lines.append(f"{passed}/{len(results)} criteria passed")
        _emit("\n".join(lines), args.out)
    return 0 if all_passed else _EXIT_CHECK_FAILED


# ---------------------------------------------------------------- parser


def _add_family_flags(sub) -> None:
    sub.add_argument("--family", choices=["piecewise", "power_law"],
                     help="family kind (tables go through --family-config)")
    sub.add_argument("--family-config", metavar="FILE",
                     help="JSON family document (takes no other family flag)")
    sub.add_argument("--k", type=_finite, help="piecewise uptake rate")
    sub.add_argument("--N", type=int, help="piecewise clearance horizon")
    sub.add_argument("--a", type=_finite, help="power-law scale exponent")
    sub.add_argument("--b", type=_finite, help="power-law balance exponent")


def _add_common_flags(sub, formats: tuple[str, ...], *, tol: bool = False,
                      term_cap: bool = False) -> None:
    """Flags every verb takes, plus --tol and --term-cap where the verb reads
    them; --format lists only what the verb writes."""
    sub.add_argument("--out", metavar="PATH", help="output path (default stdout)")
    sub.add_argument("--format", choices=formats)
    if tol:
        sub.add_argument("--tol", type=_finite, default=DEFAULT_TOL)
    if term_cap:
        sub.add_argument("--term-cap", type=int, default=DEFAULT_TERM_CAP)


def _finite(text: str) -> float:
    """The argparse type of every float flag: nan and inf are usage errors."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"need a finite number, got {text!r}")
    return value


def _float_list(text: str) -> list[float]:
    return [_finite(tok) for tok in text.split(",") if tok]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="quartzeq",
        description="Equilibria of quartz-laden macrophage cohort models",
    )
    parser.add_argument("--config", metavar="FILE",
                        help="JSON file of flag defaults (explicit flags win)")
    subs = parser.add_subparsers(dest="verb", required=True)

    eq = subs.add_parser("equilibrium", help="evaluate F/H/kM/iqM with bounds")
    _add_family_flags(eq)
    _add_common_flags(eq, ("json", "csv"), tol=True, term_cap=True)
    eq.add_argument("--quantity", choices=["F", "H", "kM", "iqM"], default="F")
    eq.add_argument("--r", type=_finite, default=1.0)
    eq.add_argument("--x", type=_finite, help="single evaluation point")
    eq.add_argument("--x-min", type=_finite, default=1e-2)
    eq.add_argument("--x-max", type=_finite, default=1e2)
    eq.add_argument("--count", type=int, default=50)
    eq.add_argument("--spacing", choices=["linear", "log"], default="log")
    eq.set_defaults(func=_cmd_equilibrium)

    rt = subs.add_parser("roots", help="piecewise equilibrium roots")
    _add_common_flags(rt, ("json",), tol=True)
    rt.add_argument("--k", type=_finite)
    rt.add_argument("--N", type=int)
    rt.add_argument("--alpha", type=_finite)
    rt.add_argument("--r", type=_finite)
    rt.set_defaults(func=_cmd_roots)

    cl = subs.add_parser("classify", help="power-law regime from (a, b)")
    _add_common_flags(cl, ("json",))
    cl.add_argument("--a", type=_finite, required=True)
    cl.add_argument("--b", type=_finite, required=True)
    cl.set_defaults(func=_cmd_classify)

    th = subs.add_parser("threshold", help="estimate the inflow threshold m")
    _add_common_flags(th, ("json",))
    th.add_argument("--a", type=_finite, required=True)
    th.add_argument("--b", type=_finite, required=True)
    th.add_argument("--alpha", type=_finite, help="also answer existence for this inflow")
    th.add_argument("--r", type=_finite, default=1.0)
    th.set_defaults(func=_cmd_threshold)

    asym = subs.add_parser("asym", help="large-x expansion of the K series")
    _add_common_flags(asym, ("json", "csv"), tol=True, term_cap=True)
    asym.add_argument("--a", type=_finite, required=True)
    asym.add_argument("--b", type=_finite, required=True)
    asym.add_argument("--depth", type=int, default=2)
    asym.add_argument("--compare-grid", type=_float_list, metavar="x1,x2,...",
                      help="also tabulate direct vs expansion at these x")
    asym.set_defaults(func=_cmd_asym)

    audit = subs.add_parser("identity-audit", help="telescoping identity residuals")
    _add_family_flags(audit)
    _add_common_flags(audit, ("json",))
    audit.add_argument("--x", type=_finite)
    audit.add_argument("--n-terms", type=int, default=200)
    audit.set_defaults(func=_cmd_identity_audit)

    sim = subs.add_parser("simulate", help="integrate the truncated system")
    _add_family_flags(sim)
    _add_common_flags(sim, ("csv",), tol=True)
    sim.add_argument("--alpha", type=_finite)
    sim.add_argument("--r", type=_finite)
    sim.add_argument("--imax", type=int, default=200)
    sim.add_argument("--t-end", type=_finite, default=1000.0)
    sim.add_argument("--x0", type=_finite, default=0.0)
    sim.add_argument("--summary-out", metavar="PATH",
                     help="write the JSON summary here (default: stdout or CSV trailer)")
    sim.set_defaults(func=_cmd_simulate)

    rep = subs.add_parser("reproduce", help="run the acceptance checks")
    _add_common_flags(rep, ("text", "json"))
    rep.add_argument("--seed", type=int, default=acceptance.DEFAULT_SEED)
    rep.add_argument("--criterion", type=int, action="append", metavar="N",
                     choices=[num for num, *_ in acceptance.CRITERIA],
                     help="run only criterion N (repeatable)")
    rep.set_defaults(func=_cmd_reproduce)

    return parser


def _with_config(parser: argparse.ArgumentParser, argv: list[str]) -> list[str]:
    """argv with the --config file's values inserted after the verb as flags.

    Each key that names a value flag of the verb (by its dest, as in
    term_cap) becomes --flag=text, so argparse checks it like a typed flag;
    a flag given explicitly after the verb replaces the key.  A list is
    allowed only for the repeatable --criterion.
    """
    path, j = None, 0
    while j < len(argv) and argv[j].startswith("-"):
        if argv[j] == "--config" and j + 1 < len(argv):
            path, j = argv[j + 1], j + 1
        elif argv[j].startswith("--config="):
            path = argv[j].split("=", 1)[1]
        j += 1
    verbs = next(act for act in parser._actions
                 if isinstance(act, argparse._SubParsersAction)).choices
    if not path or j == len(argv) or argv[j] not in verbs:
        return argv
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict):
        raise DomainError("config file must hold a JSON object")
    given = {tok.split("=", 1)[0] for tok in argv[j + 1:]}
    inserted = []
    for act in verbs[argv[j]]._actions:
        if (act.dest not in doc or not act.option_strings or act.nargs == 0
                or given & set(act.option_strings)):
            continue
        val = doc[act.dest]
        for v in val if isinstance(val, list) and act.dest == "criterion" else [val]:
            if isinstance(v, bool) or not isinstance(v, (str, int, float)):
                raise DomainError(
                    f"config value {act.dest}={json.dumps(val)} for {argv[j]} must be "
                    "a string or a number (a list of them for criterion)")
            text = v if isinstance(v, str) else repr(v)
            inserted.append(f"{act.option_strings[0]}={text}")
    return argv[:j + 1] + inserted + argv[j + 1:]


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        parser = build_parser()
        args = parser.parse_args(_with_config(parser, argv))
        code = args.func(args)
        sys.stdout.flush()  # a closed pipe raises here, not at exit
        return code
    except BrokenPipeError:  # the reader is gone: devnull keeps the exit flush quiet
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return _EXIT_BROKEN_PIPE
    except (ConvergenceError, ConsistencyError, IntegrationError, OverflowError) as exc:
        diagnostic = {"error": type(exc).__name__, "message": str(exc)}
        if hasattr(exc, "diagnostic"):
            diagnostic["detail"] = exc.diagnostic()
        sys.stderr.write(_json_dump(diagnostic) + "\n")
        return _EXIT_NUMERIC
    except (DomainError, OSError) as exc:
        sys.stderr.write(f"usage error: {exc}\n")
        return _EXIT_USAGE


if __name__ == "__main__":
    raise SystemExit(main())
