"""Command-line front end.

Every verb resolves its inputs into a RunConfig, runs the corresponding
library call, and emits machine-readable output (JSON documents or CSV
rows) with the fully-resolved config echoed in a header, so any output
file is self-describing and reruns are reproducible.  Floats are
serialized with repr, the shortest digit string that round-trips
exactly (at most 17 significant digits), which also makes payloads
byte-identical across runs on one platform.

Exit codes: 0 success (and, for `reproduce`, all checks passed);
1 failed checks; 2 usage errors; 3 numeric failures (unreached
tolerance, term cap, integration breakdown) with a structured JSON
diagnostic on stderr.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import io
import json
import sys

from . import acceptance
from .coefficients import (
    CoefficientFamily,
    PiecewiseConstantFamily,
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
    classify_regime,
    estimate_m_with_error,
)
from .series import (
    DEFAULT_TERM_CAP,
    DEFAULT_TOL,
    GridSpec,
    audit_G_identity,
    audit_d_identity,
    grid_evaluate,
)
from .asymptotics import K_direct, K_expansion_refined

__all__ = ["main", "RunConfig"]

_EXIT_CHECK_FAILED = 1
_EXIT_USAGE = 2
_EXIT_NUMERIC = 3


@dataclasses.dataclass(frozen=True)
class RunConfig:
    """Fully-resolved invocation record echoed into every output."""

    verb: str
    family: dict | None
    numerics: dict
    out: str | None
    format: str
    seed: int

    def as_dict(self) -> dict:
        return {
            "verb": self.verb,
            "family": self.family,
            "numerics": self.numerics,
            "out": self.out,
            "format": self.format,
            "seed": self.seed,
        }


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


def _csv_text(config: RunConfig, header: list[str], rows) -> str:
    buf = io.StringIO()
    buf.write("# config: " + json.dumps(config.as_dict(), sort_keys=True,
                                        allow_nan=False) + "\n")
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([repr(v) if isinstance(v, float) else v for v in row])
    return buf.getvalue()


def _resolve_family(args) -> tuple[CoefficientFamily, dict]:
    """Family instance plus the resolved config document describing it."""
    if getattr(args, "family_config", None):
        fam = load_family(args.family_config)
        return fam, dict(fam.describe())
    kind = getattr(args, "family", None)
    if kind in (None, "piecewise", "piecewise_constant"):
        k = args.k if args.k is not None else 1.0
        N = args.N if args.N is not None else 1
        doc = {"kind": "piecewise_constant", "k": k, "N": N}
        return family_from_config(doc), doc
    if kind == "power_law":
        if args.a is not None or args.b is not None:
            if args.a is None or args.b is None:
                raise DomainError("power_law via exponent pair needs both --a and --b")
            fam = PowerLawFamily.from_ab(a=args.a, b=args.b)
        else:
            fam = PowerLawFamily(
                p_exp=args.p_exp if args.p_exp is not None else 1.0,
                q_exp=args.q_exp if args.q_exp is not None else 0.0,
                k_exp=args.k_exp if args.k_exp is not None else 0.0,
            )
        return fam, dict(fam.describe())
    raise DomainError(f"unknown family kind {kind!r}; use --family-config for tables")


def _power_law_from_ab(args) -> PowerLawFamily:
    if args.a is None or args.b is None:
        raise DomainError("this verb requires --a and --b")
    return PowerLawFamily.from_ab(a=args.a, b=args.b)


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
    config = RunConfig("equilibrium", fam_doc, numerics, args.out, fmt, args.seed)

    if args.x is not None:
        grid = GridSpec(args.x, args.x, 1, "linear")
    else:
        grid = GridSpec(args.x_min, args.x_max, args.count, args.spacing)
    rows = [(row.x, row.value, row.tail_bound, row.terms_used)
            for row in grid_evaluate(fam, args.quantity, grid, args.r,
                                     tol=tol, term_cap=args.term_cap)]
    if fmt == "csv":
        _emit(_csv_text(config, ["x", "value", "tail_bound", "terms_used"], rows),
              args.out)
    else:
        doc = {"config": config.as_dict(),
               "rows": [{"x": x, "value": v, "tail_bound": t, "terms_used": n}
                        for x, v, t, n in rows]}
        _emit(_json_dump(doc), args.out)
    return 0


def _cmd_roots(args) -> int:
    if args.k is None or args.N is None or args.alpha is None or args.r is None:
        raise DomainError("roots requires --k, --N, --alpha and --r")
    numerics = {"alpha": args.alpha, "r": args.r, "tol": args.tol}
    fam_doc = {"kind": "piecewise_constant", "k": args.k, "N": args.N}
    config = RunConfig("roots", fam_doc, numerics, args.out,
                       args.format or "json", args.seed)
    rep = solve_roots(args.k, args.N, args.r, args.alpha, tol=args.tol)
    doc = {"config": config.as_dict()}
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
    fam = _power_law_from_ab(args)
    numerics = {"a": args.a, "b": args.b}
    config = RunConfig("classify", dict(fam.describe()), numerics,
                       args.out, args.format or "json", args.seed)
    verdict = classify_regime(fam)
    doc = {"config": config.as_dict()}
    doc.update(_verdict_doc(verdict, {}))
    _emit(_json_dump(doc), args.out)
    return 0


def _cmd_threshold(args) -> int:
    fam = _power_law_from_ab(args)
    numerics = {"a": args.a, "b": args.b, "x_max": args.x_max, "grid": args.grid}
    if args.alpha is not None:
        numerics["alpha"] = args.alpha
        numerics["r"] = args.r
    config = RunConfig("threshold", dict(fam.describe()), numerics,
                       args.out, args.format or "json", args.seed)
    verdict = classify_regime(fam)
    extra: dict = {}
    if verdict.regime is Regime.ALWAYS_EXISTS:
        # F is unbounded here: there is no finite supremum to estimate
        extra["note"] = "F grows without bound; every inflow admits an equilibrium"
    elif verdict.regime is Regime.THRESHOLD_WEAK:
        est, err, evals = estimate_m_with_error(fam, x_max=args.x_max,
                                                grid=args.grid)
        verdict = dataclasses.replace(verdict, m_estimate=est.m, m_error_bar=err,
                                      m_attained_at=est.attained_at)
        extra["f_evaluations"] = evals
    if args.alpha is not None:
        # answered from the verdict above and its m estimate: no second scan
        extra["existence"] = verdict.existence(_inflow_ratio(args.alpha, args.r))
    doc = {"config": config.as_dict()}
    doc.update(_verdict_doc(verdict, extra))
    _emit(_json_dump(doc), args.out)
    return 0


def _cmd_asym(args) -> int:
    if args.a is None or args.b is None:
        raise DomainError("asym requires --a and --b")
    numerics = {"a": args.a, "b": args.b, "depth": args.depth}
    if args.compare_grid:
        numerics["compare_grid"] = args.compare_grid
    fmt = args.format or ("csv" if args.compare_grid else "json")
    config = RunConfig("asym", None, numerics, args.out, fmt, args.seed)
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
        doc = {"config": config.as_dict(), "expansion": record}
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
    config = RunConfig("identity-audit", fam_doc, numerics, args.out,
                       args.format or "json", args.seed)
    g_val, g_res = audit_G_identity(fam, args.x, n_terms=args.n_terms)
    d_val, d_res = audit_d_identity(fam, args.x, n_terms=args.n_terms)
    doc = {
        "config": config.as_dict(),
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
    config = RunConfig("simulate", fam_doc, numerics, args.out,
                       args.format or "csv", args.seed)
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
        "config": config.as_dict(),
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
    numerics = {"criteria": args.criterion or "all"}
    config = RunConfig("reproduce", None, numerics, args.out,
                       args.format or "text", args.seed)
    if args.criterion:
        results = [acceptance.run_criterion(n, args.seed) for n in args.criterion]
    else:
        results = acceptance.run_all(args.seed)
    all_passed = all(r.passed for r in results)
    if config.format == "json":
        doc = {
            "config": config.as_dict(),
            "all_passed": all_passed,
            "results": [{"number": r.number, "title": r.title,
                         "passed": r.passed, "runtime_s": r.runtime_s,
                         "details": r.details} for r in results],
        }
        _emit(_json_dump(doc), args.out)
    else:
        lines = ["# config: " + json.dumps(config.as_dict(), sort_keys=True)]
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
                     help="JSON family document (overrides family flags)")
    sub.add_argument("--k", type=float, help="piecewise uptake rate")
    sub.add_argument("--N", type=int, help="piecewise clearance horizon")
    sub.add_argument("--a", type=float, help="power-law scale exponent")
    sub.add_argument("--b", type=float, help="power-law balance exponent")
    sub.add_argument("--p-exp", type=float, help="clearance exponent")
    sub.add_argument("--q-exp", type=float, help="death exponent")
    sub.add_argument("--k-exp", type=float, help="uptake exponent")


def _add_common_flags(sub) -> None:
    sub.add_argument("--out", metavar="PATH", help="output path (default stdout)")
    sub.add_argument("--format", choices=["json", "csv"])
    sub.add_argument("--seed", type=int, default=acceptance.DEFAULT_SEED)
    sub.add_argument("--tol", type=float, default=DEFAULT_TOL)
    sub.add_argument("--term-cap", type=int, default=DEFAULT_TERM_CAP)


def _float_list(text: str) -> list[float]:
    try:
        return [float(tok) for tok in text.split(",") if tok]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad float list {text!r}") from exc


def build_parser(config_defaults: dict | None = None) -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="quartzeq",
        description="Equilibria of quartz-laden macrophage cohort models",
    )
    parser.add_argument("--config", metavar="FILE",
                        help="JSON file of flag defaults (explicit flags win)")
    subparsers: list[argparse.ArgumentParser] = []
    subs_action = parser.add_subparsers(dest="verb", required=True)

    class _Subs:
        # records each subparser so config-file defaults can be applied
        # per verb (subparsers parse into a fresh namespace, so seeding
        # the outer namespace would be silently discarded)
        def add_parser(self, *a, **kw):
            sub = subs_action.add_parser(*a, **kw)
            subparsers.append(sub)
            return sub

    subs = _Subs()

    eq = subs.add_parser("equilibrium", help="evaluate F/H/kM/iqM with bounds")
    _add_family_flags(eq)
    _add_common_flags(eq)
    eq.add_argument("--quantity", choices=["F", "H", "kM", "iqM"], default="F")
    eq.add_argument("--r", type=float, default=1.0)
    eq.add_argument("--x", type=float, help="single evaluation point")
    eq.add_argument("--x-min", type=float, default=1e-2)
    eq.add_argument("--x-max", type=float, default=1e2)
    eq.add_argument("--count", type=int, default=50)
    eq.add_argument("--spacing", choices=["linear", "log"], default="log")
    eq.set_defaults(func=_cmd_equilibrium)

    rt = subs.add_parser("roots", help="piecewise equilibrium roots")
    _add_common_flags(rt)
    rt.add_argument("--family", choices=["piecewise"], default="piecewise")
    rt.add_argument("--k", type=float)
    rt.add_argument("--N", type=int)
    rt.add_argument("--alpha", type=float)
    rt.add_argument("--r", type=float)
    rt.set_defaults(func=_cmd_roots)

    cl = subs.add_parser("classify", help="power-law regime from (a, b)")
    _add_common_flags(cl)
    cl.add_argument("--a", type=float, required=True)
    cl.add_argument("--b", type=float, required=True)
    cl.set_defaults(func=_cmd_classify)

    th = subs.add_parser("threshold", help="estimate the inflow threshold m")
    _add_common_flags(th)
    th.add_argument("--a", type=float, required=True)
    th.add_argument("--b", type=float, required=True)
    th.add_argument("--x-max", type=float, default=1e6)
    th.add_argument("--grid", type=int, default=200)
    th.add_argument("--alpha", type=float, help="also answer existence for this inflow")
    th.add_argument("--r", type=float, default=1.0)
    th.set_defaults(func=_cmd_threshold)

    asym = subs.add_parser("asym", help="large-x expansion of the K series")
    _add_common_flags(asym)
    asym.add_argument("--a", type=float, required=True)
    asym.add_argument("--b", type=float, required=True)
    asym.add_argument("--depth", type=int, default=2)
    asym.add_argument("--compare-grid", type=_float_list, metavar="x1,x2,...",
                      help="also tabulate direct vs expansion at these x")
    asym.set_defaults(func=_cmd_asym)

    audit = subs.add_parser("identity-audit", help="telescoping identity residuals")
    _add_family_flags(audit)
    _add_common_flags(audit)
    audit.add_argument("--x", type=float)
    audit.add_argument("--n-terms", type=int, default=200)
    audit.set_defaults(func=_cmd_identity_audit)

    sim = subs.add_parser("simulate", help="integrate the truncated system")
    _add_family_flags(sim)
    _add_common_flags(sim)
    sim.add_argument("--alpha", type=float)
    sim.add_argument("--r", type=float)
    sim.add_argument("--imax", type=int, default=200)
    sim.add_argument("--t-end", type=float, default=1000.0)
    sim.add_argument("--x0", type=float, default=0.0)
    sim.add_argument("--summary-out", metavar="PATH",
                     help="write the JSON summary here (default: stdout or CSV trailer)")
    sim.set_defaults(func=_cmd_simulate)

    rep = subs.add_parser("reproduce", help="run the acceptance checks")
    _add_common_flags(rep)
    rep.add_argument("--criterion", type=int, action="append",
                     metavar="N", help="run only criterion N (repeatable)")
    rep.set_defaults(func=_cmd_reproduce)

    if config_defaults:
        for sub in subparsers:
            known = {action.dest for action in sub._actions}
            sub.set_defaults(**{key: val for key, val in config_defaults.items()
                                if key in known})
    return parser


def _load_defaults(argv: list[str]) -> dict | None:
    """Pre-scan for --config and load its flag defaults."""
    for j, tok in enumerate(argv):
        path = None
        if tok == "--config" and j + 1 < len(argv):
            path = argv[j + 1]
        elif tok.startswith("--config="):
            path = tok.split("=", 1)[1]
        if path:
            with open(path, encoding="utf-8") as fh:
                doc = json.load(fh)
            if not isinstance(doc, dict):
                raise DomainError("config file must hold a JSON object")
            return doc
    return None


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        parser = build_parser(_load_defaults(argv))
        args = parser.parse_args(argv)
        return args.func(args)
    except (ConvergenceError, ConsistencyError, IntegrationError) as exc:
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
