"""Go/no-go acceptance checks, runnable as a module or through the CLI.

Ten numbered criteria cover the load-bearing claims: exact telescoping
identities, piecewise closed forms and root multiplicity, the regime
trichotomy, asymptotic expansions (constant-order, closed-form,
Mellin-residue, Euler-Maclaurin), dynamics cross-checks, and tail
envelopes.  Each criterion returns a CriterionResult; run_all executes
them in order.  `python -m quartzeq.acceptance` prints one pass/fail
line per criterion and exits nonzero if any fail.

Tolerances and pinned constants here are frozen: loosening them to make
a run pass defeats the point of the suite.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from .accumulate import NeumaierSum
from .coefficients import (
    CoefficientFamily,
    PiecewiseConstantFamily,
    PowerLawFamily,
    TabulatedFamily,
)
from .dynamics import conservation_residual, initial_state, integrate
from .piecewise import F_piecewise, alpha_star, solve_roots, stationary_point
from .powerlaw import Regime, classify_regime
from .series import H_series, audit_G_identity, audit_d_identity, sum_iqM, sum_kM
from .asymptotics import (
    K_direct,
    R_expansion,
    R_sum_direct,
    fit_tail_envelope,
    h10_closed_form,
    power_sum,
    tail_cutoff_check,
)

__all__ = ["CriterionResult", "run_all", "run_criterion", "CRITERIA", "DEFAULT_SEED"]

DEFAULT_SEED = 20260816


@dataclass(frozen=True)
class CriterionResult:
    number: int
    title: str
    passed: bool
    runtime_s: float
    limit_s: float
    details: str

    @property
    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return (f"{status} criterion {self.number:2d} [{self.runtime_s:6.2f}s"
                f"/{self.limit_s:.0f}s] {self.title}: {self.details}")


class _Check:
    """Collects named sub-assertions so a failure names its culprit."""

    def __init__(self):
        self.failures: list[str] = []
        self.count = 0

    def expect(self, ok: bool, label: str) -> None:
        self.count += 1
        if not ok:
            self.failures.append(label)

    def summary(self, extra: str = "") -> tuple[bool, str]:
        if self.failures:
            shown = "; ".join(self.failures[:4])
            more = f" (+{len(self.failures) - 4} more)" if len(self.failures) > 4 else ""
            return False, f"{len(self.failures)}/{self.count} checks failed: {shown}{more}"
        msg = f"{self.count} checks"
        return True, msg + (f"; {extra}" if extra else "")


def _random_family(rng: np.random.Generator) -> CoefficientFamily:
    kind = rng.integers(0, 3)
    if kind == 0:
        return PiecewiseConstantFamily(
            k_value=float(rng.uniform(0.2, 5.0)), N=int(rng.integers(0, 9)))
    if kind == 1:
        return PowerLawFamily(
            p_exp=float(rng.uniform(0.0, 2.0)),
            q_exp=float(rng.uniform(0.0, 2.0)),
            k_exp=float(rng.uniform(0.0, 1.5)),
        )
    n = int(rng.integers(5, 30))
    # non-increasing tables keep the family's monotonicity conventions
    return TabulatedFamily(
        k=np.sort(rng.uniform(0.3, 3.0, n))[::-1],
        p=np.sort(rng.uniform(0.1, 2.0, n))[::-1],
        q=np.sort(rng.uniform(0.1, 2.0, n))[::-1],
    )


def criterion_1(seed: int = DEFAULT_SEED) -> tuple[bool, str]:
    """Telescoping-identity audits across 100 randomized families."""
    rng = np.random.default_rng(seed)
    chk = _Check()
    worst = 0.0
    for trial in range(100):
        fam = _random_family(rng)
        x = float(10.0 ** rng.uniform(-2.0, 3.0))
        rg = audit_G_identity(fam, x, n_terms=200)[1]
        rd = audit_d_identity(fam, x, n_terms=200)[1]
        worst = max(worst, rg, rd)
        chk.expect(rg <= 1e-10, f"G residual {rg:.2e} at trial {trial}")
        chk.expect(rd <= 1e-10, f"d residual {rd:.2e} at trial {trial}")
    return chk.summary(f"worst residual {worst:.2e}")


def criterion_2(seed: int = DEFAULT_SEED) -> tuple[bool, str]:
    """Series evaluators hit the piecewise closed forms within tail bounds."""
    rng = np.random.default_rng(seed + 2)
    chk = _Check()
    for _ in range(20):
        k = float(10.0 ** rng.uniform(-1.0, 1.0))
        N = int(rng.integers(0, 11))
        r = float(10.0 ** rng.uniform(-1.0, 1.0))
        fam = PiecewiseConstantFamily(k_value=k, N=N)
        for x in np.geomspace(1e-2, 1e2, 100) / k:
            skm = sum_kM(fam, x, r)
            target = r * k
            chk.expect(abs(skm.value - target) <= skm.tail_bound,
                       f"kM off at k={k:.3g} N={N} x={x:.3g}")
            siqm = sum_iqM(fam, x, r)
            y = math.exp(-(N + 1) * math.log1p(1.0 / (k * x)))
            target_q = r * y * (k * x + N + 1)
            chk.expect(abs(siqm.value - target_q) <= siqm.tail_bound,
                       f"iqM off at k={k:.3g} N={N} x={x:.3g}")
    return chk.summary()


def _dense_scan_count(k: float, N: int, phi: float, x_star: float,
                      f_max: float) -> int | str:
    """Crossing count of F = phi on a dense log grid; 'tangent' if F only
    touches phi at the peak (within 1e-9 relative)."""
    xs = np.geomspace(x_star * 1e-4, x_star * 1e4, 4001)
    vals = np.array([F_piecewise(k, N, float(x)) for x in xs]) - phi
    signs = np.sign(vals)
    crossings = int(np.sum(signs[:-1] * signs[1:] < 0))
    if crossings == 0 and abs(f_max - phi) <= 1e-9 * f_max:
        return "tangent"
    return crossings


def criterion_3(seed: int = DEFAULT_SEED) -> tuple[bool, str]:
    """Exact multiplicity at N=1, k=1 plus randomized trichotomy sweep."""
    chk = _Check()
    _, x_star, f_max = stationary_point(1.0, 1)
    chk.expect(abs(x_star - 1.0) <= 1e-10, f"x* = {x_star!r}")
    chk.expect(abs(alpha_star(1.0, 1, 1.0) - 0.25) <= 1e-12,
               f"alpha* = {alpha_star(1.0, 1, 1.0)!r}")
    for phi, want_count, want_cls in ((0.2, 2, "two_roots"),
                                      (0.25, 1, "tangent"),
                                      (0.3, 0, "no_roots")):
        rep = solve_roots(1.0, 1, 1.0, phi)
        chk.expect(rep.count == want_count,
                   f"count {rep.count} != {want_count} at phi={phi}")
        chk.expect(rep.classification == want_cls,
                   f"class {rep.classification} at phi={phi}")
        scan = _dense_scan_count(1.0, 1, phi, x_star, f_max)
        want_scan = "tangent" if want_cls == "tangent" else want_count
        chk.expect(scan == want_scan, f"dense scan {scan} at phi={phi}")

    rng = np.random.default_rng(seed + 3)
    for _ in range(50):
        k = float(10.0 ** rng.uniform(-0.7, 0.7))
        N = int(rng.integers(1, 9))
        _, xs_, fm = stationary_point(k, N)
        for mult, want in ((0.5, 2), (0.9, 2), (0.999, 2), (1.001, 0), (1.5, 0)):
            rep = solve_roots(k, N, 1.0, mult * fm)
            chk.expect(rep.count == want,
                       f"count {rep.count} != {want} at k={k:.3g} N={N} mult={mult}")
            if want == 2:
                scan = _dense_scan_count(k, N, mult * fm, xs_, fm)
                chk.expect(scan == 2,
                           f"scan {scan} != 2 at k={k:.3g} N={N} mult={mult}")
    return chk.summary()


def criterion_4(seed: int = DEFAULT_SEED) -> tuple[bool, str]:
    """Regime trichotomy: nine sign cases plus grid growth signatures."""
    chk = _Check()
    # sign cases: b relative to a-1 for three values of a
    for a in (0.5, 1.0, 2.0):
        for db, want in ((0.4, Regime.ALWAYS_EXISTS),
                         (0.0, Regime.THRESHOLD_STRICT),
                         (-0.4, Regime.THRESHOLD_WEAK)):
            fam = PowerLawFamily.from_ab(a=a, b=a - 1.0 + db)
            v = classify_regime(fam)
            chk.expect(v.regime == want, f"regime({a},{a - 1 + db:.1f}) = {v.regime}")

    def f_grid(a, b, xs):
        from .series import F_equilibrium
        fam = PowerLawFamily.from_ab(a=a, b=b)
        return np.array([F_equilibrium(fam, float(x), tol=1e-11,
                                       cross_check=False).value for x in xs])

    # (1,1): b > a-1, F unbounded: factor >10 growth across the grid
    xs = np.geomspace(1.0, 1e5, 30)
    v11 = f_grid(1.0, 1.0, xs)
    chk.expect(v11[-1] / v11[0] > 10.0, f"(1,1) growth ratio {v11[-1] / v11[0]:.2f}")
    chk.expect(bool(np.all(np.diff(v11) > 0)), "(1,1) not monotone on grid")
    # (2,1): b = a-1, F bounded: extending the grid adds <5% to the max
    xs2 = np.geomspace(1.0, 1e5, 30)
    xs2_ext = np.geomspace(1.0, 1e7, 40)
    m_base = np.max(f_grid(2.0, 1.0, xs2))
    m_ext = np.max(f_grid(2.0, 1.0, xs2_ext))
    chk.expect(m_ext <= 1.05 * m_base, f"(2,1) max grew {m_ext / m_base:.4f}x")
    # (2,0): b < a-1, interior max then decay
    xs3 = np.geomspace(0.1, 1e5, 50)
    v20 = f_grid(2.0, 0.0, xs3)
    j = int(np.argmax(v20))
    chk.expect(0 < j < len(xs3) - 1, f"(2,0) max at edge index {j}")
    chk.expect(v20[-1] < 0.5 * v20[j], f"(2,0) no decay: end/max {v20[-1] / v20[j]:.3f}")
    return chk.summary()


def criterion_5(seed: int = DEFAULT_SEED) -> tuple[bool, str]:
    """Three-term expansion of the a=1, b=-1 series: O(1/x) remainder."""
    chk = _Check()
    scaled = []
    for x in (1e3, 1e4, 1e5):
        direct = K_direct(1.0, -1.0, x).value
        approx = (math.sqrt(math.pi / 2.0) * math.sqrt(x) - 2.0 / 3.0
                  + math.sqrt(2.0 * math.pi) / 24.0 / math.sqrt(x))
        scaled.append(abs(direct - approx) * x)
    spread = max(scaled) / min(scaled)
    chk.expect(spread <= 2.0, f"spread {spread:.3f} > 2")
    return chk.summary(f"|resid|*x in [{min(scaled):.4f}, {max(scaled):.4f}]")


def criterion_6(seed: int = DEFAULT_SEED) -> tuple[bool, str]:
    """Closed form for the a=1, b=0 series and its x^(-1/2) residual decay."""
    chk = _Check()
    fam = PowerLawFamily.from_ab(1.0, 0.0)
    worst = 0.0
    for x in (1.0, 5.0, 10.0, 20.0):
        direct = H_series(fam, x).value
        closed = h10_closed_form(x)
        rel = abs(direct - closed) / abs(closed)
        worst = max(worst, rel)
        chk.expect(rel <= 1e-8, f"closed-form rel {rel:.2e} at x={x}")

    def resid(x):
        probe = x - math.sqrt(math.pi / 2.0) * math.sqrt(x) + 5.0 / 3.0
        return abs(H_series(fam, x).value - probe)

    ratio = resid(1e4) / resid(1e3)
    chk.expect(0.2 <= ratio <= 0.5, f"decay ratio {ratio:.4f} outside [0.2, 0.5]")
    return chk.summary(f"worst rel {worst:.2e}; decay ratio {ratio:.4f}")


# next-coefficient-derived residual caps (8x margin over the first
# omitted zeta term; see the expansion's k=depth+1 term)
_R_RESIDUAL_CAP = {(1, 1): 2.6e-3, (1, -2): 1.0e-3, (2, 0): 3.0e-4}


def criterion_7(seed: int = DEFAULT_SEED) -> tuple[bool, str]:
    """Mellin-residue expansion order checks, including the log pole case."""
    chk = _Check()
    eps = np.finfo(float).eps
    for (a, A), cap in _R_RESIDUAL_CAP.items():
        exp = R_expansion(float(a), float(A), depth=3)
        for v in (1e-2, 1e-3, 1e-4):
            direct = R_sum_direct(float(a), float(A), v)
            resid = abs(direct.value - exp.evaluate(v))
            allowance = cap * v ** 4 + 4.0 * eps * direct.terms_used * abs(direct.value)
            chk.expect(resid <= allowance,
                       f"R({a},{A}) resid {resid:.2e} > {allowance:.2e} at v={v:.0e}")

    # pole case (1,-3): theta = -1, so the depth-0 expansion omits the
    # merged log term; residual/v must be linear in log(1/v)
    exp0 = R_expansion(1.0, -3.0, depth=0)
    vs = np.geomspace(1e-2, 1e-5, 7)
    ys = np.array([(R_sum_direct(1.0, -3.0, float(v)).value - exp0.evaluate(float(v))) / v
                   for v in vs])
    logs = np.log(1.0 / vs)
    slope, intercept = np.polyfit(logs, ys, 1)
    fit = slope * logs + intercept
    ss_res = float(np.sum((ys - fit) ** 2))
    ss_tot = float(np.sum((ys - np.mean(ys)) ** 2))
    r2 = 1.0 - ss_res / ss_tot
    chk.expect(r2 > 0.999, f"pole fit R^2 = {r2:.6f}")
    return chk.summary(f"pole fit R^2 = {r2:.8f}, slope {slope:.4f}")


def criterion_8(seed: int = DEFAULT_SEED) -> tuple[bool, str]:
    """Euler-Maclaurin power sums: exact for integer a, 1e-12 for half-integer."""
    chk = _Check()
    for a in (1, 2, 3, 4):
        acc = 0
        for n in range(1, 101):
            acc += n ** a
            got = power_sum(a, n)
            chk.expect(got == acc, f"power_sum({a},{n}) = {got} != {acc}")
    for a in (0.5, 1.5):
        n = 10 ** 4
        acc = NeumaierSum()
        for j in range(1, n + 1):
            acc.add(float(j) ** a)
        direct = acc.value
        got = power_sum(a, n, depth=3)
        rel = abs(got - direct) / direct
        chk.expect(rel <= 1e-12, f"rel {rel:.2e} at a={a}")
    return chk.summary()


def criterion_9(seed: int = DEFAULT_SEED) -> tuple[bool, str]:
    """Trajectory lands on a certified root; conservation holds on the way."""
    chk = _Check()
    fam = PiecewiseConstantFamily(k_value=1.0, N=1)
    rep = solve_roots(1.0, 1, 1.0, 0.2)
    summary = integrate(fam, 0.2, 1.0, initial_state(200), t_end=2000.0)
    chk.expect(summary.converged, "trajectory did not converge")
    gap = min(abs(summary.final.x - rt) for rt in rep.roots)
    chk.expect(gap <= 1e-4, f"final x off by {gap:.2e}")

    # conservation identity along the way: checkpoint states spanning the
    # transient and the settled phase (identity is algebraic, few-ulp)
    eps = np.finfo(float).eps
    worst_ulp = 0.0
    for t_end in (5.0, 50.0, 500.0):
        s2 = integrate(fam, 0.2, 1.0, initial_state(200), t_end=t_end)
        res = conservation_residual(fam, 0.2, 1.0, s2.final)
        scale = 0.2 + s2.final.x * s2.final.total_cells + s2.final.total_load
        worst_ulp = max(worst_ulp, res / (eps * max(scale, 1.0)))
        chk.expect(res <= 4.0 * eps * max(scale, 1.0),
                   f"conservation {res:.2e} at t={t_end}")
    return chk.summary(f"x gap {gap:.2e}; worst conservation {worst_ulp:.1f} ulp")


def criterion_10(seed: int = DEFAULT_SEED) -> tuple[bool, str]:
    """Fitted decay envelope bounds out-of-sample relative tails."""
    chk = _Check()
    details = []
    for a in (1.0, 2.0):
        env = fit_tail_envelope(a, -1.0, np.geomspace(10.0, 100.0, 6))
        margins = []
        for x in (1e3, 1e4):
            cutoff, tail = tail_cutoff_check(a, -1.0, x, envelope=env)
            k_val = K_direct(a, -1.0, x)
            ratio = tail / k_val.value
            margins.append(env.bound(x) / ratio)
        chk.expect(all(m >= 1.0 for m in margins),
                   f"a={a} envelope margin {min(margins):.3f} < 1")
        details.append(f"a={a} margins {margins[0]:.1f}x/{margins[1]:.1f}x")
    return chk.summary("; ".join(details))


CRITERIA: tuple[tuple[int, str, float, object], ...] = (
    (1, "telescoping identity audits", 5.0, criterion_1),
    (2, "piecewise closed forms within tail bounds", 10.0, criterion_2),
    (3, "root multiplicity and threshold", 30.0, criterion_3),
    (4, "regime trichotomy and growth signatures", 60.0, criterion_4),
    (5, "three-term expansion constant (a=1, b=-1)", 60.0, criterion_5),
    (6, "closed form and residual decay (a=1, b=0)", 30.0, criterion_6),
    (7, "residue expansion order and pole log term", 60.0, criterion_7),
    (8, "power-sum formulas", 5.0, criterion_8),
    (9, "dynamics equilibrium cross-check", 60.0, criterion_9),
    (10, "tail cutoff envelope", 60.0, criterion_10),
)


def run_criterion(number: int, seed: int = DEFAULT_SEED) -> CriterionResult:
    for num, title, limit, func in CRITERIA:
        if num == number:
            start = time.perf_counter()
            try:
                passed, details = func(seed)
            except Exception as exc:  # a crash is a failure, not an abort
                passed, details = False, f"raised {type(exc).__name__}: {exc}"
            elapsed = time.perf_counter() - start
            if passed and elapsed > limit:
                passed = False
                details += f"; runtime {elapsed:.1f}s over {limit:.0f}s budget"
            return CriterionResult(num, title, passed, elapsed, limit, details)
    raise ValueError(f"no criterion numbered {number}")


def run_all(seed: int = DEFAULT_SEED) -> list[CriterionResult]:
    return [run_criterion(num, seed) for num, _, _, _ in CRITERIA]


def main() -> int:
    results = run_all()
    for res in results:
        print(res.line)
    failed = sum(1 for r in results if not r.passed)
    print(f"{len(results) - failed}/{len(results)} criteria passed")
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
