"""Existence regimes for power-law coefficient families.

With uptake i^{-k_exp}, death i^{-p_exp}, dissolution i^{q_exp}, the
combined exponents a = q_exp + k_exp and b = k_exp - p_exp control the
large-x growth of the equilibrium function: F grows like
x^{(b-(a-1))/(a+1)} up to constants.  Three regimes follow:

    b > a-1   F unbounded: an equilibrium exists for every inflow ratio
    b = a-1   F < 1 everywhere and F -> 1: m = 1 exactly, never attained,
              so an equilibrium exists iff alpha/r < 1
    b < a-1   F peaks and decays to 0: equilibrium iff alpha/r <= m

On b = a-1, i rho_i = i^a and d_i = i^a + i^(a-1), so the d-identity
sum_i d_i Q_i = x gives H = x - sum_i i^(a-1) Q_i < x, a sum that is o(x).

The regime is a pure function of (a, b).  Below the line m has no closed
form and is estimated numerically (log grid plus golden-section
refinement), so existence answers inside its error bar are reported as
indeterminate rather than as a guess.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from enum import Enum
from typing import NamedTuple

import numpy as np

from .coefficients import PowerLawFamily
from .errors import ConvergenceError, DomainError
from .series import F_equilibrium

__all__ = [
    "Regime",
    "RegimeVerdict",
    "classify_regime",
    "MEstimate",
    "estimate_m_with_error",
    "existence_verdict",
    "count_equilibria_probe",
    "SUPREMUM_AT_INFINITY",
]

BOUNDARY_TOL = 1e-12
SUPREMUM_AT_INFINITY = "supremum at infinity"

EXISTS = "exists"
NOT_EXISTS = "not_exists"
AT_THRESHOLD = "at_threshold"


class Regime(str, Enum):
    ALWAYS_EXISTS = "AlwaysExists"
    THRESHOLD_STRICT = "ThresholdStrict"
    THRESHOLD_WEAK = "ThresholdWeak"


def _check_params(fam: PowerLawFamily) -> tuple[float, float]:
    a, b = fam.a, fam.b
    if not (math.isfinite(a) and a >= 0.0):
        raise DomainError(f"requires a >= 0, got a={a}")
    if not (math.isfinite(b) and b > -2.0):
        raise DomainError(f"requires b > -2, got b={b}")
    return a, b


@dataclass(frozen=True)
class RegimeVerdict:
    """Regime classification, carrying m where it is known.

    ThresholdStrict verdicts carry the exact m = 1 from classify_regime;
    ThresholdWeak ones carry m only once an estimate is attached.
    """

    regime: Regime
    a: float
    b: float
    m_estimate: float | None = None
    m_error_bar: float | None = None
    m_attained_at: float | str | None = None

    def existence(self, alpha_over_r: float) -> str:
        """Ternary existence answer: exists / not_exists / at_threshold.

        Threshold regimes compare against the attached m and return
        at_threshold inside a nonzero error bar (honest indeterminacy).
        With an exact m the comparison decides: a supremum approached
        only at infinity admits no equilibrium at alpha/r = m.
        """
        if not (math.isfinite(alpha_over_r) and alpha_over_r > 0.0):
            raise DomainError(f"alpha/r must be positive, got {alpha_over_r}")
        if self.regime is Regime.ALWAYS_EXISTS:
            return EXISTS
        if self.m_estimate is None:
            raise DomainError(
                "threshold regime verdict carries no m estimate; "
                "build it via existence_verdict or attach estimate_m_with_error output"
            )
        band = self.m_error_bar or 0.0
        if band > 0.0 and abs(alpha_over_r - self.m_estimate) <= band:
            return AT_THRESHOLD
        if self.regime is Regime.THRESHOLD_STRICT:
            return EXISTS if alpha_over_r < self.m_estimate else NOT_EXISTS
        return EXISTS if alpha_over_r <= self.m_estimate else NOT_EXISTS


def classify_regime(params: PowerLawFamily) -> RegimeVerdict:
    """Pure regime classification from the exponents (a, b).

    The boundary b = a-1 is detected with absolute tolerance 1e-12 on
    b - (a-1): exponents are user inputs, so exact equality is
    meaningful.  On that line the verdict carries the exact m = 1, the
    supremum at infinity (module docstring).  Families with b <= -2 are
    rejected (the equilibrium function degenerates below any polynomial
    growth there).
    """
    a, b = _check_params(params)
    gap = b - (a - 1.0)
    if abs(gap) <= BOUNDARY_TOL:
        return RegimeVerdict(Regime.THRESHOLD_STRICT, a, b, m_estimate=1.0,
                             m_error_bar=0.0, m_attained_at=SUPREMUM_AT_INFINITY)
    return RegimeVerdict(Regime.ALWAYS_EXISTS if gap > 0 else Regime.THRESHOLD_WEAK, a, b)


class MEstimate(NamedTuple):
    m: float
    attained_at: float | str


_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def _F(fam: PowerLawFamily, x: float, term_cap: int) -> float:
    # scans tolerate looser certification; the cohort-balance check is
    # exercised separately by the series tests
    return F_equilibrium(fam, x, tol=1e-11, term_cap=term_cap, cross_check=False).value


def _golden_max(f, lo: float, hi: float, iters: int = 60) -> tuple[float, float, float]:
    """(argmax, max, bracket width) of a unimodal f on [lo, hi], log scale."""
    t_lo, t_hi = math.log(lo), math.log(hi)
    t1 = t_hi - _GOLDEN * (t_hi - t_lo)
    t2 = t_lo + _GOLDEN * (t_hi - t_lo)
    f1, f2 = f(math.exp(t1)), f(math.exp(t2))
    for _ in range(iters):
        if t_hi - t_lo < 1e-12:
            break
        if f1 < f2:
            t_lo, t1, f1 = t1, t2, f2
            t2 = t_lo + _GOLDEN * (t_hi - t_lo)
            f2 = f(math.exp(t2))
        else:
            t_hi, t2, f2 = t2, t1, f1
            t1 = t_hi - _GOLDEN * (t_hi - t_lo)
            f1 = f(math.exp(t1))
    t_best, f_best = (t1, f1) if f1 >= f2 else (t2, f2)
    return math.exp(t_best), f_best, math.exp(t_hi) - math.exp(t_lo)


def estimate_m_with_error(params: PowerLawFamily, x_max: float = 1e6,
                          grid: int = 200, *, x_min: float = 1e-3,
                          term_cap: int = 10**6) -> tuple[MEstimate, float, int]:
    """(MEstimate, error bar, number of F evaluations) for sup F.

    On the critical line b = a-1 the answer is exact and takes no F
    evaluations: m = 1, approached only as x -> oo, with error bar 0
    (module docstring).  Below it the estimate is m with its maximizer:
    a log-grid sweep up to x_max plus golden-section refinement around
    the best cell.  A maximum at the grid edge means x_max is too small
    and is an error (F must eventually decay there).

    The error bar is the F spread over the final search bracket plus the
    series tail bound at the maximizer.
    """
    verdict = classify_regime(params)
    if verdict.regime is Regime.ALWAYS_EXISTS:
        raise DomainError(
            "no finite m in the AlwaysExists regime (F is unbounded)"
        )
    if not (math.isfinite(x_max) and x_max > x_min > 0.0):
        raise DomainError(f"need x_max > x_min > 0, got {x_max}, {x_min}")
    if grid < 8:
        raise DomainError(f"grid must be >= 8 points, got {grid}")
    if verdict.regime is Regime.THRESHOLD_STRICT:
        return MEstimate(verdict.m_estimate, verdict.m_attained_at), verdict.m_error_bar, 0

    evals = 0

    def f(x: float) -> float:
        nonlocal evals
        evals += 1
        return _F(params, x, term_cap)

    xs = np.geomspace(x_min, x_max, grid)
    vals = [f(float(x)) for x in xs]
    j = int(np.argmax(vals))
    if j >= grid - 1:
        raise ConvergenceError(
            f"F still increasing at x_max={x_max} in ThresholdWeak regime; "
            "the interior maximum lies beyond the grid, raise x_max",
            series="estimate_m", x=x_max,
        )

    lo = float(xs[max(j - 1, 0)])
    hi = float(xs[min(j + 1, grid - 1)])
    x_best, f_best, width = _golden_max(f, lo, hi)
    bv = F_equilibrium(params, x_best, cross_check=False)
    err = (
        abs(f_best - f(max(x_best - width, lo)))
        + abs(f_best - f(min(x_best + width, hi)))
        + bv.tail_bound
    )
    return MEstimate(max(f_best, bv.value), x_best), err, evals


def _inflow_ratio(alpha: float, r: float) -> float:
    """alpha / r after checking that both are finite and positive."""
    if not (math.isfinite(alpha) and alpha > 0.0):
        raise DomainError(f"alpha must be positive, got {alpha}")
    if not (math.isfinite(r) and r > 0.0):
        raise DomainError(f"r must be positive, got {r}")
    return alpha / r


def existence_verdict(params: PowerLawFamily, alpha: float, r: float, *,
                      x_max: float = 1e6, grid: int = 200) -> str:
    """Ternary equilibrium-existence answer for inflow alpha, supply r.

    AlwaysExists and ThresholdStrict answer without any numerics (the
    latter against the exact m = 1); ThresholdWeak estimates m first and
    answers at_threshold within its error bar.
    """
    phi = _inflow_ratio(alpha, r)
    verdict = classify_regime(params)
    if verdict.regime is Regime.THRESHOLD_WEAK:
        est, err, _ = estimate_m_with_error(params, x_max, grid)
        verdict = replace(verdict, m_estimate=est.m, m_error_bar=err,
                          m_attained_at=est.attained_at)
    return verdict.existence(phi)


def count_equilibria_probe(params: PowerLawFamily, alpha: float, r: float, *,
                           x_min: float = 1e-4, x_max: float = 1e6,
                           grid: int = 400) -> tuple[int, tuple[float, ...]]:
    """Heuristic equilibrium count: sign changes of F - alpha/r on a log grid.

    Each sign change is refined by bisection, so every returned root is
    genuine; the COUNT is only as good as the grid (roots closer than one
    grid cell merge, roots outside [x_min, x_max] are missed).  No
    uniqueness theorem backs this in the power-law case.
    """
    phi = _inflow_ratio(alpha, r)
    _check_params(params)
    xs = np.geomspace(x_min, x_max, grid)
    vals = [_F(params, float(x), 10**6) - phi for x in xs]
    roots = []
    for i in range(len(xs) - 1):
        lo_v, hi_v = vals[i], vals[i + 1]
        if lo_v == 0.0:
            roots.append(float(xs[i]))
            continue
        if (lo_v > 0.0) == (hi_v > 0.0):
            continue
        lo_x, hi_x = float(xs[i]), float(xs[i + 1])
        for _ in range(200):
            mid = math.sqrt(lo_x * hi_x)
            if mid <= lo_x or mid >= hi_x:
                break
            mv = _F(params, mid, 10**6) - phi
            if mv == 0.0:
                lo_x = hi_x = mid
                break
            if (mv > 0.0) == (lo_v > 0.0):
                lo_x = mid
            else:
                hi_x = mid
        roots.append(0.5 * (lo_x + hi_x))
    if vals and vals[-1] == 0.0:
        roots.append(float(xs[-1]))
    return len(roots), tuple(roots)

