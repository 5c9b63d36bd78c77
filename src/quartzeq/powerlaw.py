"""Existence regimes for power-law coefficient families.

With uptake i^{-k_exp}, death i^{-p_exp}, dissolution i^{q_exp}, the
combined exponents a = q_exp + k_exp and b = k_exp - p_exp control the
large-x growth of the equilibrium function: F grows like
x^{(b-(a-1))/(a+1)} up to constants.  Three regimes follow:

    b > a-1   F unbounded: an equilibrium exists for every inflow ratio
    b = a-1   F bounded, sup m approached (possibly only at infinity):
              equilibrium iff alpha/r < m
    b < a-1   F peaks and decays to 0: equilibrium iff alpha/r <= m

The regime is a pure function of (a, b); m has no closed form and is
estimated numerically (log grid plus golden-section refinement), so
existence answers near the threshold are reported as indeterminate
rather than as a guess.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
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
    "estimate_m",
    "estimate_m_with_error",
    "existence_verdict",
    "count_equilibria_probe",
    "second_difference_probe",
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
    """Regime classification, optionally carrying a numerical m estimate."""

    regime: Regime
    a: float
    b: float
    m_estimate: float | None = None
    m_error_bar: float | None = None
    m_attained_at: float | str | None = None

    def existence(self, alpha_over_r: float) -> str:
        """Ternary existence answer: exists / not_exists / at_threshold.

        Threshold regimes compare against the attached m estimate and
        return at_threshold inside its error bar (honest indeterminacy).
        """
        if not (math.isfinite(alpha_over_r) and alpha_over_r > 0.0):
            raise DomainError(f"alpha/r must be positive, got {alpha_over_r}")
        if self.regime is Regime.ALWAYS_EXISTS:
            return EXISTS
        if self.m_estimate is None:
            raise DomainError(
                "threshold regime verdict carries no m estimate; "
                "build it via existence_verdict or attach estimate_m output"
            )
        band = self.m_error_bar if self.m_error_bar is not None else 0.0
        if abs(alpha_over_r - self.m_estimate) <= band:
            return AT_THRESHOLD
        if self.regime is Regime.THRESHOLD_STRICT:
            return EXISTS if alpha_over_r < self.m_estimate else NOT_EXISTS
        return EXISTS if alpha_over_r <= self.m_estimate else NOT_EXISTS


def classify_regime(params: PowerLawFamily) -> RegimeVerdict:
    """Pure regime classification from the exponents (a, b).

    The boundary b = a-1 is detected with absolute tolerance 1e-12 on
    b - (a-1): exponents are user inputs, so exact equality is
    meaningful.  Families with b <= -2 are rejected (the equilibrium
    function degenerates below any polynomial growth there).
    """
    a, b = _check_params(params)
    gap = b - (a - 1.0)
    if abs(gap) <= BOUNDARY_TOL:
        regime = Regime.THRESHOLD_STRICT
    elif gap > 0:
        regime = Regime.ALWAYS_EXISTS
    else:
        regime = Regime.THRESHOLD_WEAK
    return RegimeVerdict(regime, a, b)


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
    """(MEstimate, error bar, number of F evaluations) behind estimate_m.

    The error bar is the F spread over the final search bracket plus the
    series tail bound at the maximizer; for a supremum reported at the
    grid edge it is the gap to the previous octave, which dominates the
    truncation-in-x error.
    """
    a, b = _check_params(params)
    verdict = classify_regime(params)
    if verdict.regime is Regime.ALWAYS_EXISTS:
        raise DomainError(
            "no finite m in the AlwaysExists regime (F is unbounded)"
        )
    if not (math.isfinite(x_max) and x_max > x_min > 0.0):
        raise DomainError(f"need x_max > x_min > 0, got {x_max}, {x_min}")
    if grid < 8:
        raise DomainError(f"grid must be >= 8 points, got {grid}")

    evals = 0

    def f(x: float) -> float:
        nonlocal evals
        evals += 1
        return _F(params, x, term_cap)

    xs = np.geomspace(x_min, x_max, grid)
    vals = [f(float(x)) for x in xs]
    j = int(np.argmax(vals))

    edge = j >= grid - 1
    still_rising = vals[-1] >= vals[-2]
    if edge or (verdict.regime is Regime.THRESHOLD_STRICT and still_rising):
        if verdict.regime is Regime.THRESHOLD_WEAK:
            raise ConvergenceError(
                f"F still increasing at x_max={x_max} in ThresholdWeak regime; "
                "the interior maximum lies beyond the grid, raise x_max",
                series="estimate_m", x=x_max,
            )
        m = vals[-1]
        err = abs(vals[-1] - vals[-2]) + F_equilibrium(
            params, float(xs[-1]), cross_check=False
        ).tail_bound
        return MEstimate(m, SUPREMUM_AT_INFINITY), err, evals

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


def estimate_m(params: PowerLawFamily, x_max: float = 1e6,
               grid: int = 200) -> MEstimate:
    """Numerical supremum of F: (m, maximizer or "supremum at infinity").

    Log-grid sweep up to x_max plus golden-section refinement around the
    best cell.  In the ThresholdStrict regime, when the best value sits
    at the grid edge with F still rising, the supremum is approached
    only as x -> oo and the boundary value is reported with the flag; in
    the ThresholdWeak regime the same situation means x_max is too small
    and is an error (F must eventually decay there).
    """
    est, _, _ = estimate_m_with_error(params, x_max, grid)
    return est


def existence_verdict(params: PowerLawFamily, alpha: float, r: float, *,
                      x_max: float = 1e6, grid: int = 200) -> str:
    """Ternary equilibrium-existence answer for inflow alpha, supply r.

    AlwaysExists regime answers without any numerics; threshold regimes
    estimate m first and answer at_threshold within its error bar.
    """
    if not (math.isfinite(alpha) and alpha > 0.0):
        raise DomainError(f"alpha must be positive, got {alpha}")
    if not (math.isfinite(r) and r > 0.0):
        raise DomainError(f"r must be positive, got {r}")
    verdict = classify_regime(params)
    if verdict.regime is Regime.ALWAYS_EXISTS:
        return EXISTS
    est, err, _ = estimate_m_with_error(params, x_max, grid)
    full = RegimeVerdict(
        verdict.regime, verdict.a, verdict.b,
        m_estimate=est.m, m_error_bar=err, m_attained_at=est.attained_at,
    )
    return full.existence(alpha / r)


def count_equilibria_probe(params: PowerLawFamily, alpha: float, r: float, *,
                           x_min: float = 1e-4, x_max: float = 1e6,
                           grid: int = 400) -> tuple[int, tuple[float, ...]]:
    """Heuristic equilibrium count: sign changes of F - alpha/r on a log grid.

    Each sign change is refined by bisection, so every returned root is
    genuine; the COUNT is only as good as the grid (roots closer than one
    grid cell merge, roots outside [x_min, x_max] are missed).  No
    uniqueness theorem backs this in the power-law case.
    """
    if not (math.isfinite(alpha) and alpha > 0.0 and math.isfinite(r) and r > 0.0):
        raise DomainError("alpha and r must be positive")
    _check_params(params)
    phi = alpha / r
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


def second_difference_probe(params: PowerLawFamily, xs) -> tuple[tuple[float, float], ...]:
    """Exploratory curvature samples of H: (x_mid, second difference).

    Provided for eyeballing convexity behavior only; no conclusions are
    drawn from it, and none should be (uniform grids in x, no error
    control beyond the series tolerance).
    """
    from .series import H_series

    xs = sorted(float(x) for x in xs)
    if len(xs) < 3:
        raise DomainError("need at least 3 sample points")
    vals = [H_series(params, x).value for x in xs]
    out = []
    for i in range(1, len(xs) - 1):
        h1 = xs[i] - xs[i - 1]
        h2 = xs[i + 1] - xs[i]
        if h1 <= 0 or h2 <= 0:
            continue
        d2 = 2.0 * (
            vals[i - 1] / (h1 * (h1 + h2))
            - vals[i] / (h1 * h2)
            + vals[i + 1] / (h2 * (h1 + h2))
        )
        out.append((xs[i], d2))
    return tuple(out)
