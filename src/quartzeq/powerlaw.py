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
form and is estimated numerically (a log grid from 1e-3 with no right
end, in slices of 25 rows, one series.evaluate walk each, then rounds of
25 rows, one walk each, across the bracket of the best row so far and its
two neighbours), so existence answers inside its error bar are reported
as indeterminate rather than as a guess.  The same d-identity bounds F
below the line too: with c_n = sup_{i>=n} i rho_i / d_i,
F(x) < sum_{i<n} i rho_i / x + c_n at every x (_weak_F_bound).  One slice
scan (_F_scan) serves both searches and stops only where that bound
proves F below a floor at every larger x: the largest F seen for the m
estimate, alpha/r for the root probe.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace
from enum import Enum
from typing import NamedTuple

import numpy as np

from .coefficients import PowerLawFamily
from .errors import ConvergenceError, DomainError, _inflow_ratio
from .piecewise import _bisect_to_adjacent
from .series import evaluate

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
    a, b = params.a, params.b
    if not (math.isfinite(a) and a >= 0.0):
        raise DomainError(f"requires a >= 0, got a={a}")
    if not (math.isfinite(b) and b > -2.0):
        raise DomainError(f"requires b > -2, got b={b}")
    gap = b - (a - 1.0)
    if abs(gap) <= BOUNDARY_TOL:
        return RegimeVerdict(Regime.THRESHOLD_STRICT, a, b, m_estimate=1.0,
                             m_error_bar=0.0, m_attained_at=SUPREMUM_AT_INFINITY)
    return RegimeVerdict(Regime.ALWAYS_EXISTS if gap > 0 else Regime.THRESHOLD_WEAK, a, b)


class MEstimate(NamedTuple):
    m: float
    attained_at: float | str


_SLICE = 25  # rows per evaluate walk of a ThresholdWeak scan or rescan round
_M_STEP = math.log(1e6 / 1e-3) / 199  # m scan row spacing in log x: 199 rows per 9 decades
_BOUND_MARGIN = 1e-6  # relative rounding margin of _weak_F_bound


def _weak_F_bound(fam: PowerLawFamily, x: float) -> float:
    """A certified upper bound on F(x), x > 0, for a ThresholdWeak power law.

    With e = 1 + b, i rho_i = i^e and d_i = i^a + i^b, so
    i rho_i / d_i <= i^(e-a), which decreases because e - a = b - (a-1) < 0:
    c_n = n^(e-a) bounds sup_{i>=n} i rho_i / d_i.  Split H at n.  Below n,
    Q_i <= 1 and, as e > -1, sum_{i<n} i^e <= 1 + n^(e+1)/(e+1) (compare
    each term with the integral of t^e over the adjacent unit cell; the 1
    covers i = 1 when t^e decreases).  From n on, i rho_i Q_i <= c_n d_i Q_i,
    and the d-identity sum_{i<=N} d_i Q_i = x (1 - Q_N) <= x bounds their
    sum by c_n x.  With d_0 > 0,

        F(x) = H(x) / (x + d_0) < H(x) / x <= (1 + n^(e+1)/(e+1)) / x + n^(e-a)

    at every n >= 1.  The minimum is taken over n = 1, 2, 4, ...: it stops
    once the first part alone exceeds the best bound, since that part only
    grows with n.  Every bound here falls as x grows.  The result is
    inflated by _BOUND_MARGIN, far above both the few roundings of this
    arithmetic and the rounding envelope of a computed F, (2n + 72) eps
    relative (series.certified) or below 5e-10 within the 10^6 term cap.
    """
    a, e = fam.a, 1.0 + fam.b
    best, n = math.inf, 1.0
    while True:
        try:
            head = (1.0 + n ** (e + 1.0) / (e + 1.0)) / x
        except OverflowError:  # n^(e+1) is past the doubles: larger n only lose
            head = math.inf
        if head >= best:
            return best * (1.0 + _BOUND_MARGIN)
        best = min(best, head + n ** (e - a))
        n *= 2.0


def _F_rows(params: PowerLawFamily, xs) -> list[float]:
    """F at every x in xs from one series.evaluate walk, without the cross-check."""
    return [bv.value for bv in evaluate(params, "F", xs, cross_check=False)]


def _m_rows(start: int) -> np.ndarray:
    """x at the _SLICE rows from row start of the m scan's log grid: row k is
    10^(9k/199 - 3), so rows 0-199 are np.geomspace(1e-3, 1e6, 200) bit for
    bit.  Past 1e308, near the largest double, it is a ConvergenceError."""
    log10_xs = np.arange(start, start + _SLICE) * (9.0 / 199) + (-3.0)
    if log10_xs[-1] > 308.0:
        raise ConvergenceError("F still rising at x = 1e308: sup F lies past the doubles",
                               series="estimate_m", x=1e308)
    return 10.0 ** log10_xs


def _F_scan(params: PowerLawFamily, slices, floor: float | None = None):
    """Yield (xs, F at xs) for each x array in slices, the pieces of an
    increasing grid, one evaluate walk each: every row is bit for bit its
    one-x walk.  A ThresholdWeak family stops before a slice whose smallest
    x has _weak_F_bound (a bound on F at every larger x) below the floor,
    or below the largest F yielded when floor is None.
    """
    weak = classify_regime(params).regime is Regime.THRESHOLD_WEAK
    level = -math.inf if floor is None else floor
    for xs in slices:
        if weak and _weak_F_bound(params, float(xs[0])) < level:
            return
        vals = _F_rows(params, xs)
        if floor is None:
            level = max(level, *vals)
        yield xs, vals


def estimate_m_with_error(params: PowerLawFamily) -> tuple[MEstimate, float, int]:
    """(MEstimate, error bar, number of F evaluations) for sup F.

    On the critical line b = a-1 the answer is exact and takes no F
    evaluations: m = 1, approached only as x -> oo, with error bar 0
    (module docstring).  Below it the estimate is m with its maximizer:
    _F_scan over the log grid of _m_rows, 199 rows per 9 decades from
    x = 1e-3, then rounds that rescan the bracket of the best row and its
    two neighbours.  Only _weak_F_bound stops the scan: before a slice where
    it proves every later row below the largest F scanned.  No fixed right
    end would do, since for a large a F can rest on a plateau past 1e6 and
    climb again; the grid ends near 1e308 (_m_rows).

    Each round is one evaluate walk over _SLICE rows, evenly spaced in
    log x across the bracket and centred on the best row so far, which is
    therefore walked again at the same x, to the same F.  So m is the
    largest F of any walk here, and each round's best row with its two
    neighbours is the next bracket, 12 times narrower.  The rounds stop once
    the F spread over that bracket, F(best) - F(left) + F(best) - F(right),
    is at most the best row's series tail bound, or the bracket is below
    1e-12 wide in log x.  The error bar is that spread plus that tail
    bound, and attained_at is resolved only to the final bracket (about
    1e-7 relative, where F is flat to rounding).  The evaluation count is
    every row walked (250 for (2, 0): 125 grid rows and 5 rounds of 25).
    """
    verdict, evals = _regime_verdict(params)
    if verdict.regime is Regime.ALWAYS_EXISTS:
        raise DomainError("no finite m in the AlwaysExists regime (F is unbounded)")
    return MEstimate(verdict.m_estimate, verdict.m_attained_at), verdict.m_error_bar, evals


def _regime_verdict(params: PowerLawFamily) -> tuple[RegimeVerdict, int]:
    """(regime verdict, F evaluations) with the sup F search of
    estimate_m_with_error: a ThresholdWeak verdict carries m, its error bar
    and its maximizer; the others take no F."""
    verdict = classify_regime(params)
    if verdict.regime is not Regime.THRESHOLD_WEAK:
        return verdict, 0

    xs, vals = [], []
    for row_xs, rows in _F_scan(params, map(_m_rows, itertools.count(0, _SLICE))):
        xs += row_xs.tolist()
        vals += rows
    evals = len(vals)
    x_best, step = xs[int(np.argmax(vals))], _M_STEP
    half = _SLICE // 2
    while True:
        step /= half  # the rows' spacing in log x, and the next bracket's half-width
        row_xs = x_best * np.exp(np.arange(-half, half + 1) * step)
        rows = evaluate(params, "F", row_xs, cross_check=False)
        evals += _SLICE
        k = int(np.argmax([bv.value for bv in rows]))
        best, x_best = rows[k], float(row_xs[k])
        spread = ((best.value - rows[max(k - 1, 0)].value)
                  + (best.value - rows[min(k + 1, _SLICE - 1)].value))
        if spread <= best.tail_bound or 2.0 * step < 1e-12:
            return replace(verdict, m_estimate=best.value, m_attained_at=x_best,
                           m_error_bar=spread + best.tail_bound), evals


def existence_verdict(params: PowerLawFamily, alpha: float, r: float) -> str:
    """Ternary equilibrium-existence answer for inflow alpha, supply r.

    AlwaysExists and ThresholdStrict answer without any numerics (the
    latter against the exact m = 1); ThresholdWeak estimates m first and
    answers at_threshold within its error bar.
    """
    phi = _inflow_ratio(alpha, r)
    return _regime_verdict(params)[0].existence(phi)


def count_equilibria_probe(params: PowerLawFamily, alpha: float,
                           r: float) -> tuple[int, tuple[float, ...]]:
    """Heuristic equilibrium count: sign changes of F - alpha/r on a log grid.

    The grid has 400 points over [1e-4, 1e6].  Each sign change is
    bisected to adjacent floats (piecewise._bisect_to_adjacent), so every
    returned root is genuine; the COUNT is only as good as the grid (roots
    closer than one grid cell merge, roots outside the grid are missed).
    No uniqueness theorem backs this in the power-law case.  The grid is
    read by _F_scan in slices of 25 rows, with alpha/r as its floor; the
    first row it skips counts as below alpha/r, as every later one is, so
    the brackets and roots are bit for bit those of the whole grid.  A
    ThresholdStrict family at alpha/r >= 1 has no root and is not scanned:
    F < m = 1 at every x (classify_regime's exact m).
    """
    phi = _inflow_ratio(alpha, r)
    verdict = classify_regime(params)
    if verdict.regime is Regime.THRESHOLD_STRICT and phi >= verdict.m_estimate:
        return 0, ()
    xs = np.geomspace(1e-4, 1e6, 400)
    slices = np.split(xs, range(_SLICE, len(xs), _SLICE))
    vals = [v - phi for _, rows in _F_scan(params, slices, phi) for v in rows]
    if len(vals) < len(xs):
        vals.append(-math.inf)  # the first skipped row; no later row crosses

    def g(x: float) -> float:
        return _F_rows(params, [x])[0] - phi

    # a root at each grid point where F = alpha/r, and one across each strict
    # sign change between neighbours
    roots = []
    for i, v in enumerate(vals):
        if v == 0.0:
            roots.append(float(xs[i]))
        elif i + 1 < len(vals) and vals[i + 1] != 0.0 and (v > 0.0) != (vals[i + 1] > 0.0):
            roots.append(_bisect_to_adjacent(g, float(xs[i]), v, float(xs[i + 1]), vals[i + 1]))
    return len(roots), tuple(roots)
