"""Certified evaluation of the equilibrium cohort series.

At an equilibrium with free-dust level x > 0 and supply r, the cohort
sizes are

    M_i = r x^i / (k_i * prod_{j=0..i} (x + d_j)),

equivalently k_i M_i = r/(x+d_0) * Q_i with Q_i = prod_{j=1..i} x/(x+d_j).
Every series evaluated here is a nonnegative weighted sum of the Q_i:

    sum_kM  : weight 1            (total uptake flux / x)
    sum_iqM : weight i q_i / k_i  (dust re-released by death)
    H       : weight i rho_i      (drives the equilibrium function)

and the equilibrium function itself is F(x) = H(x) / (x + d_0).

One kernel, blocked_sum, walks the Q_i in blocks once and accumulates
every requested weight in that pass; the audits, tail_product and the
direct sums of the asymptotics module call it too.

Truncation control: past an index n where the certified step-ratio bound
    s_n = [sup_{i>=n} w_{i+1}/w_i] * x / (x + inf_{i>n} d_i)
drops below 1, the tail is at most t_n * s_n / (1 - s_n).  Reported
tail bounds add a standard floating-point envelope on top of the
truncation bound, so the interval [value - tail_bound, value + tail_bound]
honestly covers the exact sum.

F_equilibrium's cross-check sums the weights 1 and i g_i alongside H and
tests, at the index n where H stopped, the exact finite-n cohort balance

    x (1 + sum_{i<=n} Q_i) - sum_{i<=n} i g_i Q_i
        = sum_{i<=n} i rho_i Q_i + (n+1) x Q_n

against its rounding envelope.  It verifies the summed products and that
d = rho + g; it does not verify the truncation bound, which rests on the
family's ratio certificate alone.  All functions are pure.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Iterator, NamedTuple

import numpy as np

from .accumulate import NeumaierSum
from .coefficients import CoefficientFamily
from .errors import ConsistencyError, ConvergenceError, DomainError

__all__ = [
    "BoundedValue",
    "EquilibriumProfile",
    "GridSpec",
    "GridRow",
    "sum_kM",
    "sum_iqM",
    "H_series",
    "F_equilibrium",
    "cohort_profile",
    "audit_G_identity",
    "audit_d_identity",
    "tail_product",
    "grid_evaluate",
]

DEFAULT_TOL = 1e-12
DEFAULT_TERM_CAP = 10**6

_EPS = sys.float_info.epsilon
_UNDERFLOW_FLOOR = 2.3e-308  # just above the smallest normal double
_TINY = 2.0**-1074  # spacing of the subnormal doubles


@dataclass(frozen=True)
class BoundedValue:
    """A numeric result with a certified error bound.

    tail_bound covers both the omitted series tail and the rounding
    envelope of the computed part, so the exact quantity lies in
    [value - tail_bound, value + tail_bound].  The omitted tail of a
    nonnegative series only adds, so the value falls short of the exact
    sum by up to tail_bound but exceeds it only by rounding.
    """

    value: float
    tail_bound: float
    terms_used: int

    def __post_init__(self):
        if not math.isfinite(self.value):
            raise DomainError(f"non-finite series value {self.value}")
        if not (self.tail_bound >= 0.0):
            raise DomainError(f"negative tail bound {self.tail_bound}")


@dataclass(frozen=True)
class EquilibriumProfile:
    """Truncated equilibrium cohort profile M_0..M_n plus a mass tail bound."""

    x: float
    r: float
    M: np.ndarray
    tail_mass_bound: float
    requested_n: int

    @property
    def n(self) -> int:
        return len(self.M) - 1


class _Walk(NamedTuple):
    sums: tuple[float, ...]  # one compensated partial sum per weight
    trunc_tail: float  # truncation bound of the first weight's series
    n: int  # last index summed
    q_n: float  # the running product at n


def blocked_sum(factors, weights, stop, *, cap: int, tol: float = 0.0,
                name: str = "series", x: float | None = None,
                start: int = 0, q: float = 1.0) -> _Walk:
    """The certified summation kernel shared by every series in the package.

    Walks Q_i = q * prod_{j=start+1..i} factors(j) over i = start+1, ... in
    blocks of 64 doubling to 8192 indices, and adds sum w(i) Q_i to one
    compensated sum per weight, all in the same pass (None is the unit
    weight).  With stop=None the walk ends after index cap.  Otherwise
    stop(n) bounds sup_{i>=n} T_{i+1}/T_i for the terms T_i of the first
    weight's series: 0 when every later term vanishes, >= 1 or inf while no
    bound is known.  The walk ends at the first block boundary where the
    geometric tail T_n s / (1 - s) is at most tol or Q has underflowed, and
    raises ConvergenceError when it reaches index cap first.
    """
    accs = [NeumaierSum() for _ in weights]
    n, block = start, 64
    while n < cap:
        hi = min(n + block, cap)
        idx = np.arange(n + 1, hi + 1)
        qvals = q * np.cumprod(factors(idx))
        terms = [qvals if w is None else w(idx) * qvals for w in weights]
        for acc, t in zip(accs, terms):
            acc.add(float(t.sum()))
        q, n = float(qvals[-1]), hi
        s = math.inf if stop is None else stop(n)
        if s < 1.0:
            # once Q has underflowed, the true tail is below any usable tol
            exact = s == 0.0 or q < _UNDERFLOW_FLOOR
            tail = 0.0 if exact else float(terms[0][-1]) * s / (1.0 - s)
            if tail <= tol:
                return _Walk(tuple(a.value for a in accs), tail, n, q)
        block = min(block * 2, 8192)
    if stop is None:
        return _Walk(tuple(a.value for a in accs), 0.0, n, q)
    raise ConvergenceError(
        f"{name} did not reach tol={tol} within {cap - start} terms at x={x}",
        series=name, x=x, terms_used=cap - start,
    )


def certified(walk: _Walk, pref: float = 1.0, head: float = 0.0,
              start: int = 0) -> BoundedValue:
    """pref * (head + first sum of a walk over nonnegative terms), bounded.

    The tail bound adds to the truncation bound a floating-point envelope:
    cumulative product drift (linear in the index, worst case) plus
    block-pairwise summation error, and a few ulps of the result.
    """
    total = walk.sums[0]
    value = pref * (head + total)
    envelope = _EPS * (total * pref) * (2.0 * walk.n + 64.0)
    tail = pref * walk.trunc_tail + envelope + 4.0 * _EPS * abs(value)
    return BoundedValue(value, tail, walk.n - start)


def _q_factors(fam: CoefficientFamily, x: float):
    return lambda idx: x / (x + fam.d_values(idx))


def _q_walk(fam, x, which, tol, term_cap, name) -> _Walk:
    """Sums of w_i Q_i for the weights named in ``which``, in one pass that
    stops when the first one's tail meets tol."""
    series = {  # name: (w_i, sup_{i>=n} w_{i+1}/w_i)
        "ones": (None, lambda n: 1.0),
        "iq": (lambda idx: idx * fam.g_values(idx), fam.iq_ratio_sup),
        "irho": (lambda idx: idx * fam.rho_values(idx), fam.irho_ratio_sup),
    }
    ratio_sup = series[which[0]][1]

    def stop(n):
        sup = ratio_sup(n)
        if not 0.0 < sup < math.inf:
            return sup
        return sup * x / (x + fam.d_inf_beyond(n))

    return blocked_sum(_q_factors(fam, x), [series[w][0] for w in which], stop,
                       cap=term_cap, tol=tol, name=name, x=x)


def _check_x(x: float) -> None:
    if not (math.isfinite(x) and x >= 0.0):
        raise DomainError(f"x must be finite and >= 0, got {x}")


def _check_r(r: float) -> None:
    if not (math.isfinite(r) and r > 0.0):
        raise DomainError(f"r must be finite and positive, got {r}")


def sum_kM(fam: CoefficientFamily, x: float, r: float = 1.0, *,
           tol: float = DEFAULT_TOL, term_cap: int = DEFAULT_TERM_CAP) -> BoundedValue:
    """sum_i k_i M_i at the equilibrium profile."""
    _check_x(x)
    _check_r(r)
    d0 = fam.d(0)
    if x == 0.0:
        return BoundedValue(r * fam.k(0) / (fam.p(0) + fam.q(0)), 0.0, 1)
    pref = r / (x + d0)
    core_tol = tol / pref if pref > 0 else tol
    walk = _q_walk(fam, x, ("ones",), core_tol, term_cap, "sum_kM")
    return certified(walk, pref, head=1.0, start=-1)  # Q_0 = 1 counts as a term


def sum_iqM(fam: CoefficientFamily, x: float, r: float = 1.0, *,
            tol: float = DEFAULT_TOL, term_cap: int = DEFAULT_TERM_CAP) -> BoundedValue:
    """sum_i i q_i M_i at the equilibrium profile (dust re-release rate)."""
    _check_x(x)
    _check_r(r)
    if x == 0.0:
        return BoundedValue(0.0, 0.0, 1)
    pref = r / (x + fam.d(0))
    core_tol = tol / pref if pref > 0 else tol
    return certified(_q_walk(fam, x, ("iq",), core_tol, term_cap, "sum_iqM"), pref)


def H_series(fam: CoefficientFamily, x: float, *,
             tol: float = DEFAULT_TOL, term_cap: int = DEFAULT_TERM_CAP) -> BoundedValue:
    """H(x) = sum_{i>=1} i rho_i prod_{j<=i} x/(x+d_j)."""
    _check_x(x)
    if x == 0.0:
        return BoundedValue(0.0, 0.0, 0)
    return certified(_q_walk(fam, x, ("irho",), tol, term_cap, "H_series"))


def F_equilibrium(fam: CoefficientFamily, x: float, *,
                  tol: float = DEFAULT_TOL, term_cap: int = DEFAULT_TERM_CAP,
                  cross_check: bool = True) -> BoundedValue:
    """Equilibrium function F(x) = H(x) / (x + d_0).

    An equilibrium with dust inflow alpha and cell supply r exists at x
    iff F(x) = alpha/r.  Evaluated through the all-nonnegative H form.

    With cross_check, the same pass also sums S1_n = sum_{i<=n} Q_i and
    Siq_n = sum_{i<=n} i g_i Q_i up to the index n where H stopped, and
    the cohort balance

        x (1 + S1_n) - Siq_n = H_n + (n+1) x Q_n

    (the cohort equations multiplied by i and summed, exact at every
    finite n) must hold within its rounding envelope, or ConsistencyError
    is raised.  That verifies the summed products against d and that the
    family's d_values equal rho_values + g_values.  It does not verify the
    truncation bound of the omitted tail, which rests on the family's
    ratio certificate (irho_ratio_sup, d_inf_beyond).
    """
    _check_x(x)
    if x == 0.0:
        return BoundedValue(0.0, 0.0, 0)
    which = ("irho", "ones", "iq") if cross_check else ("irho",)
    walk = _q_walk(fam, x, which, tol, term_cap, "H_series")
    if cross_check:
        _check_balance(fam, x, walk)
    h = certified(walk)
    denom = x + fam.d(0)
    value = h.value / denom
    tail = h.tail_bound / denom + 4.0 * _EPS * abs(value)
    return BoundedValue(value, tail, h.terms_used)


def _check_balance(fam: CoefficientFamily, x: float, walk: _Walk) -> None:
    """Raise ConsistencyError unless the finite-n cohort balance holds.

    The envelope is first order in the unit roundoff eps/2: each Q_i
    carries at most 3i roundings (sum, quotient, running product) plus one
    per block, each weight and term up to 4, each block sum up to
    log2(8192) + 1 = 14 and each family's d against rho + g up to 4, so
    every summed magnitude is off by at most (3n + 32) eps/2.  Counted in
    eps it has a factor 2 of headroom.  Below the normal range roundings are
    absolute, at most _TINY each, on terms weighted by at most x + n d_n.
    """
    h_n, s1_n, siq_n = walk.sums
    n = walk.n
    inflow = x * (1.0 + s1_n)
    outflow = h_n + (n + 1) * x * walk.q_n
    rounds = 3.0 * n + 32.0
    budget = _EPS * rounds * (inflow + siq_n + outflow)
    budget += _TINY * rounds * (n + 1) * (1.0 + x + n * fam.d(n))
    if abs(inflow - siq_n - outflow) > budget:
        raise ConsistencyError(
            f"cohort balance fails at x={x}, n={n}: x(1 + S1) - Siq = "
            f"{inflow - siq_n!r} vs H + (n+1) x Q_n = {outflow!r}, budget {budget!r}"
        )


def cohort_profile(fam: CoefficientFamily, x: float, r: float, n: int) -> EquilibriumProfile:
    """Equilibrium cohorts M_0..M_n by the stable forward recursion.

    M_0 = r / (k_0 x + p_0 + q_0), then
    M_i = M_{i-1} * k_{i-1} x / (k_i x + p_i + q_i).  Indices whose value
    underflows below the normal range are truncated and folded into
    tail_mass_bound.
    """
    _check_x(x)
    _check_r(r)
    if n < 0:
        raise DomainError(f"n must be >= 0, got {n}")
    denom0 = fam.k(0) * x + fam.p(0) + fam.q(0)
    if denom0 <= 0.0:
        raise DomainError("k_0 x + p_0 + q_0 must be positive")
    m = [r / denom0]
    if x > 0.0:
        for i in range(1, n + 1):
            num = fam.k(i - 1) * x * m[-1]
            den = fam.k(i) * x + fam.p(i) + fam.q(i)
            mi = num / den
            if mi < _UNDERFLOW_FLOOR:
                break
            m.append(mi)
    arr = np.array(m)
    n_kept = len(m) - 1
    last = m[-1]
    if x == 0.0:
        tail = 0.0
    else:
        s = fam.m_ratio_sup(n_kept) * x / (x + fam.d_inf_beyond(n_kept))
        tail = last * s / (1.0 - s) if s < 1.0 else math.inf
    return EquilibriumProfile(x=x, r=r, M=arr, tail_mass_bound=tail, requested_n=n)


def tail_product(fam: CoefficientFamily, x: float, n: int) -> float:
    """Q_n = prod_{j=1..n} x / (x + d_j); may underflow to 0 for large n."""
    _check_x(x)
    if n < 0:
        raise DomainError(f"n must be >= 0, got {n}")
    return blocked_sum(_q_factors(fam, x), (), None, cap=n).q_n


def audit_G_identity(fam: CoefficientFamily, x: float, n_terms: int) -> tuple[float, float]:
    """Check the telescoping identity 1 - S_n = (n+1) Q_n.

    S_n = (1/x) sum_{i<=n} (i d_i - x) prod_{j<=i} x/(x+d_j).  Returns
    (S_n, |1 - S_n - (n+1) Q_n|).  At x = 0 every term vanishes and the
    identity is trivially satisfied, so (0, 0) is returned.
    """
    _check_x(x)
    if n_terms < 1:
        raise DomainError(f"n_terms must be >= 1, got {n_terms}")
    if x == 0.0:
        return 0.0, 0.0
    walk = blocked_sum(_q_factors(fam, x),
                       (lambda idx: (idx * fam.d_values(idx) - x) / x,),
                       None, cap=n_terms)
    s = walk.sums[0]
    return s, abs(1.0 - s - (n_terms + 1) * walk.q_n)


def audit_d_identity(fam: CoefficientFamily, x: float, n_terms: int) -> tuple[float, float]:
    """Check sum_{i<=n} d_i prod_{j<=i} x/(x+d_j) = x - x Q_n.

    Returns (partial_sum, |partial_sum + x Q_n - x|); (0, 0) at x = 0.
    """
    _check_x(x)
    if n_terms < 1:
        raise DomainError(f"n_terms must be >= 1, got {n_terms}")
    if x == 0.0:
        return 0.0, 0.0
    walk = blocked_sum(_q_factors(fam, x), (fam.d_values,), None, cap=n_terms)
    s = walk.sums[0]
    return s, abs(s + x * walk.q_n - x)


@dataclass(frozen=True)
class GridSpec:
    """Evaluation grid {x_min, x_max, count, spacing: linear|log}."""

    x_min: float
    x_max: float
    count: int
    spacing: str = "log"

    def __post_init__(self):
        if self.spacing not in ("linear", "log"):
            raise DomainError(f"spacing must be 'linear' or 'log', got {self.spacing!r}")
        if not (math.isfinite(self.x_min) and math.isfinite(self.x_max)):
            raise DomainError("grid endpoints must be finite")
        if self.x_max < self.x_min:
            raise DomainError("x_max must be >= x_min")
        if self.count < 1:
            raise DomainError(f"count must be >= 1, got {self.count}")
        if self.spacing == "log" and self.x_min <= 0.0:
            raise DomainError("log spacing requires x_min > 0")
        if self.x_min < 0.0:
            raise DomainError("x_min must be >= 0")

    def points(self) -> np.ndarray:
        if self.count == 1:
            return np.array([self.x_min])
        if self.spacing == "linear":
            return np.linspace(self.x_min, self.x_max, self.count)
        return np.geomspace(self.x_min, self.x_max, self.count)


class GridRow(NamedTuple):
    x: float
    value: float
    tail_bound: float
    terms_used: int


_QUANTITIES = {
    "F": lambda fam, x, r, tol, cap: F_equilibrium(fam, x, tol=tol, term_cap=cap),
    "H": lambda fam, x, r, tol, cap: H_series(fam, x, tol=tol, term_cap=cap),
    "kM": lambda fam, x, r, tol, cap: sum_kM(fam, x, r, tol=tol, term_cap=cap),
    "iqM": lambda fam, x, r, tol, cap: sum_iqM(fam, x, r, tol=tol, term_cap=cap),
}


def grid_evaluate(fam: CoefficientFamily, quantity: str, grid: GridSpec,
                  r: float = 1.0, *, tol: float = DEFAULT_TOL,
                  term_cap: int = DEFAULT_TERM_CAP) -> Iterator[GridRow]:
    """Evaluate one series quantity over a grid, yielding CSV-ready rows."""
    if quantity not in _QUANTITIES:
        raise DomainError(
            f"unknown quantity {quantity!r}; expected one of {sorted(_QUANTITIES)}"
        )
    evaluate = _QUANTITIES[quantity]
    for x in grid.points():
        bv = evaluate(fam, float(x), r, tol, term_cap)
        yield GridRow(float(x), bv.value, bv.tail_bound, bv.terms_used)
