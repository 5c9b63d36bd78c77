"""Closed forms and root solving for the piecewise-constant family.

For uptake k_i = k, death p_i = 1 (i <= N) / 0 (i > N), dissolution
q_i = 0 (i <= N) / 1 (i > N), every d_i equals 1/k, so in the variable
y = kx/(kx+1) the equilibrium function collapses to the polynomial

    F(x) = sum_{j=1..N} y^j - N y^{N+1},

or equivalently F(x) = kx (1 - y^{N+1}) - (N+1) y^{N+1}.  F vanishes at
x = 0, rises to a single interior maximum, and decays like
N(N+1)/(2kx); equilibria at dust inflow alpha and supply r are the
solutions of F(x) = alpha/r, so there are two, one (tangent), or none
according to alpha/r versus the peak value.

The peak depends on N alone and is computed once per N.  In
z = 1 - y = 1/(kx+1) it is the root of the stationarity form
p_N = (1-y)^2 dF/dy = 1 - y^N (1 + N z + N(N+1) z^2), which is computed
from z in that factored form, with no cancelling terms, and F_max has
a closed form in z* (_peak); Newton's slope reads the same form.
solve_roots finds each root r as a sign change of F_piecewise - phi
(phi = alpha/r) between r and the next float r+, on the flank (0, x*)
or (x*, inf), by one safeguarded Newton search (_flank_root) that starts
once F_piecewise(x*) > phi.  That sign change certifies a band: F_piecewise
is within e = _F_REL_ERR (relative) of the exact F at the rounded kx, so on
the rising flank F(r) <= phi/(1 - e) and F(r+) > phi/(1 + e), and the other
way round on the falling one.  F is monotone on each flank and
|d ln F / d ln x| <= 1 (F/x falls, and xF rises past x*), so F moves by
about 2^-51 F at most from r to r+, and |F(r) - phi| <= (e + 2^-51 + O(e^2))
phi < 2e phi.  The exact root lies in the same band, so r is within about
2e/|d ln F / d ln x| of it, relative: far where F is flat near the peak.
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass

from .errors import ConvergenceError, DomainError, QuartzeqError, _check_kN, _check_r, _check_x

__all__ = [
    "F_piecewise",
    "stationary_point",
    "alpha_star",
    "RootReport",
    "solve_roots",
    "sum_kM_closed",
    "sum_iqM_closed",
]

NEAR_THRESHOLD_BAND = 10.0  # multiples of tol, relative to the peak value

# F_piecewise's relative error against the exact F at the rounded kx, for any
# kx and N, which the tests pin against 50-digit references
_F_REL_ERR = 1e-14
# a Newton step in ln x below this leaves x about C step^2 from the root, C
# the ratio of F's curvature to its slope in ln x: within F's rounding zone
_SETTLED = 2.0**-26

# Below this u = (N+1) log1p(1/kx), F_piecewise sums series instead of
# the closed form, whose two terms cancel by a factor of about 4/u there.
_SERIES_BELOW_U = 0.25
# Taylor coefficients, highest order first, of (expm1(u) - u)/u^2 for
# u <= 1/4 and of (atanh(s) - s)/s^3 in t = s^2 for s = w/(2+w) <= 1/16
# (w <= e^(1/8) - 1); the omitted terms are below 3e-18 of the leading one.
_EXPM1_MINUS_U = tuple(1.0 / math.factorial(j + 2) for j in reversed(range(12)))
_ATANH_MINUS_S = tuple(1.0 / (2 * j + 3) for j in reversed(range(7)))


def F_piecewise(k: float, N: int, x: float) -> float:
    """Equilibrium function of the piecewise family, stable for any kx.

    Uses kx (1 - y^{N+1}) - (N+1) y^{N+1} with y^{N+1} = e^{-u},
    u = (N+1) log1p(w), w = 1/(kx).  As kx grows those two terms cancel
    (F ~ N(N+1)/(2kx) is far below either), so for u <= 1/4 the same
    value is computed as

        e^{-u} kx [(expm1(u) - u) + (N+1) (log1p(w) - w)]

    with both brackets from fixed-length series (log1p(w) - w as
    2 (atanh(s) - s) - w s, s = w/(2+w)).  The brackets cancel by at most
    a factor (N+2)/N, and the closed form kept above u = 1/4 by at most
    about 16, so F stays within about 5e-15 relative of the exact value
    for every kx and N.
    """
    _check_kN(k, N)
    _check_x(x)
    return _F_piecewise(k, N, x)


def _F_piecewise(k: float, N: int, x: float) -> float:
    """F_piecewise without argument checks: finite k > 0, integer N >= 0, finite x >= 0."""
    if x == 0.0 or N == 0:
        # N = 0 is identically zero; the closed form would leave -1 ulp noise
        return 0.0
    kx = k * x
    w = 1.0 / kx
    u = (N + 1) * math.log1p(w)
    if u > _SERIES_BELOW_U:
        return kx * (-math.expm1(-u)) - (N + 1) * math.exp(-u)
    s = w / (2.0 + w)
    t = s * s
    pe = pa = 0.0
    for c in _EXPM1_MINUS_U:
        pe = pe * u + c
    for c in _ATANH_MINUS_S:
        pa = pa * t + c
    # kx is applied before the squares so that nothing underflows for huge kx
    return math.exp(-u) * (kx * u * u * pe + (N + 1) * (kx * s) * (2.0 * t * pa - w))


def _stationary_form(N: int, z: float) -> float:
    """p_N = (1-y)^2 dF/dy at z = 1 - y = 1/(kx+1) in [0, 1], for N >= 1.

    p_N = 1 - (N+1)^2 y^N + N(2N+3) y^{N+1} - N(N+1) y^{N+2} factors
    exactly as 1 - y^N (1 + N z + N(N+1) z^2), computed so with
    y^N = exp(N log1p(-z)): no terms of size (N+1)^2 cancel.
    """
    if z >= 1.0:
        return 1.0
    return 1.0 - math.exp(N * math.log1p(-z)) * (1.0 + N * z * (1.0 + (N + 1) * z))


def _bisect_to_adjacent(f, lo: float, f_lo: float, hi: float, f_hi: float) -> float:
    """Bisect a sign change of f, given f_lo = f(lo) and f_hi = f(hi), to adjacent floats.

    f is evaluated only at midpoints strictly inside (lo, hi); an exact zero
    is returned as it is met.
    """
    if f_lo == 0.0:
        return lo
    if f_hi == 0.0:
        return hi
    if (f_lo > 0.0) == (f_hi > 0.0):
        raise QuartzeqError(f"no sign change on [{lo}, {hi}]")
    while True:
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            return mid if lo < mid < hi else lo
        f_mid = f(mid)
        if f_mid == 0.0:
            return mid
        if (f_mid > 0.0) == (f_lo > 0.0):
            lo = mid
        else:
            hi = mid


@functools.lru_cache(maxsize=256)
def _peak(N: int) -> tuple[float, float]:
    """(z*, F_max) for N >= 1: in z = 1/(kx+1) the peak of F depends on N alone.

    p_N is 1 at z = 1 and negative at z = 1/(N+2), and its one root between
    them is bisected.  With D = 1 + N z + N(N+1) z^2,

        F = y (1 - y^N) / z - N y^{N+1},

    and the root has y^N D = 1, so y^N = 1/D there and

        F_max = (y/D) ((D - 1)/z - N) = N(N+1) z* (1 - z*) / D.
    """
    z_lo = 1.0 / (N + 2)
    z_star = _bisect_to_adjacent(lambda z: _stationary_form(N, z), z_lo,
                                 _stationary_form(N, z_lo), 1.0, 1.0)
    return z_star, N * (N + 1) * z_star * (1.0 - z_star) / (
        1.0 + N * z_star * (1.0 + (N + 1) * z_star))


def stationary_point(k: float, N: int) -> tuple[float, float, float]:
    """(y*, x*, F_max): location and height of the peak of F.

    Requires N >= 1; for N = 0 the function is identically zero and has
    no stationary point.
    """
    _check_kN(k, N, min_N=1)
    z_star, f_max = _peak(N)
    return 1.0 - z_star, _x_of_z(k, z_star), f_max


def alpha_star(k: float, N: int, r: float) -> float:
    """Critical inflow: equilibria exist iff alpha <= alpha_star = r F_max."""
    _check_r(r)
    return r * stationary_point(k, N)[2]


@dataclass(frozen=True)
class RootReport:
    """Roots of F(x) = alpha/r with the trichotomy classification."""

    k: float
    N: int
    r: float
    alpha: float
    count: int
    roots: tuple[float, ...]
    classification: str  # "two_roots" | "tangent" | "no_roots"
    x_star: float
    F_max: float
    alpha_star: float
    near_threshold: bool


def _root_guesses(k: float, N: int, phi: float, z_star: float,
                  f_max: float) -> tuple[float, float]:
    """First guesses at the two roots of F(x) = phi < F_max, for _flank_root.

    Near the peak F follows its parabola in z = 1/(kx+1), of curvature
    p_N'(y*)/z*^2 there, p_N'(y) = N(N+1) y^(N-1) z (1 - (N+2) z).  Lower
    down F ~ kx on the left and F = A z (1 - B z + O(z^2)) on the right,
    A = N(N+1)/2, B = (2N+1)/3.  A guess can be nan or off the bracket;
    Newton's safeguard then starts inside it.
    """
    curv = N * (N + 1) * math.exp((N - 1) * math.log1p(-z_star)) * z_star * (
        1.0 - (N + 2) * z_star)
    if phi > 0.5 * f_max and curv < 0.0:
        dz = math.sqrt(2.0 * (f_max - phi) / -curv) * z_star
        return _x_of_z(k, z_star + dz), _x_of_z(k, z_star - dz)
    z = phi / (0.5 * N * (N + 1))
    z *= 1.0 + (2 * N + 1) / 3.0 * z
    return phi / k, (1.0 / z - 1.0) / k if z > 0.0 else math.inf


def _x_of_z(k: float, z: float) -> float:
    """x = (1 - z) / (k z) for z in (0, 1), else nan."""
    return (1.0 - z) / (k * z) if 0.0 < z < 1.0 else math.nan


def _log_slope(k: float, N: int, x: float, f: float) -> float:
    """d ln F / d ln x = k x p_N / F at x, given f = F(x) > 0, with p_N at z = 1/(kx+1).

    p_N's rounding error, about eps (3 + 2 N |ln y|) <= 8 eps (1 + N z),
    swamps p_N ~ -N(N+1) z^2/2 only far out on the right flank, where
    ln F ~ -ln x: the slope is -1 there.
    """
    kx = k * x
    z = 1.0 / (kx + 1.0)
    p = _stationary_form(N, z)
    return kx * p / f if abs(p) > 16.0 * sys.float_info.epsilon * (1.0 + N * z) else -1.0


def _flank_root(k: float, N: int, phi: float, lo: float, g_lo: float, hi: float,
                g_hi: float | None, x: float, rising: bool) -> float:
    """The root of F(x) = phi on one flank of the peak: a sign change of
    g = F_piecewise - phi between adjacent floats.

    (lo, hi) is a sign-change bracket with g_lo = g(lo) and g_hi = g(hi):
    (0, x*) if rising, where F rises through phi, else (x*, x_top), where F
    falls; there g_hi is None until a bisection or the last bracket needs
    it, and F(x_top) >= phi then raises.  From the guess x, Newton steps on
    ln F = ln phi in ln x take the slope _log_slope, safeguarded as in
    rtsafe (Numerical Recipes 9.4): a step that leaves (lo, hi) or does not
    halve the previous move is replaced by a bisection of (lo, hi) in ln x,
    a halving while lo = 0.  Each x evaluated becomes an end.  The point a
    Newton step below _SETTLED leads to is evaluated, then x steps outward
    from it by 1, 2, 4, ... ulps until g changes sign, and the bracket left
    is bisected to adjacent floats.
    """
    def g(t: float) -> float:
        return _F_piecewise(k, N, t) - phi

    def g_top() -> float:  # g(hi) at hi = x_top, which must be negative
        if (value := g(hi)) >= 0.0:
            raise ConvergenceError(
                f"F stays above alpha/r={phi!r} at every finite x up to {hi!r}",
                series="piecewise_roots", x=hi,
            )
        return value

    prev = math.inf  # the previous move in ln x
    settled = False
    while True:
        if not lo < x < hi:
            if settled:  # the step did not leave the end it started from
                x = last
                break
            if g_hi is None:
                g_hi = g_top()
            x = 0.5 * hi if lo == 0.0 else math.sqrt(lo) * math.sqrt(hi)
            if not lo < x < hi:  # lo and hi are (about) adjacent floats
                return _bisect_to_adjacent(g, lo, g_lo, hi, g_hi)
            prev = math.log(hi / x)
        f = _F_piecewise(k, N, x)
        if f == phi:
            return x
        if (f < phi) == rising:
            lo, g_lo = x, f - phi
        else:
            hi, g_hi = x, f - phi
        if settled:
            break
        last = x
        step = math.log(max(phi / f, sys.float_info.min)) / _log_slope(k, N, x, f)
        # a step the wrong way leaves (lo, hi), whose end x is; a move of e^700
        # is never Newton's, and math.exp overflows past e^709.8
        if abs(step) <= min(0.5 * prev, 700.0):
            prev, settled = abs(step), abs(step) < _SETTLED
            x *= math.exp(step)
        else:
            x = math.nan
    up = x == lo
    ulp, n = math.ulp(x), 1.0
    while lo < (t := x + n * ulp if up else x - n * ulp) < hi:
        g_t = g(t)
        if g_t == 0.0:
            return t
        if (g_t < 0.0) == rising:
            lo, g_lo = t, g_t
        else:
            hi, g_hi = t, g_t
        if (t == lo) != up:  # g changed sign
            break
        n *= 2.0
    return _bisect_to_adjacent(g, lo, g_lo, hi, g_top() if g_hi is None else g_hi)


def solve_roots(k: float, N: int, r: float, alpha: float, *,
                tol: float = 1e-12) -> RootReport:
    """All positive solutions of F(x) = alpha/r for the piecewise family.

    Within a band of 10*tol (relative to the peak) around the threshold
    the configuration is reported as a single tangent root at x*; the
    flag near_threshold records that the count is resolution-limited.
    """
    _check_kN(k, N, min_N=1)
    _check_r(r)
    if not (math.isfinite(alpha) and alpha > 0.0):
        raise DomainError(f"alpha must be finite and positive, got {alpha}")
    if not (0.0 < tol < 1e-2):
        raise DomainError(f"tol must lie in (0, 1e-2), got {tol}")

    z_star, f_max = _peak(N)
    x_star = _x_of_z(k, z_star)
    a_star = r * f_max
    phi = alpha / r

    if abs(phi - f_max) <= NEAR_THRESHOLD_BAND * tol * f_max:
        return RootReport(k, N, r, alpha, 1, (x_star,), "tangent",
                          x_star, f_max, a_star, True)
    if phi > f_max:
        return RootReport(k, N, r, alpha, 0, (), "no_roots",
                          x_star, f_max, a_star, False)

    def g(x: float) -> float:
        return _F_piecewise(k, N, x) - phi

    g_star = _F_piecewise(k, N, x_star) - phi
    if g_star <= 0.0:
        # a tol below F's rounding error lets alpha/r reach the computed F(x*):
        # x* is then both roots, or else no sign change is left
        roots = (_bisect_to_adjacent(g, 0.0, -phi, x_star, g_star),) * 2
    else:
        guess_l, guess_r = _root_guesses(k, N, phi, z_star, f_max)
        x_top = 0.5 * sys.float_info.max / max(k, 1.0)  # k x_top stays finite
        roots = (_flank_root(k, N, phi, 0.0, -phi, x_star, g_star, guess_l, True),
                 _flank_root(k, N, phi, x_star, g_star, x_top, None, guess_r, False))
    return RootReport(k, N, r, alpha, 2, roots, "two_roots",
                      x_star, f_max, a_star, False)


def sum_kM_closed(k: float, N: int, x: float, r: float) -> float:
    """sum_i k_i M_i = r k, independent of x (every p_i + q_i equals 1)."""
    _check_kN(k, N)
    _check_r(r)
    _check_x(x)
    return r * k


def sum_iqM_closed(k: float, N: int, x: float, r: float) -> float:
    """sum_i i q_i M_i = r y^{N+1} (kx + N + 1), y = kx/(kx+1)."""
    _check_kN(k, N)
    _check_r(r)
    _check_x(x)
    if x == 0.0:
        return 0.0
    kx = k * x
    y_pow = math.exp(-(N + 1) * math.log1p(1.0 / kx))
    return r * y_pow * (kx + N + 1)
