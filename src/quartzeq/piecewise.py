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
solve_roots bisects each root to adjacent floats inside a certified
bracket, starting from the F values that certified it.  F_piecewise is
within e = _F_REL_ERR (relative) of the exact F at the rounded kx.  The
ends of a bracket pass F_piecewise >= phi (1 + M) on the peak's side and
F_piecewise <= phi (1 - M) on the other (phi = alpha/r, M = _BRACKET_MARGIN),
tests that round twice by at most u = 2^-53 (relative); x* passes the
first before any bracket is sought, and 0, where F = 0, the second.  So
at the ends' rounded kx the exact F clears phi on the same sides once
(1 + M)(1 - u)^2 > 1 + e and (1 - M)(1 + u)^2 < 1 - e, that is once
M > e + 2u to first order; M = 2e.  The ends then bracket a computed sign
change of F_piecewise - phi and, since F is monotone on each flank and the
rounded kx never falls as x grows, the exact root in kx.  Where no bracket
is certified (F(x*) within the margin of phi, or Newton not settling),
the root is bisected over [0, x*] or the doubling bracket past x*.
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass

from .errors import ConvergenceError, DomainError, _check_kN, _check_r, _check_x

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
# how far F_piecewise must clear alpha/r, relative, at a root's bracket ends
# and at x* (see the module docstring)
_BRACKET_MARGIN = 2 * _F_REL_ERR
_NEWTON_STEPS = 8  # per root; a bracket needs Newton to settle within them
_Bracket = tuple[float, float, float, float]  # (lo, g(lo), hi, g(hi)), g = F - alpha/r

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
        raise DomainError(f"no sign change on [{lo}, {hi}]")
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
    """First guesses at the two roots of F(x) = phi < F_max, for _root_bracket.

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


def _root_bracket(k: float, N: int, phi: float, bracket: _Bracket, x: float,
                  rising: bool) -> _Bracket | None:
    """A certified bracket (lo, g(lo), hi, g(hi)), g = F - phi, inside bracket.

    bracket = (a, g(a), b, g(b)) holds the root of F(x) = phi, which F rises
    through if rising (a = 0, b = x*) and falls through otherwise (a = x*,
    b = inf); F(x*) must clear phi by _BRACKET_MARGIN.  Safeguarded Newton
    steps on ln F = ln phi in ln x, from the guess x and with
    F'(x) = k p_N at z = 1/(kx+1), estimate the root.  An end is kept only
    where F_piecewise clears phi by _BRACKET_MARGIN on its side; one that
    does not is widened until it does, and one that leaves (a, b) becomes a
    or b.
    None when Newton does not settle.
    """
    a0, g_a, b0, g_b = bracket
    a, b = a0, b0

    def inside(x: float) -> float:  # x, or else a bisection of (a, b) in ln x
        if a < x < b:
            return x
        if a == 0.0:
            return 0.5 * b
        return 2.0 * a if b == math.inf else math.sqrt(a) * math.sqrt(b)

    x = inside(x)
    prev = math.inf  # the previous step
    for _ in range(_NEWTON_STEPS):
        f = _F_piecewise(k, N, x)
        if not f > 0.0:
            return None
        if (f < phi) == rising:
            a = x
        else:
            b = x
        kx = k * x
        z = 1.0 / (kx + 1.0)
        p = _stationary_form(N, z)
        # p_N's rounding error, about eps (3 + 2 N |ln y|), swamps p_N ~
        # -N(N+1) z^2/2 only far out on the right flank, where ln F ~ -ln x
        p_err = 8.0 * sys.float_info.epsilon * (1.0 + N * z)
        slope, p_rel = (kx * p / f, p_err / abs(p)) if abs(p) > 2.0 * p_err else (-1.0, 1.0)
        step = math.inf  # a slope of the wrong sign: bisect instead
        if (slope > 0.0) == rising:
            step = math.log(max(phi / f, sys.float_info.min)) / slope
        if abs(step) < 1e-6:  # x e^step is then within about C step^2 of the root
            x *= math.exp(step)
            break
        x = inside(x * math.exp(step) if abs(step) < 1.0 else math.nan)
        prev = step
    else:
        return None
    # x is off by about C step^2, Newton's ratio C ~ |step| / prev^2 (taken
    # as at least 4), and by step times the slope's relative error
    c0 = (max(4.0, 2.0 * abs(step) / (prev * prev)) * step * step
          + 2.0 * abs(step) * p_rel + 2.0 * _BRACKET_MARGIN / abs(slope))

    def end(sign: float, edge: tuple[float, float]) -> tuple[float, float]:
        # the end above the root of a rising F, or below that of a falling
        # one, lies on the peak's side: there F must exceed phi
        above = (sign > 0.0) == rising
        bound = phi * (1.0 + _BRACKET_MARGIN) if above else phi * (1.0 - _BRACKET_MARGIN)
        c = c0
        while True:
            x_end = x * (1.0 + sign * c)
            if not a0 < x_end < b0:
                return edge
            f = _F_piecewise(k, N, x_end)
            if (f >= bound) if above else (f <= bound):
                return x_end, f - phi
            c *= 16.0

    return *end(-1.0, (a0, g_a)), *end(1.0, (b0, g_b))


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

    # the full brackets, as F(0) = 0 and F -> 0 as x -> inf
    f_star = _F_piecewise(k, N, x_star)
    left = (0.0, -phi, x_star, f_star - phi)
    right = (x_star, f_star - phi, math.inf, -phi)
    # a certified bracket needs F(x*) clear of alpha/r, which a tol far
    # below the margin may not leave
    if f_star >= phi * (1.0 + _BRACKET_MARGIN):
        guess_l, guess_r = _root_guesses(k, N, phi, z_star, f_max)
        left = _root_bracket(k, N, phi, left, guess_l, True) or left
        right = _root_bracket(k, N, phi, right, guess_r, False) or right
    if right[2] == math.inf:
        # F decreases past x_star: F(x_top) >= alpha/r leaves no right root up
        # to x_top, and otherwise the doubling stops at x_top at the latest
        x_top = 0.5 * sys.float_info.max / max(k, 1.0)
        if g(x_top) >= 0.0:
            raise ConvergenceError(
                f"F stays above alpha/r={phi!r} at every finite x up to {x_top!r}",
                series="piecewise_roots", x=x_top,
            )
        hi = min(2.0 * x_star, x_top)
        while (g_hi := g(hi)) >= 0.0:
            hi = min(2.0 * hi, x_top)
        right = (x_star, f_star - phi, hi, g_hi)
    roots = (_bisect_to_adjacent(g, *left), _bisect_to_adjacent(g, *right))
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
