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
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

from .errors import ConvergenceError, DomainError

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

# Below this u = (N+1) log1p(1/kx), F_piecewise sums series instead of
# the closed form, whose two terms cancel by a factor of about 4/u there.
_SERIES_BELOW_U = 0.25
# Taylor coefficients, highest order first, of (expm1(u) - u)/u^2 for
# u <= 1/4 and of (atanh(s) - s)/s^3 in t = s^2 for s = w/(2+w) <= 1/16
# (w <= e^(1/8) - 1); the omitted terms are below 3e-18 of the leading one.
_EXPM1_MINUS_U = tuple(1.0 / math.factorial(j + 2) for j in reversed(range(12)))
_ATANH_MINUS_S = tuple(1.0 / (2 * j + 3) for j in reversed(range(7)))


def _check_kN(k: float, N: int, *, min_N: int = 0) -> None:
    if not (math.isfinite(k) and k > 0.0):
        raise DomainError(f"k must be finite and positive, got {k}")
    if not isinstance(N, (int,)) or isinstance(N, bool):
        raise DomainError(f"N must be an integer, got {N!r}")
    if N < min_N:
        raise DomainError(f"N must be >= {min_N}, got {N}")


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
    if not (math.isfinite(x) and x >= 0.0):
        raise DomainError(f"x must be finite and >= 0, got {x}")
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


def _F_piecewise_y(N: int, y: float) -> float:
    """F in the compact variable y = kx/(kx+1) in [0, 1), for integer N >= 0.

    Equals sum_{j=1..N} y^j - N y^{N+1}; identically zero when N = 0.
    """
    acc = 0.0
    # Horner over sum_{j=1..N} y^j - N y^{N+1} = y*(1 + y*(1 + ... ) ) - ...
    for _ in range(N):
        acc = y * (1.0 + acc)
    return acc - N * y ** (N + 1)


def _stationary_polynomial(N: int, y: float) -> float:
    """p_N(y) = 1 - (N+1)^2 y^N + N(2N+3) y^{N+1} - N(N+1) y^{N+2}.

    Its unique root in (0, (N+1)/(N+2)) locates the maximum of F; the
    polynomial equals (1-y)^2 dF/dy.  N >= 1, as stationary_point checks.
    """
    yn = y**N
    return 1.0 - (N + 1) ** 2 * yn + N * (2 * N + 3) * yn * y - N * (N + 1) * yn * y * y


def _bisect_to_adjacent(f, lo: float, hi: float, f_lo: float) -> float:
    """Bisect a sign change down to adjacent floats; exact zeros returned."""
    f_hi = f(hi)
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


def stationary_point(k: float, N: int) -> tuple[float, float, float]:
    """(y*, x*, F_max): location and height of the peak of F.

    Requires N >= 1; for N = 0 the function is identically zero and has
    no stationary point.
    """
    _check_kN(k, N, min_N=1)
    upper = (N + 1) / (N + 2)
    y_star = _bisect_to_adjacent(
        lambda y: _stationary_polynomial(N, y), 0.0, upper, _stationary_polynomial(N, 0.0)
    )
    x_star = y_star / (k * (1.0 - y_star))
    f_max = _F_piecewise_y(N, y_star)
    return y_star, x_star, f_max


def alpha_star(k: float, N: int, r: float) -> float:
    """Critical inflow: equilibria exist iff alpha <= alpha_star = r F_max."""
    if not (math.isfinite(r) and r > 0.0):
        raise DomainError(f"r must be finite and positive, got {r}")
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


def solve_roots(k: float, N: int, r: float, alpha: float, *,
                tol: float = 1e-12) -> RootReport:
    """All positive solutions of F(x) = alpha/r for the piecewise family.

    Within a band of 10*tol (relative to the peak) around the threshold
    the configuration is reported as a single tangent root at x*; the
    flag near_threshold records that the count is resolution-limited.
    """
    _check_kN(k, N, min_N=1)
    if not (math.isfinite(r) and r > 0.0):
        raise DomainError(f"r must be finite and positive, got {r}")
    if not (math.isfinite(alpha) and alpha > 0.0):
        raise DomainError(f"alpha must be finite and positive, got {alpha}")
    if not (0.0 < tol < 1e-2):
        raise DomainError(f"tol must lie in (0, 1e-2), got {tol}")

    y_star, x_star, f_max = stationary_point(k, N)
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

    left = _bisect_to_adjacent(g, 0.0, x_star, -phi)
    # F decreases past x_star: F(x_top) >= alpha/r leaves no right root up to x_top
    x_top = 0.5 * sys.float_info.max / max(k, 1.0)
    hi = min(2.0 * x_star, x_top)
    while g(hi) >= 0.0:
        if hi == x_top:
            raise ConvergenceError(
                f"F stays above alpha/r={phi!r} at every finite x up to {x_top!r}",
                series="piecewise_roots", x=x_top,
            )
        hi = min(2.0 * hi, x_top)
    right = _bisect_to_adjacent(g, x_star, hi, g(x_star))
    return RootReport(k, N, r, alpha, 2, (left, right), "two_roots",
                      x_star, f_max, a_star, False)


def sum_kM_closed(k: float, N: int, x: float, r: float) -> float:
    """sum_i k_i M_i = r k, independent of x (every p_i + q_i equals 1)."""
    _check_kN(k, N)
    if not (math.isfinite(r) and r > 0.0):
        raise DomainError(f"r must be finite and positive, got {r}")
    if not (math.isfinite(x) and x >= 0.0):
        raise DomainError(f"x must be finite and >= 0, got {x}")
    return r * k


def sum_iqM_closed(k: float, N: int, x: float, r: float) -> float:
    """sum_i i q_i M_i = r y^{N+1} (kx + N + 1), y = kx/(kx+1)."""
    _check_kN(k, N)
    if not (math.isfinite(r) and r > 0.0):
        raise DomainError(f"r must be finite and positive, got {r}")
    if not (math.isfinite(x) and x >= 0.0):
        raise DomainError(f"x must be finite and >= 0, got {x}")
    if x == 0.0:
        return 0.0
    kx = k * x
    y_pow = math.exp(-(N + 1) * math.log1p(1.0 / kx))
    return r * y_pow * (kx + N + 1)
