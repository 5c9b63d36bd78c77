"""Special-function kernels backing the asymptotic machinery.

Everything here is classical: the Riemann zeta function on the real axis
(alternating-series acceleration for s > 0, the functional equation for
s < 0), Euler's gamma via the C library, exact Bernoulli numbers from the
defining recurrence, harmonic numbers, and the regularized incomplete
gamma functions in the usual series / continued-fraction split.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

from .errors import ConvergenceError, DomainError

__all__ = [
    "EULER_GAMMA",
    "zeta",
    "gamma",
    "harmonic",
    "bernoulli",
    "bernoulli_fraction",
    "reg_lower_gamma",
    "reg_upper_gamma",
    "incomplete_gamma_upper",
]

EULER_GAMMA = 0.5772156649015329

_BORWEIN_N = 50


@lru_cache(maxsize=None)
def _borwein_coefficients(n: int = _BORWEIN_N) -> tuple[float, ...]:
    """(d_k - d_n) / d_n for k = 0..n-1, computed exactly then rounded once.

    d_k = n * sum_{j<=k} (n+j-1)! 4^j / ((n-j)! (2j)!), per P. Borwein's
    second algorithm; the error after n terms decays like (3+sqrt(8))^-n.
    """
    d = []
    acc = Fraction(0)
    for j in range(0, n + 1):
        acc += Fraction(
            math.factorial(n + j - 1) * 4**j,
            math.factorial(n - j) * math.factorial(2 * j),
        )
        d.append(n * acc)
    dn = d[n]
    return tuple(float((d[k] - dn) / dn) for k in range(n))


def _zeta_alternating(s: float) -> float:
    """zeta(s) for real s > 0, s != 1."""
    coeffs = _borwein_coefficients()
    total = 0.0
    comp = 0.0
    for k, c in enumerate(coeffs):
        term = c / float(k + 1) ** s if (k % 2 == 0) else -c / float(k + 1) ** s
        y = term - comp
        t = total + y
        comp = (t - total) - y
        total = t
    return -total / (1.0 - 2.0 ** (1.0 - s))


def _sin_half_pi(s: float) -> float:
    """sin(pi*s/2) with exact zeros at even integers s."""
    half = 0.5 * s
    m = math.floor(half + 0.5)
    r = half - m
    value = math.sin(math.pi * r)
    return -value if (m % 2) else value


@lru_cache(maxsize=8192)
def zeta(s: float) -> float:
    """Riemann zeta on the real axis (s != 1)."""
    s = float(s)
    if not math.isfinite(s):
        raise DomainError(f"zeta requires finite s, got {s}")
    if s == 1.0:
        raise DomainError("zeta has a pole at s = 1")
    if s == 0.0:
        return -0.5
    if s > 0.0:
        return _zeta_alternating(s)
    # functional equation; gamma(1-s) overflows only past s < -169
    if s < -169.0:
        raise DomainError(f"zeta({s}) overflows double precision")
    return (
        2.0**s
        * math.pi ** (s - 1.0)
        * _sin_half_pi(s)
        * math.gamma(1.0 - s)
        * zeta(1.0 - s)
    )


def gamma(s: float) -> float:
    """Euler gamma; raises DomainError at the poles."""
    try:
        return math.gamma(s)
    except ValueError as exc:
        raise DomainError(f"gamma pole or domain error at s = {s}") from exc


@lru_cache(maxsize=None)
def _bernoulli_list(n_max: int) -> tuple[Fraction, ...]:
    """B_0..B_n_max (B_1 = -1/2) via B_m = -sum_{j<m} C(m+1,j) B_j / (m+1)."""
    b = [Fraction(1)]
    for m in range(1, n_max + 1):
        total = Fraction(0)
        for j in range(m):
            total += math.comb(m + 1, j) * b[j]
        b.append(-total / (m + 1))
    return tuple(b)


def bernoulli_fraction(n: int, n_max: int = 60) -> Fraction:
    """Exact Bernoulli number B_n."""
    if not (0 <= n <= n_max):
        raise DomainError(f"Bernoulli index {n} outside precomputed range 0..{n_max}")
    return _bernoulli_list(n_max)[n]


def bernoulli(n: int) -> float:
    return float(bernoulli_fraction(n))


@lru_cache(maxsize=8192)
def harmonic(k: int) -> float:
    """H_k = sum_{j<=k} 1/j, H_0 = 0."""
    if k < 0:
        raise DomainError(f"harmonic index must be >= 0, got {k}")
    return math.fsum(1.0 / j for j in range(1, k + 1))


# the power series near s ~ x needs ~sqrt(s) iterations before its terms
# start decaying, so the cap scales to large shape parameters
_IG_MAX_ITER = 20000
_IG_EPS = 1e-15


def _lower_series(s: float, x: float) -> float:
    """Regularized lower incomplete gamma P(s, x) by series, x < s + 1."""
    term = 1.0 / s
    total = term
    ap = s
    for _ in range(_IG_MAX_ITER):
        ap += 1.0
        term *= x / ap
        total += term
        if abs(term) < abs(total) * _IG_EPS:
            return total * math.exp(-x + s * math.log(x) - math.lgamma(s))
    raise ConvergenceError(
        f"incomplete gamma series did not converge for s={s}, x={x}",
        series="incomplete_gamma_series", x=x, terms_used=_IG_MAX_ITER,
    )


def _upper_continued_fraction(s: float, x: float) -> float:
    """Regularized upper incomplete gamma Q(s, x) by Lentz CF, x >= s + 1."""
    tiny = 1e-300
    b = x + 1.0 - s
    c = 1.0 / tiny
    d = 1.0 / b
    h = d
    for i in range(1, _IG_MAX_ITER + 1):
        an = -i * (i - s)
        b += 2.0
        d = an * d + b
        if abs(d) < tiny:
            d = tiny
        c = b + an / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < _IG_EPS:
            return h * math.exp(-x + s * math.log(x) - math.lgamma(s))
    raise ConvergenceError(
        f"incomplete gamma continued fraction did not converge for s={s}, x={x}",
        series="incomplete_gamma_cf", x=x, terms_used=_IG_MAX_ITER,
    )


def reg_lower_gamma(s: float, x: float) -> float:
    """P(s, x) = gamma_lower(s, x) / Gamma(s) for s > 0, x >= 0."""
    if not (s > 0.0 and math.isfinite(s)):
        raise DomainError(f"reg_lower_gamma requires s > 0, got {s}")
    if not (x >= 0.0 and math.isfinite(x)):
        raise DomainError(f"reg_lower_gamma requires x >= 0, got {x}")
    if x == 0.0:
        return 0.0
    if x < s + 1.0:
        return _lower_series(s, x)
    return 1.0 - _upper_continued_fraction(s, x)


def reg_upper_gamma(s: float, x: float) -> float:
    """Q(s, x) = Gamma(s, x) / Gamma(s)."""
    if not (s > 0.0 and math.isfinite(s)):
        raise DomainError(f"reg_upper_gamma requires s > 0, got {s}")
    if not (x >= 0.0 and math.isfinite(x)):
        raise DomainError(f"reg_upper_gamma requires x >= 0, got {x}")
    if x == 0.0:
        return 1.0
    if x < s + 1.0:
        return 1.0 - _lower_series(s, x)
    return _upper_continued_fraction(s, x)


def incomplete_gamma_upper(s: float, x: float) -> float:
    """Unregularized Gamma(s, x); overflow-safe only while Gamma(s) is."""
    if s > 170.0:
        raise DomainError(
            f"Gamma({s}) overflows; use reg_upper_gamma with explicit scaling"
        )
    return reg_upper_gamma(s, x) * gamma(s)

