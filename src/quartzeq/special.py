"""Special-function kernels backing the asymptotic machinery.

Everything here is classical: the Riemann zeta function on the real axis
(alternating-series acceleration for s > 0, the functional equation for
s < 0), Euler's gamma via the C library, exact Bernoulli numbers from the
defining recurrence, and harmonic numbers.  The incomplete gamma function
comes from scipy.special (see asymptotics.h10_closed_form).
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

from .errors import DomainError

__all__ = [
    "EULER_GAMMA",
    "zeta",
    "gamma",
    "harmonic",
    "bernoulli_fraction",
]

EULER_GAMMA = 0.5772156649015329

_BORWEIN_N = 50
_LN2 = math.log(2.0)


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


def _zeta_alternating(s: float, u: float) -> float:
    """zeta(s) for real s > 0, s != 1, given u = s - 1 (exact near the pole).

    zeta = eta / (1 - 2^-u), with the denominator taken as -expm1(-u ln 2)
    so that it keeps its relative accuracy near the pole.
    """
    coeffs = _borwein_coefficients()
    total = 0.0
    comp = 0.0
    for k, c in enumerate(coeffs):
        term = c / float(k + 1) ** s if (k % 2 == 0) else -c / float(k + 1) ** s
        y = term - comp
        t = total + y
        comp = (t - total) - y
        total = t
    return total / math.expm1(-u * _LN2)


def _sin_half_pi(s: float) -> float:
    """sin(pi*s/2) with exact zeros at even integers s."""
    half = 0.5 * s
    m = math.floor(half + 0.5)
    r = half - m
    value = math.sin(math.pi * r)
    return -value if (m % 2) else value


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
        return _zeta_alternating(s, s - 1.0)
    # functional equation, with -s exact as the distance of 1 - s from the
    # pole; gamma(1-s) overflows only past s < -169
    if s < -169.0:
        raise DomainError(f"zeta({s}) overflows double precision")
    return (
        2.0**s
        * math.pi ** (s - 1.0)
        * _sin_half_pi(s)
        * math.gamma(1.0 - s)
        * _zeta_alternating(1.0 - s, -s)
    )


def gamma(s: float) -> float:
    """Euler gamma; raises DomainError at the poles."""
    try:
        return math.gamma(s)
    except ValueError as exc:
        raise DomainError(f"gamma pole or domain error at s = {s}") from exc


@lru_cache(maxsize=None)
def bernoulli_fraction(n: int) -> Fraction:
    """Exact Bernoulli number B_n (B_1 = -1/2), cached, from the recurrence
    B_n = -sum_{j<n} C(n+1,j) B_j / (n+1)."""
    if n < 0:
        raise DomainError(f"Bernoulli index must be >= 0, got {n}")
    if n == 0:
        return Fraction(1)
    return -sum(math.comb(n + 1, j) * bernoulli_fraction(j) for j in range(n)) / (n + 1)


def harmonic(k: int) -> float:
    """H_k = sum_{j<=k} 1/j, H_0 = 0."""
    if k < 0:
        raise DomainError(f"harmonic index must be >= 0, got {k}")
    return math.fsum(1.0 / j for j in range(1, k + 1))
