"""Exception types shared across the package, and the input checks that
raise DomainError with the same message in every module."""

import math

__all__ = [
    "QuartzeqError",
    "DomainError",
    "ConvergenceError",
    "ConsistencyError",
    "IntegrationError",
]


class QuartzeqError(Exception):
    """Base class for all package-specific failures."""


class DomainError(QuartzeqError, ValueError):
    """A parameter lies outside the domain a routine is valid on."""


class ConvergenceError(QuartzeqError, RuntimeError):
    """A certified tolerance could not be reached within the configured caps.

    Carries enough context to diagnose the failure from a CLI exit.
    """

    def __init__(self, message, *, series=None, x=None, terms_used=None):
        super().__init__(message)
        self.series = series
        self.x = x
        self.terms_used = terms_used

    def diagnostic(self):
        d = {"error": "convergence", "message": str(self)}
        if self.series is not None:
            d["series"] = self.series
        if self.x is not None:
            d["x"] = self.x
        if self.terms_used is not None:
            d["terms_used"] = self.terms_used
        return d


class ConsistencyError(QuartzeqError, ArithmeticError):
    """Two independent evaluation routes disagree beyond their combined bounds."""


class IntegrationError(QuartzeqError, RuntimeError):
    """The dynamical integration violated a hard invariant (e.g. positivity)."""


def _check_x(x: float) -> float:
    """x as a float, after checking that it is finite and >= 0."""
    if not (math.isfinite(x) and x >= 0.0):
        raise DomainError(f"x must be finite and >= 0, got {x}")
    return float(x)


def _check_r(r: float) -> None:
    if not (math.isfinite(r) and r > 0.0):
        raise DomainError(f"r must be finite and positive, got {r}")


def _check_kN(k: float, N: int, *, min_N: int = 0) -> None:
    if not (math.isfinite(k) and k > 0.0):
        raise DomainError(f"k must be finite and positive, got {k}")
    if not isinstance(N, (int,)) or isinstance(N, bool):
        raise DomainError(f"N must be an integer, got {N!r}")
    if N < min_N:
        raise DomainError(f"N must be >= {min_N}, got {N}")


def _inflow_ratio(alpha: float, r: float) -> float:
    """alpha / r after checking that both are finite and positive."""
    if not (math.isfinite(alpha) and alpha > 0.0):
        raise DomainError(f"alpha must be positive, got {alpha}")
    if not (math.isfinite(r) and r > 0.0):
        raise DomainError(f"r must be positive, got {r}")
    return alpha / r
