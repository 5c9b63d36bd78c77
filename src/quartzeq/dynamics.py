"""Time integration of the truncated cohort system.

State: free quartz x plus cohorts M_0..M_imax.

    dx/dt   = alpha - x sum k_i M_i + sum i q_i M_i
    dM_0/dt = r - k_0 x M_0 - (p_0+q_0) M_0
    dM_i/dt = k_{i-1} x M_{i-1} - k_i x M_i - (p_i+q_i) M_i

The top cohort keeps its uptake outflow term (absorbing boundary):
macrophages that ingest past i_max leave the system and their quartz is
not re-released.  That lost quartz, (i_max+1) k_{imax} x M_{imax}
integrated over time, is accumulated in flux_log so the truncation error
is auditable.  With it the truncated system satisfies the exact balance

    d/dt (x + sum_i i M_i) =
        alpha - sum_i i p_i M_i - (i_max+1) k_{imax} x M_{imax},

which doubles as an integration audit (it holds to a few ulp at any
state, equilibrium or not).

Integration is adaptive explicit Runge-Kutta (scipy's RK45) with
per-step local error control; convergence to equilibrium is declared
when the instantaneous rhs norm stays at or below 1e-10 over the last
100 accepted steps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .coefficients import CoefficientFamily
from .errors import DomainError, IntegrationError
from .series import EquilibriumProfile

__all__ = [
    "SystemState",
    "TrajectorySummary",
    "rhs",
    "integrate",
    "initial_state",
    "state_from_profile",
    "conservation_residual",
    "equilibrium_residual",
    "CONVERGENCE_THRESHOLD",
    "CONVERGENCE_STEPS",
]

CONVERGENCE_THRESHOLD = 1e-10
CONVERGENCE_STEPS = 100
NEGATIVITY_TOLERANCE = -1e-12

DEFAULT_I_MAX = 200


@dataclass(frozen=True)
class SystemState:
    """Truncated-system state: time, free quartz, cohorts, lost-flux tally."""

    t: float
    x: float
    M: np.ndarray
    flux_log: float = 0.0

    def __post_init__(self):
        if len(self.M) < 2:
            raise DomainError("need i_max >= 1, i.e. at least cohorts M_0 and M_1")

    @property
    def i_max(self) -> int:
        return len(self.M) - 1

    @property
    def total_cells(self) -> float:
        return float(np.sum(self.M))

    @property
    def total_load(self) -> float:
        return float(np.arange(len(self.M)) @ self.M)


def initial_state(i_max: int = DEFAULT_I_MAX, x: float = 0.0) -> SystemState:
    """Empty-lung initial condition with the given truncation size."""
    if i_max < 1:
        raise DomainError(f"i_max must be >= 1, got {i_max}")
    if not (math.isfinite(x) and x >= 0.0):
        raise DomainError(f"x must be finite and >= 0, got {x}")
    return SystemState(t=0.0, x=x, M=np.zeros(i_max + 1))


def state_from_profile(profile: EquilibriumProfile, i_max: int) -> SystemState:
    """State holding an equilibrium cohort profile (zero-padded to i_max)."""
    if i_max < 1:
        raise DomainError(f"i_max must be >= 1, got {i_max}")
    M = np.zeros(i_max + 1)
    n = min(len(profile.M), i_max + 1)
    M[:n] = profile.M[:n]
    return SystemState(t=0.0, x=profile.x, M=M)


class _Arrays:
    """Coefficient arrays for one truncation size, evaluated once."""

    def __init__(self, fam: CoefficientFamily, i_max: int):
        idx = np.arange(i_max + 1)
        self.k, self.p, self.q = fam.rates_through(i_max)
        self.iq = idx * self.q
        self.ip = idx * self.p
        self.pq = self.p + self.q
        self.i_max = i_max


def _rhs_vector(arr: _Arrays, alpha: float, r: float, x, M: np.ndarray):
    """(dx, dM, dflux) at one state, or at a stack of states.

    M is one cohort vector with a scalar x, or a C-contiguous stack of
    them (one row per state) with x holding one value per row.  Each row
    is summed as a contiguous vector, so a stack gives bit for bit the
    values of its rows taken one at a time.
    """
    kM = arr.k * M
    dx = alpha - x * np.sum(kM, axis=-1) + np.sum(arr.iq * M, axis=-1)
    xc = np.asarray(x)[..., None]
    dM = np.empty_like(M)
    dM[..., 0] = r - x * kM[..., 0] - arr.pq[0] * M[..., 0]
    dM[..., 1:] = xc * kM[..., :-1] - xc * kM[..., 1:] - arr.pq[1:] * M[..., 1:]
    dflux = (arr.i_max + 1) * x * kM[..., -1]
    return dx, dM, dflux


def rhs(fam: CoefficientFamily, alpha: float, r: float,
        state: SystemState) -> SystemState:
    """Instantaneous derivative of the truncated system at a state.

    Returned as a SystemState whose fields hold the derivatives (t maps
    to dt/dt = 1); flux_log's derivative is the quartz currently being
    lost through the absorbing top cohort.
    """
    _check_rates(alpha, r)
    arr = _Arrays(fam, state.i_max)
    dx, dM, dflux = _rhs_vector(arr, alpha, r, state.x, state.M)
    return SystemState(t=1.0, x=float(dx), M=dM, flux_log=float(dflux))


def _check_rates(alpha: float, r: float) -> None:
    if not (math.isfinite(alpha) and alpha >= 0.0):
        raise DomainError(f"alpha must be finite and >= 0, got {alpha}")
    if not (math.isfinite(r) and r >= 0.0):
        raise DomainError(f"r must be finite and >= 0, got {r}")


def conservation_residual(fam: CoefficientFamily, alpha: float, r: float,
                          state: SystemState) -> float:
    """|d/dt(x + sum i M_i) - (alpha - sum i p_i M_i - boundary loss)|.

    An algebraic identity of the truncated equations: both sides are
    evaluated from the same state, so the residual is pure rounding
    (a few ulp of the balance scale).
    """
    _check_rates(alpha, r)
    arr = _Arrays(fam, state.i_max)
    dx, dM, dflux = _rhs_vector(arr, alpha, r, state.x, state.M)
    lhs = float(dx) + float(np.arange(len(dM)) @ dM)
    rhs_val = alpha - float(np.sum(arr.ip * state.M)) - float(dflux)
    return abs(lhs - rhs_val)


@dataclass(frozen=True)
class TrajectorySummary:
    """Integration outcome plus the accepted-step time series."""

    final: SystemState
    converged: bool
    rhs_norm_final: float
    max_negativity: float  # most negative component seen (0.0 if none)
    n_steps: int
    t: np.ndarray
    x_series: np.ndarray
    cells_series: np.ndarray
    load_series: np.ndarray
    rhs_norm_series: np.ndarray


def integrate(fam: CoefficientFamily, alpha: float, r: float,
              initial: SystemState, t_end: float,
              tol: float = 1e-12) -> TrajectorySummary:
    """Integrate to t_end; flag convergence to an equilibrium if reached.

    Convergence means the rhs norm (over x and the cohorts; the flux
    tally always grows and is excluded) stayed <= 1e-10 on the last 100
    accepted steps.  Near an equilibrium that norm measures the
    integrator's own global error, so tol must sit well below the
    threshold; the default leaves two orders of headroom.  Components
    below -1e-12, or a step-size underflow (stiffness), raise
    IntegrationError.
    """
    # imported here: it is most of the package's import time, and only
    # integration needs it
    from scipy.integrate import solve_ivp

    _check_rates(alpha, r)
    if not (math.isfinite(t_end) and t_end > initial.t):
        raise DomainError(f"t_end must exceed the initial time, got {t_end}")
    if not (0.0 < tol <= 1e-4):
        raise DomainError(f"tol must lie in (0, 1e-4], got {tol}")
    arr = _Arrays(fam, initial.i_max)
    n_m = initial.i_max + 1

    def f(t, y):
        dx, dM, dflux = _rhs_vector(arr, alpha, r, y[0], y[1:1 + n_m])
        return np.concatenate(([dx], dM, [dflux]))

    y0 = np.concatenate(([initial.x], initial.M, [initial.flux_log]))
    # Cap the step so the convergence window (last 100 accepted steps)
    # spans at most the final half of the run; otherwise steps balloon
    # near an equilibrium and the window reaches back into the transient.
    max_step = (t_end - initial.t) / (2.0 * CONVERGENCE_STEPS)
    sol = solve_ivp(
        f, (initial.t, t_end), y0, method="RK45",
        rtol=tol, atol=max(tol * 1e-3, 1e-14), max_step=max_step,
        dense_output=False,
    )
    if not sol.success:
        raise IntegrationError(
            f"integration stopped at t={sol.t[-1] if len(sol.t) else initial.t}: "
            f"{sol.message} (stiffness diagnostic: adaptive step underflow)"
        )

    ys = sol.y  # shape (2 + n_m, n_steps)
    min_component = float(np.min(ys[: 1 + n_m, :]))
    if min_component < NEGATIVITY_TOLERANCE:
        raise IntegrationError(
            f"state component fell to {min_component}, below the "
            f"{NEGATIVITY_TOLERANCE} nonnegativity tolerance"
        )

    n_steps = ys.shape[1]
    dx, dM, _ = _rhs_vector(arr, alpha, r, ys[0],
                            np.ascontiguousarray(ys[1:1 + n_m].T))
    norms = np.maximum(np.abs(dx), np.max(np.abs(dM), axis=1))
    tail = min(CONVERGENCE_STEPS, n_steps)
    converged = bool(np.all(norms[-tail:] <= CONVERGENCE_THRESHOLD))

    final = SystemState(
        t=float(sol.t[-1]), x=float(ys[0, -1]),
        M=ys[1:1 + n_m, -1].copy(), flux_log=float(ys[-1, -1]),
    )
    idx = np.arange(n_m)
    return TrajectorySummary(
        final=final,
        converged=converged,
        rhs_norm_final=float(norms[-1]),
        max_negativity=min(min_component, 0.0),
        n_steps=n_steps,
        t=sol.t.copy(),
        x_series=ys[0, :].copy(),
        cells_series=np.sum(ys[1:1 + n_m, :], axis=0),
        load_series=idx @ ys[1:1 + n_m, :],
        rhs_norm_series=norms,
    )


def equilibrium_residual(fam: CoefficientFamily, alpha: float, r: float,
                         profile: EquilibriumProfile) -> tuple[float, float]:
    """(rhs norm at an equilibrium profile, certified residual budget).

    The cohort equations vanish identically on an exact equilibrium
    profile (each involves only adjacent cohorts), so the residual lives
    in dx/dt and equals the beyond-truncation parts of the two series:
    budget = x * tail(sum k M) + tail(sum i q M) + rounding slack.
    """
    _check_rates(alpha, r)
    n = len(profile.M) - 1
    if n < 1:
        raise DomainError("profile too short; need cohorts through i_max >= 1")
    state = SystemState(t=0.0, x=profile.x, M=np.asarray(profile.M, dtype=float))
    arr = _Arrays(fam, n)
    dx, dM, _ = _rhs_vector(arr, alpha, r, state.x, state.M)
    norm = max(abs(float(dx)), float(np.max(np.abs(dM))))

    x = profile.x
    rb = x / (x + fam.d_inf_beyond(n)) if x > 0 else 0.0
    km_top = arr.k[n] * float(profile.M[-1])
    t_k = km_top * rb / (1.0 - rb) if rb < 1.0 else math.inf
    s = fam.iq_ratio_sup(n) * rb
    iq_top = n * arr.q[n] * float(profile.M[-1])
    if s < 1.0:
        # first omitted term is at most iq_ratio * last kept, then geometric
        t_q = max(iq_top, 1e-300) * s / (1.0 - s) if s > 0 else 0.0
    else:
        t_q = math.inf
    scale = alpha + x * float(np.sum(arr.k * state.M)) + float(np.sum(arr.iq * state.M))
    budget = x * t_k + t_q + 64.0 * np.finfo(float).eps * (scale + 1.0)
    return norm, budget
