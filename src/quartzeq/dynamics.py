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

Integration is LSODA, which switches between Adams and BDF by measured
stiffness, with the analytic arrowhead Jacobian.  It runs in scipy's
compiled odeint driver, the scipy.integrate._odepack extension, which
integrate loads on its own: importing the scipy.integrate package would
also load scipy.special, scipy.optimize and scipy.sparse.linalg (about
350 modules and 50 MB of resident memory), none of which this module
uses.  The call passes the arguments scipy.integrate.odeint passes, so
its trajectories and work counts are odeint's bit for bit.
The rhs and the Jacobian are evaluated by kernels that are odeint's
callbacks as they are: they take its (t, y), with the state vector
y = (x, M_0..M_imax, flux), and their coefficient rows are padded with
a zero at the x slot and at the flux slot, so each multiplies into y
whole.  They write into buffers they own, so the callbacks, called
about a thousand times a run, allocate nothing.  Each integrate call
makes its own kernels, and odeint copies what a callback returns before
calling it again; the public functions make a kernel per call and
return nothing it later overwrites.  One rhs kernel evaluates one state
or a stack of them with the same operations, and dx's two sums are one
np.vecdot row per state, so a stacked rhs is bit for bit the per-state
one.
The trajectory is sampled on an even grid of 201 times whose spacing is
also the step cap; convergence to equilibrium is declared when the
instantaneous rhs norm stays at or below 1e-10 over the last 100
samples, the final half of the run.
"""

from __future__ import annotations

import functools
import importlib.machinery
import importlib.util
import math
import sys
from dataclasses import dataclass

import numpy as np

from .coefficients import CoefficientFamily
from .errors import DomainError, IntegrationError, _check_x
from .series import EquilibriumProfile, _geometric_tail

__all__ = [
    "SystemState",
    "TrajectorySummary",
    "integrate",
    "initial_state",
    "state_from_profile",
    "conservation_residual",
    "equilibrium_residual",
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


def _check_i_max(i_max) -> None:
    if not isinstance(i_max, (int, np.integer)) or i_max < 1:
        raise DomainError(f"i_max must be an integer >= 1, got {i_max!r}")


def initial_state(i_max: int = DEFAULT_I_MAX, x: float = 0.0) -> SystemState:
    """Empty-lung initial condition with the given truncation size."""
    _check_i_max(i_max)
    _check_x(x)
    return SystemState(t=0.0, x=x, M=np.zeros(i_max + 1))


def state_from_profile(profile: EquilibriumProfile, i_max: int) -> SystemState:
    """State holding an equilibrium cohort profile (zero-padded to i_max)."""
    _check_i_max(i_max)
    M = np.zeros(i_max + 1)
    n = min(len(profile.M), i_max + 1)
    M[:n] = profile.M[:n]
    return SystemState(t=0.0, x=profile.x, M=M)


class _Arrays:
    """Coefficient rows for one truncation size, evaluated once.

    Each row is laid out like odeint's state vector y = (x, M_0..M_imax,
    flux), with a zero at the x slot and at the flux slot, so a kernel
    multiplies it into y whole.
    """

    def __init__(self, fam: CoefficientFamily, i_max: int):
        k, p, q = fam.rates_through(i_max)
        idx = np.arange(i_max + 1)

        def padded(row: np.ndarray) -> np.ndarray:
            return np.concatenate(([0.0], row, [0.0]))

        # (k, i q): the rows of dx's two sums, which one vecdot takes
        self.k_iq = np.stack((padded(k), padded(idx * q)))
        self.k = self.k_iq[0]
        self.pq = padded(p + q)
        self.ip = padded(idx * p)
        self.i_max = i_max


def _state_vector(state: SystemState) -> np.ndarray:
    """odeint's state vector (x, M_0..M_imax, flux) of a state."""
    y = np.empty(state.i_max + 3)
    y[0], y[1:-1], y[-1] = state.x, state.M, state.flux_log
    return y


def _rhs_kernel(arr: _Arrays, alpha: float, r: float, rows: int | None = None):
    """The rhs kernel: a function (t, y) -> dy/dt into a buffer it owns.

    y is odeint's state vector (x, M_0..M_imax, flux) for rows None, or a
    C-contiguous stack of ``rows`` of them; t is unread.  A call fills and
    returns one array of y's shape, which the next call overwrites.  Six
    ufunc calls do the work over the padded rows:

        kM = k y,   (sum k M, sum i q M) = vecdot((k, i q), y),
        dM_i = x (kM_{i-1} - kM_i) - (p_i + q_i) M_i,

    where kM at the x slot is zero and stands in for kM_{-1}.  Then
    dx = alpha - x sum k M + sum i q M, dM_0 gains the inflow r and
    dflux = (i_max + 1) x kM_imax.  Every expression keeps one operand
    order and each sum is one vecdot row per state, so a stack gives bit
    for bit the values of its rows taken one at a time.
    """
    lead = () if rows is None else (rows,)
    k, k_iq, pq, top = arr.k, arr.k_iq, arr.pq, arr.i_max + 1
    kM, prod, out = (np.empty(lead + (arr.i_max + 3,)) for _ in range(3))
    sums = np.empty(lead + (2,))
    # the first and last entry of each state (or of its two sums): a
    # scalar, or a column of the stack
    first = 0 if rows is None else (slice(None), 0)
    last = -1 if rows is None else (slice(None), -1)
    # the cohort slots, and the slots one before them
    dM, prod_M, kM_M, kM_prev = out[..., 1:-1], prod[..., 1:-1], kM[..., 1:-1], kM[..., :-2]
    # x is a scalar or one value per row; on the transpose it scales
    # every cohort of its own state in either case
    dM_T = dM.T

    def kernel(t, y: np.ndarray) -> np.ndarray:
        x = y[first]
        np.multiply(k, y, kM)
        # a stack pairs each state with both rows
        np.vecdot(k_iq, y if rows is None else y[:, None, :], out=sums)
        np.subtract(kM_prev, kM_M, dM)
        np.multiply(x, dM_T, dM_T)
        np.multiply(pq, y, prod)
        np.subtract(dM, prod_M, dM)
        out[first] = alpha - x * sums[first] + sums[last]
        dM[first] += r
        out[last] = top * x * kM_M[last]
        return out

    return kernel


def _jacobian_kernel(arr: _Arrays):
    """The Jacobian kernel: (t, y) -> d(dy/dt)/dy into one matrix.

    y is odeint's state vector (x, M_0..M_imax, flux); t is unread.
    Arrowhead: a dense x row and column around a lower-bidiagonal cohort
    block; the flux tally feeds back into nothing, so its column is zero.
    A call writes only those entries, the rest staying zero from the
    allocation, and returns the matrix the next call overwrites.
    """
    n_m = arr.i_max + 1
    k_y, top = arr.k, arr.i_max + 1
    # the rows at the cohort slots
    k, iq, pq = arr.k[1:-1], arr.k_iq[1, 1:-1], arr.pq[1:-1]
    kM = np.empty(n_m + 2)
    kM_M, kM_prev = kM[1:-1], kM[:-2]
    J = np.zeros((n_m + 2, n_m + 2))
    row0, col0 = J[0, 1:1 + n_m], J[1:1 + n_m, 0]
    # writable views of the cohort block's diagonal and sub-diagonal
    diag = np.einsum("ii->i", J[1:1 + n_m, 1:1 + n_m])
    sub = np.einsum("ii->i", J[2:1 + n_m, 1:n_m])

    def kernel(t, y: np.ndarray) -> np.ndarray:
        x = y[0]
        np.multiply(k_y, y, kM)
        J[0, 0] = -np.add.reduce(kM_M)
        np.multiply(x, k, row0)
        np.subtract(iq, row0, row0)
        # kM at the x slot is zero and stands in for kM_{-1}
        np.subtract(kM_prev, kM_M, col0)
        np.multiply(-x, k, diag)
        np.subtract(diag, pq, diag)
        np.multiply(x, k[:-1], sub)
        J[-1, 0] = top * kM_M[-1]
        J[-1, n_m] = top * x * k[-1]
        return J

    return kernel


@functools.cache
def _odepack():
    """scipy's compiled LSODA driver, scipy.integrate._odepack, alone.

    Finding the scipy.integrate spec imports only the top-level scipy
    package; the extension is then loaded from that package's directory
    under its full name and registered, so a later import of
    scipy.integrate reuses it, as this reuses one loaded before.
    """
    name = "scipy.integrate._odepack"
    if name in sys.modules:
        return sys.modules[name]
    where = importlib.util.find_spec("scipy.integrate").submodule_search_locations
    spec = importlib.machinery.PathFinder.find_spec(name, where)
    if spec is None:
        raise ImportError(f"no {name} extension in {', '.join(where)}", name=name)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    sys.modules[name] = module
    return module


# scipy.integrate.odeint's messages for LSODA's failures, the negative
# istate values it returns in place of 2, success
_ODEINT_MESSAGES = {
    -1: "Excess work done on this call (perhaps wrong Dfun type).",
    -2: "Excess accuracy requested (tolerances too small).",
    -3: "Illegal input detected (internal error).",
    -4: "Repeated error test failures (internal error).",
    -5: "Repeated convergence failures (perhaps bad Jacobian or tolerances).",
    -6: "Error weight became zero during problem.",
    -7: "Internal workspace insufficient to finish (internal error).",
    -8: "Run terminated (internal error).",
}


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
    y = _state_vector(state)
    d = _rhs_kernel(arr, alpha, r)(state.t, y)
    dM = d[1:-1]
    lhs = float(d[0]) + float(np.arange(len(dM)) @ dM)
    rhs_val = alpha - float(np.sum(arr.ip * y)) - float(d[-1])
    return abs(lhs - rhs_val)


@dataclass(frozen=True)
class TrajectorySummary:
    """Integration outcome plus the time series sampled on the step-cap grid.

    solver_steps, rhs_evals and jac_evals are the integrator's own work
    over the whole run (odeint's final nst, nfe and nje): its internal
    steps, which are not the samples, and its calls of the right-hand
    side and of the analytic Jacobian.
    """

    final: SystemState
    converged: bool
    rhs_norm_final: float
    max_negativity: float  # most negative component seen (0.0 if none)
    n_steps: int  # samples, 2 * CONVERGENCE_STEPS + 1
    t: np.ndarray
    x_series: np.ndarray
    cells_series: np.ndarray
    load_series: np.ndarray
    rhs_norm_series: np.ndarray
    solver_steps: int
    rhs_evals: int
    jac_evals: int


def integrate(fam: CoefficientFamily, alpha: float, r: float,
              initial: SystemState, t_end: float,
              tol: float = 1e-12) -> TrajectorySummary:
    """Integrate to t_end; flag convergence to an equilibrium if reached.

    The trajectory is sampled on 2 * CONVERGENCE_STEPS + 1 evenly spaced
    times from the initial time to t_end, the largest step the integrator
    may take.  Convergence means the rhs norm (over x and the cohorts;
    the flux tally always grows and is excluded) stayed <= 1e-10 on the
    last 100 samples, i.e. over the final half of the run.  Near an
    equilibrium that norm measures the integrator's own global error, so
    tol must sit well below the threshold; the default leaves two orders
    of headroom.  An initial state with a non-finite or negative time, or
    a non-finite or a below -1e-12 x, cohort or tally, raises DomainError
    before the run.  A sampled component that is not finite or is below
    -1e-12, or any solver failure (excess work, repeated error or
    convergence failures), raises IntegrationError.

    The solver is scipy's compiled odeint driver, loaded without the rest
    of scipy.integrate (see _odepack) and called with the arguments
    scipy.integrate.odeint passes it; its returned istate, 2 on success,
    picks the message of an IntegrationError.  A test pins this call to
    the public odeint bit for bit.

    The rhs and Jacobian kernels are odeint's callbacks as they are: they
    take its (t, y), with y = (x, M_0..M_imax, flux), and multiply
    coefficient rows padded to y's layout into it.  They allocate nothing:
    each fills and returns a buffer made once for this call, and odeint
    copies what a callback returns before it calls one again.  The
    buffers are owned by this call alone, so concurrent or nested calls
    share nothing.  The sampled rhs norms come from one call of the rhs
    kernel on the stack of samples, bit for bit the per-state values.
    """
    _check_rates(alpha, r)
    y0 = _state_vector(initial)
    if not (math.isfinite(initial.t) and initial.t >= 0.0):
        raise DomainError(f"the initial time must be finite and >= 0, got {initial.t}")
    if not np.all(np.isfinite(y0)):
        raise DomainError("the initial x, cohorts and flux tally must be finite")
    lowest = float(np.min(y0[:-1]))
    if lowest < NEGATIVITY_TOLERANCE:
        raise DomainError(f"the initial x and cohorts must be >= {NEGATIVITY_TOLERANCE}, "
                          f"got {lowest}")
    if not (math.isfinite(t_end) and t_end > initial.t):
        raise DomainError(f"t_end must exceed the initial time, got {t_end}")
    if not (0.0 < tol <= 1e-4):
        raise DomainError(f"tol must lie in (0, 1e-4], got {tol}")
    arr = _Arrays(fam, initial.i_max)
    # Sample and cap the step on one grid whose final half is exactly the
    # convergence window (last 100 samples); without the cap, steps
    # balloon near an equilibrium and the window reaches back into the
    # transient.
    max_step = (t_end - initial.t) / (2.0 * CONVERGENCE_STEPS)
    t = np.linspace(initial.t, t_end, 2 * CONVERGENCE_STEPS + 1)
    # odeint (LSODA in compiled code) switches between Adams and BDF by
    # measured stiffness; unlike solve_ivp's and ode's LSODA it keeps no
    # work array alive after the call.  Its default cap of 500 steps per
    # sample interval fails long transients, so the steps go uncapped.
    # odepack copies what f and Dfun return before it calls either again,
    # so both may return the buffer their kernel refills; it overwrites y0
    # with the last state, and y0 is this call's own.  The positional
    # arguments after Dfun: col_deriv, ml, mu, full_output, rtol, atol,
    # tcrit, h0, hmax, hmin, ixpr, mxstep, mxhnil, mxordn, mxords, tfirst.
    ys, info, istate = _odepack().odeint(
        _rhs_kernel(arr, alpha, r), y0, t, (), _jacobian_kernel(arr),
        0, -1, -1, 1, tol, max(tol * 1e-3, 1e-14),
        None, 0.0, max_step, 0.0, 0, np.iinfo(np.int32).max, 0, 12, 5, 1,
    )
    if istate != 2:
        # entries past the failed interval are unset; it is the first
        # whose reached time falls short of its sample time
        reached = info["tcur"]
        t_stop = float(reached[np.argmax(reached < t[1:])])
        raise IntegrationError(f"integration stopped at t={t_stop}: "
                               f"{_ODEINT_MESSAGES[istate]}")

    finite = np.all(np.isfinite(ys), axis=1)
    if not np.all(finite):
        raise IntegrationError(f"the state is not finite at t={float(t[np.argmin(finite)])}")
    min_component = float(np.min(ys[:, :-1]))
    if min_component < NEGATIVITY_TOLERANCE:
        raise IntegrationError(
            f"state component fell to {min_component}, below the "
            f"{NEGATIVITY_TOLERANCE} nonnegativity tolerance"
        )

    d = _rhs_kernel(arr, alpha, r, rows=len(t))(t, ys)
    norms = np.maximum(np.abs(d[:, 0]), np.max(np.abs(d[:, 1:-1]), axis=1))
    converged = bool(np.all(norms[-CONVERGENCE_STEPS:] <= CONVERGENCE_THRESHOLD))

    final = SystemState(
        t=float(t[-1]), x=float(ys[-1, 0]),
        M=ys[-1, 1:-1].copy(), flux_log=float(ys[-1, -1]),
    )
    return TrajectorySummary(
        final=final,
        converged=converged,
        rhs_norm_final=float(norms[-1]),
        max_negativity=min(min_component, 0.0),
        n_steps=len(t),
        t=t,
        x_series=ys[:, 0].copy(),
        cells_series=np.sum(ys[:, 1:-1], axis=1),
        load_series=ys[:, 1:-1] @ np.arange(initial.i_max + 1),
        rhs_norm_series=norms,
        solver_steps=int(info["nst"][-1]),
        rhs_evals=int(info["nfe"][-1]),
        jac_evals=int(info["nje"][-1]),
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
    y = _state_vector(SystemState(t=0.0, x=profile.x, M=np.asarray(profile.M, dtype=float)))
    arr = _Arrays(fam, n)
    d = _rhs_kernel(arr, alpha, r)(0.0, y)
    norm = max(abs(float(d[0])), float(np.max(np.abs(d[1:-1]))))

    x = profile.x
    # the tails past the last kept terms k_n M_n and n q_n M_n
    km_top, iq_top = arr.k_iq[:, n + 1] * float(profile.M[-1])
    t_k = _geometric_tail(km_top, fam.step_bound(None, n)(x))
    t_q = _geometric_tail(max(iq_top, 1e-300), fam.step_bound("g", n)(x))
    sum_kM, sum_iqM = np.vecdot(arr.k_iq, y)
    scale = alpha + x * float(sum_kM) + float(sum_iqM)
    budget = x * t_k + t_q + 64.0 * np.finfo(float).eps * (scale + 1.0)
    return norm, budget
