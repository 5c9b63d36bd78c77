"""Truncated-system integration: fixed points, balance identity, truncation audit."""

import math
import tracemalloc
import warnings

import numpy as np
import pytest

from quartzeq.coefficients import PiecewiseConstantFamily, PowerLawFamily
from quartzeq.dynamics import (
    SystemState,
    _Arrays,
    _jacobian,
    _rhs_vector,
    conservation_residual,
    equilibrium_residual,
    initial_state,
    integrate,
    rhs,
    state_from_profile,
)
from quartzeq.errors import DomainError, IntegrationError
from quartzeq.piecewise import solve_roots
from quartzeq.series import cohort_profile

FAM = PiecewiseConstantFamily(1.0, 1)
GOLDEN_LO = (3.0 - math.sqrt(5.0)) / 2.0


def test_rhs_at_empty_state():
    d = rhs(FAM, 0.3, 1.0, initial_state(5))
    assert d.x == 0.3
    assert d.M[0] == 1.0
    assert not d.M[1:].any()


def test_stacked_rhs_matches_one_state_at_a_time():
    # integrate evaluates every sample's rhs norm on one stack of states
    rng = np.random.default_rng(7)
    for fam in (PiecewiseConstantFamily(0.7, 4),
                PowerLawFamily(p_exp=0.3, q_exp=1.1, k_exp=0.4, k0=2.0, p0=0.5, q0=0.25)):
        arr = _Arrays(fam, 40)
        ys = rng.random((42, 300)) * np.geomspace(1e-12, 3.0, 300)
        xs, stack = ys[0], np.ascontiguousarray(ys[1:].T)
        dx, dM, dflux = _rhs_vector(arr, 0.3, 1.0, xs, stack)
        for j in range(ys.shape[1]):
            dx_j, dM_j, dflux_j = _rhs_vector(arr, 0.3, 1.0, float(xs[j]), ys[1:, j])
            assert dx[j] == dx_j and dflux[j] == dflux_j
            assert np.array_equal(dM[j], dM_j)


def _full_rhs(arr, y):
    dx, dM, dflux = _rhs_vector(arr, 0.3, 1.0, y[0], y[1:-1])
    return np.concatenate(([dx], dM, [dflux]))


@pytest.mark.parametrize("fam", [
    PiecewiseConstantFamily(0.7, 4),
    PowerLawFamily(p_exp=0.3, q_exp=1.1, k_exp=0.4, k0=2.0, p0=0.5, q0=0.25),
])
def test_jacobian_matches_central_differences(fam):
    # the rhs is quadratic, so central differences are exact up to rounding
    # at any step; a large one keeps that rounding small
    arr = _Arrays(fam, 40)
    rng = np.random.default_rng(3)
    h = 0.25
    for _ in range(5):
        y = rng.random(43) * np.geomspace(3.0, 1e-6, 43)
        J = _jacobian(arr, y[0], y[1:-1])
        fd = np.empty_like(J)
        for j in range(len(y)):
            e = np.zeros_like(y)
            e[j] = h
            fd[:, j] = (_full_rhs(arr, y + e) - _full_rhs(arr, y - e)) / (2.0 * h)
        assert np.abs(J - fd).max() <= 1e-10 * np.abs(J).max()


def test_samples_are_the_max_step_grid():
    # a run started at t = 5; a stiff run that settles by t_end but whose
    # norm still exceeds the threshold early in the window; a supercritical run
    cases = [
        (FAM, 0.2, SystemState(t=5.0, x=0.0, M=np.zeros(31)), 505.0, True),
        (PowerLawFamily.from_ab(1.355, -0.385), 0.153, initial_state(16), 200.0, False),
        (FAM, 0.3, initial_state(60), 300.0, False),
    ]
    norms = []
    for fam, alpha, start, t_end, converged in cases:
        summary = integrate(fam, alpha, 1.0, start, t_end)
        assert np.array_equal(summary.t, np.linspace(start.t, t_end, 201))
        assert summary.n_steps == 201
        assert summary.final.t == t_end
        assert summary.converged == bool(np.all(summary.rhs_norm_series[-100:] <= 1e-10))
        assert summary.converged == converged
        norms.append(summary.rhs_norm_series)
    assert norms[1][101] > 1e-10 >= norms[1][-1]


def test_solver_failure_raises_without_warning(monkeypatch):
    import scipy.integrate

    def failing_odeint(func, y0, t, **kwargs):
        # fails in the fourth interval; odeint leaves later entries unset
        warnings.warn("Repeated convergence failures.", scipy.integrate.ODEintWarning)
        tcur = np.full(len(t) - 1, 1e296)
        tcur[:3] = t[1:4]
        tcur[3] = 0.1875
        info = {"message": "Repeated convergence failures (perhaps bad Jacobian or tolerances).",
                "tcur": tcur}
        return np.zeros((len(t), len(y0))), info

    monkeypatch.setattr(scipy.integrate, "odeint", failing_odeint)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(IntegrationError, match=r"t=0\.1875: Repeated convergence"):
            integrate(FAM, 0.2, 1.0, initial_state(5), 10.0)


def test_long_horizon_is_not_step_capped():
    # each sample interval spans 100 time units; odeint's default cap of
    # 500 steps per interval fails this run in its first interval
    summary = integrate(FAM, 0.2, 1.0, initial_state(200), 20000.0)
    assert summary.converged
    assert summary.final.x == pytest.approx(GOLDEN_LO, abs=1e-8)


def test_integrate_retains_no_memory():
    # scipy's solve_ivp and ode LSODA keep their work array alive after
    # each call: this loop grows by about 540 KB through solve_ivp
    for _ in range(3):
        integrate(FAM, 0.2, 1.0, initial_state(40), 10.0)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for _ in range(20):
            integrate(FAM, 0.2, 1.0, initial_state(40), 10.0)
        grown = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert grown < 20 * 1024


def test_zero_supply_zero_state_is_fixed():
    summary = integrate(FAM, 0.0, 0.0, initial_state(10), 50.0)
    assert summary.converged
    assert summary.final.x == 0.0
    assert not summary.final.M.any()


def test_zero_inflow_keeps_x_axis_invariant():
    # alpha = 0: x stays exactly 0 and only cohort 0 fills (to r / (p0+q0))
    summary = integrate(FAM, 0.0, 1.0, initial_state(20), 200.0)
    assert summary.converged
    assert summary.final.x == 0.0
    assert summary.final.M[0] == pytest.approx(1.0, abs=1e-9)
    assert abs(summary.final.M[1:]).max() < 1e-9


def test_subcritical_run_lands_on_analytic_root():
    summary = integrate(FAM, 0.2, 1.0, initial_state(60), 2000.0)
    assert summary.converged
    assert summary.rhs_norm_final <= 1e-10
    roots = solve_roots(1.0, 1, 1.0, 0.2).roots
    assert min(abs(summary.final.x - root) for root in roots) < 1e-8
    # starting from x = 0 the flow picks the lower branch
    assert summary.final.x == pytest.approx(GOLDEN_LO, abs=1e-8)


def test_supercritical_run_does_not_settle():
    # inflow above the peak: x climbs through the window with no equilibrium
    # in reach; the truncated system only fakes one on much longer horizons
    summary = integrate(FAM, 0.3, 1.0, initial_state(200), 300.0)
    assert not summary.converged
    assert summary.rhs_norm_final > 1e-6
    assert summary.final.x > 5.0
    n = len(summary.x_series)
    assert summary.x_series[-1] > summary.x_series[n // 2] > summary.x_series[n // 4]


def test_negativity_stays_within_tolerance():
    summary = integrate(FAM, 0.2, 1.0, initial_state(30), 500.0)
    assert summary.max_negativity >= -1e-12
    assert summary.max_negativity <= 0.0


def test_balance_identity_is_algebraic():
    # the loss/boundary bookkeeping cancels exactly; only rounding remains
    for t_end in (5.0, 50.0, 500.0):
        summary = integrate(FAM, 0.2, 1.0, initial_state(40), t_end)
        assert conservation_residual(FAM, 0.2, 1.0, summary.final) < 1e-12


def test_balance_identity_by_finite_differences():
    """Audit x + sum(i M_i) + flux_log against its claimed time derivative.

    Small i_max keeps the top cohort populated, so a wrong boundary
    coefficient (i_max instead of i_max + 1) would shift the derivative
    by k*x*M_top, orders of magnitude above the differencing error.
    """
    h = 1e-3
    s1 = integrate(FAM, 0.3, 1.0, initial_state(5), 5.0).final
    s2 = integrate(FAM, 0.3, 1.0, s1, 5.0 + h).final

    def stock(state):
        return state.x + state.total_load + state.flux_log

    def drain(state):
        # sum over i of i * p_i * M_i; here p_i = 1 only for i <= 1
        return state.M[1]

    fd = (stock(s2) - stock(s1)) / h
    claimed = 0.3 - 0.5 * (drain(s1) + drain(s2))
    mismatch = abs(fd - claimed)
    wrong_boundary_shift = s1.x * s1.M[-1]  # k = 1
    assert mismatch < 1e-6
    assert wrong_boundary_shift > 100.0 * mismatch


def test_truncation_insensitivity_via_flux_log():
    # doubling the truncation moves the answer by less than 10x the
    # integrated boundary flux of the shorter system
    short = integrate(FAM, 0.2, 1.0, initial_state(20), 2000.0)
    long = integrate(FAM, 0.2, 1.0, initial_state(40), 2000.0)
    assert short.converged and long.converged
    shift = abs(short.final.x - long.final.x)
    assert short.final.flux_log > 0.0
    assert shift < 10.0 * short.final.flux_log


def test_equilibrium_profile_is_stationary():
    prof = cohort_profile(FAM, GOLDEN_LO, 1.0, 40)
    norm, budget = equilibrium_residual(FAM, 0.2, 1.0, prof)
    assert norm <= budget
    state = state_from_profile(prof, 60)
    assert state.i_max == 60
    assert state.M[41:].tolist() == [0.0] * 20
    d = rhs(FAM, 0.2, 1.0, state)
    assert abs(d.x) < 1e-10


def test_state_accessors():
    state = initial_state(4, x=2.0)
    assert state.i_max == 4
    assert state.x == 2.0
    assert state.total_cells == 0.0
    st2 = state_from_profile(cohort_profile(FAM, 1.0, 1.0, 4), 4)
    assert st2.total_cells == pytest.approx(st2.M.sum())
    assert st2.total_load == pytest.approx(float(np.arange(5) @ st2.M))


class TestValidation:
    def test_horizon_must_advance(self):
        with pytest.raises(DomainError):
            integrate(FAM, 0.2, 1.0, initial_state(5), 0.0)

    def test_tolerance_ceiling(self):
        with pytest.raises(DomainError):
            integrate(FAM, 0.2, 1.0, initial_state(5), 10.0, tol=1e-3)

    def test_negative_rates_rejected(self):
        with pytest.raises(DomainError):
            integrate(FAM, -0.1, 1.0, initial_state(5), 10.0)
        with pytest.raises(DomainError):
            integrate(FAM, 0.1, -1.0, initial_state(5), 10.0)

    def test_truncation_floor(self):
        with pytest.raises(DomainError):
            initial_state(0)


def test_import_leaves_scipy_integrate_unloaded():
    # scipy.integrate is most of the import time and only integrate needs it;
    # scipy.special is imported inside h10_closed_form, so no scipy module loads
    import os
    import subprocess
    import sys
    from pathlib import Path

    import quartzeq

    src = str(Path(quartzeq.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src)
    code = ("import sys, quartzeq; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, timeout=60, check=True)
    assert out.stdout.strip() == "[]"
