"""Truncated-system integration: fixed points, balance identity, truncation audit."""

import math

import numpy as np
import pytest

from quartzeq.coefficients import PiecewiseConstantFamily
from quartzeq.dynamics import (
    conservation_residual,
    equilibrium_residual,
    initial_state,
    integrate,
    rhs,
    state_from_profile,
)
from quartzeq.errors import DomainError
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
    # integrate evaluates every accepted step's rhs norm on one stack of states
    from quartzeq.coefficients import PowerLawFamily
    from quartzeq.dynamics import _Arrays, _rhs_vector

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
    # scipy.integrate is most of the import time and only integrate needs it
    import os
    import subprocess
    import sys
    from pathlib import Path

    import quartzeq

    src = str(Path(quartzeq.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src)
    code = "import sys, quartzeq; print('scipy.integrate' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, timeout=60, check=True)
    assert out.stdout.strip() == "False"
