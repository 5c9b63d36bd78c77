"""Piecewise-constant family: closed forms, stationary point, root solving."""

import math

import mpmath
import numpy as np
import pytest

from quartzeq.coefficients import PiecewiseConstantFamily
from quartzeq.errors import DomainError
from quartzeq.piecewise import (
    F_piecewise,
    F_piecewise_y,
    H_closed,
    alpha_star,
    solve_roots,
    stationary_point,
    stationary_polynomial,
    sum_iqM_closed,
    sum_kM_closed,
)
from quartzeq.series import F_equilibrium, sum_iqM

GOLDEN_LO = (3.0 - math.sqrt(5.0)) / 2.0
GOLDEN_HI = (3.0 + math.sqrt(5.0)) / 2.0


def test_closed_form_agrees_with_series():
    rng = np.random.default_rng(71)
    for _ in range(25):
        k = 10.0 ** rng.uniform(-0.7, 0.7)
        N = int(rng.integers(0, 7))
        x = 10.0 ** rng.uniform(-2, 2)
        bv = F_equilibrium(PiecewiseConstantFamily(k, N), x)
        assert F_piecewise(k, N, x) == pytest.approx(bv.value, abs=3 * bv.tail_bound + 1e-13)


def test_y_parametrisation_consistent():
    for k, N, x in ((1.0, 1, 1.0), (2.0, 4, 0.3), (0.5, 2, 12.0)):
        y = k * x / (k * x + 1.0)
        assert F_piecewise(k, N, x) == pytest.approx(F_piecewise_y(N, y), rel=1e-12)


def test_small_x_not_catastrophic():
    """The closed form subtracts; the term-by-term sum does not.

    Far below x ~ 1e-8 a naive (1 - y^{N+1}) evaluation would lose every
    digit, so pin the closed form to the cancellation-free positive sum.
    """
    k, N = 1.0, 3
    for x in (1e-6, 1e-9, 1e-12):
        h, q = 0.0, 1.0
        for i in range(1, N + 1):
            q *= x / (x + 1.0 / k)
            h += i * (1.0 / k) * q
        assert F_piecewise(k, N, x) == pytest.approx(h / (x + 1.0 / k), rel=1e-14)


@pytest.mark.parametrize("N", [1, 2, 3, 5, 20, 300, 5000])
def test_closed_form_against_50_digit_reference(N):
    # kx (1 - y^{N+1}) - (N+1) y^{N+1} cancels as kx grows: evaluated as
    # written its relative error grows like eps kx / N.  Points cluster
    # around the switch to series at u = (N+1) log1p(1/kx) = 1/4, where the
    # closed form that is kept above it is least accurate.
    kxs = list(np.geomspace(1e-3, 1e12, 76))
    kxs += [1.0 / math.expm1(u / (N + 1)) for u in np.linspace(0.1, 0.6, 51)]
    with mpmath.workdps(50):
        for k in (1.0, 0.3):
            for v in kxs:
                x = float(v) / k
                kx = mpmath.mpf(k * x)  # rounded as F_piecewise rounds it
                y = kx / (kx + 1)
                exact = kx * (1 - y ** (N + 1)) - (N + 1) * y ** (N + 1)
                got = F_piecewise(k, N, x)
                assert abs(got - exact) <= 1e-14 * exact, (k, x, got, exact)
    # far out F = N(N+1)/(2kx) (1 + O(N/kx)), with nothing left to underflow
    assert F_piecewise(1.0, N, 1e200) == pytest.approx(N * (N + 1) / 2e200, rel=1e-14)


class TestStationaryPoint:
    def test_unit_case_exact(self):
        y_star, x_star, f_max = stationary_point(1.0, 1)
        assert y_star == pytest.approx(0.5, abs=1e-12)
        assert x_star == pytest.approx(1.0, abs=1e-10)
        assert f_max == pytest.approx(0.25, abs=1e-12)

    def test_polynomial_root_at_half_for_n1(self):
        # p(y) = (1 - 2y)(1 - y)^2 for N = 1
        assert stationary_polynomial(1, 0.5) == 0.0
        assert stationary_polynomial(1, 0.2) > 0.0
        assert stationary_polynomial(1, 0.8) < 0.0

    def test_f_max_is_actually_the_maximum(self):
        k, N = 2.0, 5
        _, x_star, f_max = stationary_point(k, N)
        for x in np.geomspace(x_star / 50, x_star * 50, 101):
            assert F_piecewise(k, N, float(x)) <= f_max * (1 + 1e-12)

    def test_alpha_star_scales_with_r(self):
        assert alpha_star(1.0, 1, 0.8) == pytest.approx(0.2, rel=1e-13)
        assert alpha_star(1.0, 1, 1.6) == pytest.approx(0.4, rel=1e-13)

    def test_n0_has_no_stationary_point(self):
        # N = 0 gives F identically 0
        assert F_piecewise(1.0, 0, 5.0) == 0.0
        with pytest.raises(DomainError):
            stationary_point(1.0, 0)


class TestSolveRoots:
    def test_two_roots_golden(self):
        rep = solve_roots(1.0, 1, 1.0, 0.2)
        assert rep.count == 2
        assert rep.classification == "two_roots"
        assert rep.roots[0] == pytest.approx(GOLDEN_LO, abs=1e-12)
        assert rep.roots[1] == pytest.approx(GOLDEN_HI, abs=1e-12)
        assert not rep.near_threshold

    def test_tangent_at_threshold(self):
        rep = solve_roots(1.0, 1, 1.0, 0.25)
        assert rep.count == 1
        assert rep.classification == "tangent"
        assert rep.near_threshold
        assert rep.roots[0] == pytest.approx(1.0, abs=1e-8)

    def test_no_roots_above_threshold(self):
        rep = solve_roots(1.0, 1, 1.0, 0.3)
        assert rep.count == 0
        assert rep.classification == "no_roots"
        assert rep.roots == ()

    def test_report_carries_threshold_data(self):
        rep = solve_roots(1.0, 1, 1.0, 0.2)
        assert rep.x_star == pytest.approx(1.0, abs=1e-10)
        assert rep.F_max == pytest.approx(0.25, abs=1e-12)
        assert rep.alpha_star == pytest.approx(0.25, abs=1e-12)

    def test_roots_satisfy_equation(self):
        rng = np.random.default_rng(5)
        for _ in range(15):
            k = 10.0 ** rng.uniform(-0.5, 0.5)
            N = int(rng.integers(1, 7))
            r = 10.0 ** rng.uniform(-0.5, 0.5)
            alpha = 0.6 * alpha_star(k, N, r)
            rep = solve_roots(k, N, r, alpha)
            assert rep.count == 2
            for root in rep.roots:
                assert F_piecewise(k, N, root) == pytest.approx(alpha / r, rel=1e-9)

    def test_n0_rejected(self):
        with pytest.raises(DomainError):
            solve_roots(1.0, 0, 1.0, 0.1)

    def test_near_threshold_band_scales_with_tol(self):
        # inside the 10*tol band the count is resolution-limited: report tangent
        rep = solve_roots(1.0, 1, 1.0, 0.25 * (1 - 5e-12))
        assert rep.classification == "tangent"
        assert rep.near_threshold
        # same inflow, looser tolerance: a wider band still absorbs it
        rep = solve_roots(1.0, 1, 1.0, 0.25 * (1 - 1e-6), tol=1e-6)
        assert rep.near_threshold
        # well clear of the band the flag must stay down
        assert solve_roots(1.0, 1, 1.0, 0.2).near_threshold is False


class TestClosedSums:
    def test_mass_sum_literal(self):
        assert sum_kM_closed(2.0, 3, 0.7, 1.5) == 3.0

    def test_death_sum_matches_series(self):
        rng = np.random.default_rng(11)
        for _ in range(12):
            k = 10.0 ** rng.uniform(-0.5, 0.5)
            N = int(rng.integers(0, 6))
            x = 10.0 ** rng.uniform(-1.5, 1.5)
            closed = sum_iqM_closed(k, N, x, 1.0)
            bv = sum_iqM(PiecewiseConstantFamily(k, N), x)
            assert closed == pytest.approx(bv.value, abs=3 * bv.tail_bound + 1e-12 * (1 + abs(closed)))

    def test_h_closed_is_f_times_denominator(self):
        for k, N, x in ((1.0, 1, 1.0), (3.0, 4, 0.25)):
            assert H_closed(k, N, x) == pytest.approx(F_piecewise(k, N, x) * (x + 1.0 / k), rel=1e-12)
