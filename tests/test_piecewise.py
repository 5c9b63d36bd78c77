"""Piecewise-constant family: closed forms, stationary point, root solving."""

import math
import struct
import sys
from dataclasses import replace

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from quartzeq import piecewise
from quartzeq.coefficients import PiecewiseConstantFamily
from quartzeq.errors import ConvergenceError, DomainError
from quartzeq.piecewise import (
    _F_REL_ERR,
    F_piecewise,
    RootReport,
    _F_piecewise,
    _stationary_form,
    alpha_star,
    solve_roots,
    stationary_point,
    sum_iqM_closed,
    sum_kM_closed,
)
from quartzeq.series import F_equilibrium, evaluate

GOLDEN_LO = (3.0 - math.sqrt(5.0)) / 2.0
GOLDEN_HI = (3.0 + math.sqrt(5.0)) / 2.0


def _F_y(N, y):
    """F in y = kx/(kx+1) by Horner over sum_{j=1..N} y^j - N y^{N+1}: an
    oracle that shares no formula with F_piecewise or the peak."""
    acc = 0.0
    for _ in range(N):
        acc = y * (1.0 + acc)
    return acc - N * y ** (N + 1)


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
        assert F_piecewise(k, N, x) == pytest.approx(_F_y(N, y), rel=1e-12)


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
                assert abs(got - exact) <= _F_REL_ERR * exact, (k, x, got, exact)
    # far out F = N(N+1)/(2kx) (1 + O(N/kx)), with nothing left to underflow
    assert F_piecewise(1.0, N, 1e200) == pytest.approx(N * (N + 1) / 2e200, rel=1e-14)


@settings(max_examples=150, deadline=None)
@given(k=st.floats(0.3, 3.0), log_N=st.floats(0.0, math.log(2e9)), log_kx=st.floats(-3.0, 12.0),
       frac=st.floats(1e-6, 0.999))
def test_F_piecewise_error_bound_holds(k, log_N, log_kx, frac):
    # the premise of solve_roots' band certificate: F_piecewise within
    # _F_REL_ERR of the exact F at the rounded kx, here at a random kx and at
    # both roots of F = frac * F_max and the floats after them, for N
    # log-uniform up to 2e9
    N = int(math.exp(log_N))
    roots = solve_roots(k, N, 1.0, frac * stationary_point(k, N)[2]).roots
    with mpmath.workdps(50):
        for x in [10.0**log_kx / k, *roots, *(math.nextafter(x, math.inf) for x in roots)]:
            kx = mpmath.mpf(k * x)  # rounded as F_piecewise rounds it
            y = kx / (kx + 1)
            exact = kx * (1 - y ** (N + 1)) - (N + 1) * y ** (N + 1)
            assert abs(F_piecewise(k, N, x) - exact) <= _F_REL_ERR * exact, (k, N, x)


def _reference_bisect(f, lo, hi, f_lo):
    """The bisection to adjacent floats that evaluates every midpoint."""
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


def _reference_stationary_point(k, N):
    """stationary_point with the peak computed afresh, past its cache, on
    every call; TestStationaryPoint checks the peak itself against 50 digits."""
    z_star, f_max = piecewise._peak.__wrapped__(N)
    return 1.0 - z_star, (1.0 - z_star) / (k * z_star), f_max


def _reference_solve_roots(k, N, r, alpha, tol=1e-12):
    """solve_roots as plain bisections that evaluate F at every midpoint."""
    y_star, x_star, f_max = _reference_stationary_point(k, N)
    a_star = r * f_max
    phi = alpha / r
    if abs(phi - f_max) <= 10.0 * tol * f_max:
        return RootReport(k, N, r, alpha, 1, (x_star,), "tangent", x_star, f_max, a_star, True)
    if phi > f_max:
        return RootReport(k, N, r, alpha, 0, (), "no_roots", x_star, f_max, a_star, False)

    def g(x):
        return _F_piecewise(k, N, x) - phi

    left = _reference_bisect(g, 0.0, x_star, -phi)
    x_top = 0.5 * sys.float_info.max / max(k, 1.0)
    hi = min(2.0 * x_star, x_top)
    while g(hi) >= 0.0:
        if hi == x_top:
            raise ConvergenceError(
                f"F stays above alpha/r={phi!r} at every finite x up to {x_top!r}",
                series="piecewise_roots", x=x_top,
            )
        hi = min(2.0 * hi, x_top)
    right = _reference_bisect(g, x_star, hi, g(x_star))
    return RootReport(k, N, r, alpha, 2, (left, right), "two_roots",
                      x_star, f_max, a_star, False)


def _criterion_3_cases():
    """(k, N, alpha/r) over criterion 3's sweep, with r = 1."""
    rng = np.random.default_rng(3 + 3)
    cases = [(1.0, 1, phi) for phi in (0.2, 0.25, 0.3)]
    for _ in range(50):
        k = float(10.0 ** rng.uniform(-0.7, 0.7))
        N = int(rng.integers(1, 9))
        fm = stationary_point(k, N)[2]
        cases += [(k, N, mult * fm) for mult in (0.5, 0.9, 0.999, 1.001, 1.5)]
    return cases


def _solve_traced(k, N, r, alpha, tol=1e-12):
    """solve_roots, with the x of every F evaluation the root search made."""
    stationary_point(k, N)  # the peak is cached: every F evaluation is the roots'
    F, xs = piecewise._F_piecewise, []

    def counting_F(k, N, x):
        xs.append(x)
        return F(k, N, x)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(piecewise, "_F_piecewise", counting_F)
        rep = solve_roots(k, N, r, alpha, tol=tol)
    return rep, xs


def _ulps(a, b):
    """Distance in ulps between two positive floats."""
    return abs(struct.unpack("<q", struct.pack("<d", a))[0]
               - struct.unpack("<q", struct.pack("<d", b))[0])


def _check_contract(k, N, r, alpha, tol=1e-12):
    """solve_roots against the reference; returns the largest root move in ulps.

    Every field but the roots is the reference's bit for bit.  Each root is a
    sign change of F_piecewise - alpha/r between it and the next float (or an
    exact zero) on its flank, and the search evaluates F at no x twice.
    """
    rep, xs = _solve_traced(k, N, r, alpha, tol)
    ref = _reference_solve_roots(k, N, r, alpha, tol)
    assert replace(rep, roots=ref.roots) == ref, (k, N, r, alpha)
    assert len(set(xs)) == len(xs), (k, N, r, alpha)
    if rep.count != 2:
        assert rep.roots == ref.roots, (k, N, r, alpha)
        return 0
    phi = alpha / r
    assert 0.0 < rep.roots[0] <= rep.x_star <= rep.roots[1], (k, N, r, alpha, rep.roots)
    for x in rep.roots:
        g, g_next = (_F_piecewise(k, N, t) - phi for t in (x, math.nextafter(x, math.inf)))
        assert g == 0.0 or g < 0.0 < g_next or g > 0.0 > g_next, (k, N, r, alpha, x)
    return max(_ulps(x, x_ref) for x, x_ref in zip(rep.roots, ref.roots))


class TestReference:
    """solve_roots and stationary_point against the plain bisections.

    The roots keep their contract, a sign change at adjacent floats, but a
    root the Newton search walks to may be another sign change than the
    reference's inside the rounding zone; each test prints the largest such
    move.
    """

    def test_criterion_3_sweep(self):
        worst = max(_check_contract(k, N, 1.0, phi) for k, N, phi in _criterion_3_cases())
        print(f"largest root move from the reference: {worst} ulps")
        assert sum(solve_roots(k, N, 1.0, phi).count == 2
                   for k, N, phi in _criterion_3_cases()) == 151

    def test_random_cases_up_to_N_5000(self):
        # alpha/r from far below the peak to past it: 1 +- 1e-11 are the
        # edges of the tangent band at the default tol, 1 - 2e-11 just outside
        rng = np.random.default_rng(22)
        mults = (1e-6, 0.5, 0.999, 1 - 2e-11, 1 - 1e-11, 1 + 1e-11, 1.05)
        count = worst = 0
        for _ in range(300):
            k = float(10.0 ** rng.uniform(-0.7, 0.7))
            N = int(np.exp(rng.uniform(0.0, math.log(5000.5))))
            fm = stationary_point(k, N)[2]
            for mult in mults:
                r = float(10.0 ** rng.uniform(-1, 1))
                alpha = mult * fm * r
                worst = max(worst, _check_contract(k, N, r, alpha))
                count += solve_roots(k, N, r, alpha).count == 2
        print(f"largest root move from the reference: {worst} ulps")
        assert count >= 3 * 300

    def test_tol_that_leaves_no_margin(self):
        # a tol far below F's rounding error lets alpha/r come within 1e-14 of
        # the peak, where F is so flat that its computed values cross alpha/r
        # many times around each root: every root is still a sign change on
        # its flank (the plain bisections take 61 to 109 F evaluations here)
        worst = most = 0
        for k, N in ((1.0, 1), (0.4, 7), (2.5, 300)):
            fm = stationary_point(k, N)[2]
            for mult in (1 - 1e-12, 1 - 1e-13, 1 - 1e-14):
                worst = max(worst, _check_contract(k, N, 1.0, mult * fm, tol=1e-16))
                most = max(most, len(_solve_traced(k, N, 1.0, mult * fm, tol=1e-16)[1]))
        print(f"largest root move from the reference: {worst} ulps; "
              f"most F evaluations: {most}")
        assert most <= 100

    def test_bands_hold_when_newton_misleads(self, monkeypatch):
        # a slope a million times too steep settles Newton at its first guess,
        # far from the root, and one of the wrong sign sends every step out of
        # the bracket: the walk and the bisections, not Newton, keep every
        # root a sign change on its flank
        slope = piecewise._log_slope
        for scale in (1e6, -1.0):
            monkeypatch.setattr(piecewise, "_log_slope",
                                lambda k, N, x, f, s=scale: s * slope(k, N, x, f))
            worst = max(_check_contract(k, N, 1.0, phi) for k, N, phi in _criterion_3_cases())
            print(f"slope x {scale}: largest root move from the reference: {worst} ulps")

    def test_two_root_calls_evaluate_F_only_inside_their_brackets(self):
        # the last bisection reads F at its ends from the evaluations that
        # made them, so it evaluates F only at midpoints strictly inside; the
        # certified brackets and their end checks took about 28 evaluations
        counts = []
        bisect = piecewise._bisect_to_adjacent
        for k, N, phi in _criterion_3_cases():
            inside = []

            def checking_bisect(f, lo, f_lo, hi, f_hi):
                def f_inside(x):
                    inside.append(lo < x < hi)
                    return f(x)
                return bisect(f_inside, lo, f_lo, hi, f_hi)

            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(piecewise, "_bisect_to_adjacent", checking_bisect)
                rep, xs = _solve_traced(k, N, 1.0, phi)
            if rep.count == 2:
                counts.append(len(xs))
                assert all(inside), (k, N, phi)
        print(f"F evaluations per two-root call: mean {sum(counts) / len(counts):.1f}, "
              f"max {max(counts)}")
        assert len(counts) == 151
        assert sum(counts) <= 20 * len(counts) and max(counts) <= 44

    def test_overflowing_bracket_message(self):
        for k in (1.0, 3.0):
            with pytest.raises(ConvergenceError) as new:
                solve_roots(k, 1, 1.0, 1e-310)
            with pytest.raises(ConvergenceError) as ref:
                _reference_solve_roots(k, 1, 1.0, 1e-310)
            assert str(new.value) == str(ref.value)

    def test_overflowing_bracket_raises_before_doubling(self, monkeypatch):
        # one F(x_top) >= alpha/r decides that no right root exists; the
        # doubling bracket took about 1,020 steps up to x_top to find it
        F, xs = piecewise._F_piecewise, []

        def counting_F(k, N, x):
            xs.append(x)
            return F(k, N, x)

        monkeypatch.setattr(piecewise, "_F_piecewise", counting_F)
        for k in (1.0, 3.0):
            xs.clear()
            with pytest.raises(ConvergenceError, match=r"^F stays above alpha/r=1e-310 "):
                solve_roots(k, 1, 1.0, 1e-310)
            assert len(xs) <= 24, (k, len(xs))

    def test_stationary_point_at_new_k_with_cached_N(self):
        for N in (1, 7, 20, 5000):
            stationary_point(1.3, N)  # the peak of this N is now cached
            for k in (0.21, 1.0, 4.7):
                assert stationary_point(k, N) == _reference_stationary_point(k, N)
                assert alpha_star(k, N, 2.0) == 2.0 * _reference_stationary_point(k, N)[2]


def _peak_50_digits(N):
    """(z*, F_max) at the working precision: p_N bisected in z = 1 - y and
    F summed as y (1 - y^N) / z - N y^{N+1}, without the closed form."""
    def p(z):
        return 1 - (1 - z) ** N * (1 + N * z + N * (N + 1) * z * z)

    lo, hi = mpmath.mpf(1) / (N + 2), mpmath.mpf(1)
    for _ in range(180):
        mid = (lo + hi) / 2
        lo, hi = (mid, hi) if p(mid) < 0 else (lo, mid)
    z = (lo + hi) / 2
    return z, (1 - z) * ((1 - (1 - z) ** N) / z - N * (1 - z) ** N)


class TestStationaryPoint:
    def test_unit_case_exact(self):
        y_star, x_star, f_max = stationary_point(1.0, 1)
        assert y_star == pytest.approx(0.5, abs=1e-12)
        assert x_star == pytest.approx(1.0, abs=1e-10)
        assert f_max == pytest.approx(0.25, abs=1e-12)

    def test_polynomial_root_at_half_for_n1(self):
        # p = z^2 (2z - 1) for N = 1, z = 1 - y: F rises for z > 1/2
        assert _stationary_form(1, 0.5) == 0.0
        assert _stationary_form(1, 0.8) > 0.0
        assert _stationary_form(1, 0.2) < 0.0
        assert _stationary_form(1, 1.0) == 1.0

    @pytest.mark.parametrize("N", [*range(1, 81), *(10**e for e in range(2, 10))])
    def test_peak_against_50_digit_reference(self, N):
        # the four-term p_N and the Horner F left x* 5.5e-3 and F_max 1.2e-5
        # low at N = 1e7, and 79% and 11% low at N = 1e9
        y_star, x_star, f_max = stationary_point(1.0, N)
        with mpmath.workdps(50):
            z, f_ref = _peak_50_digits(N)
            x_ref = (1 - z) / z
            assert abs(x_star - x_ref) <= 2e-15 * x_ref, N
            assert abs(f_max - f_ref) <= 2e-15 * f_ref, N
            assert abs(y_star - (1 - z)) <= 2e-16, N
        if N == 1:
            assert (y_star, x_star, f_max) == (0.5, 1.0, 0.25)

    def test_stationary_form_on_the_far_right_flank(self):
        # p_N ~ -N(N+1) z^2 / 2 far out: the four terms of size (N+1)^2 that
        # summed to it gave -3.41e-13 here
        k, N, x = 2.4916, 26, 1.84e7
        z = 1.0 / (k * x + 1.0)
        with mpmath.workdps(50):
            zm = mpmath.mpf(z)
            exact = 1 - (1 - zm) ** N * (1 + N * zm + N * (N + 1) * zm * zm)
        assert exact == pytest.approx(-1.670e-13, rel=1e-3)
        assert _stationary_form(N, z) == pytest.approx(float(exact), rel=1e-3)

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

    def test_unchecked_bisection_gives_identical_reports(self, monkeypatch):
        # over criterion 3's sweep, every x the root search evaluates passes
        # F_piecewise's checks, and the reports do not depend on them
        from quartzeq import piecewise

        cases = _criterion_3_cases()
        fast = [solve_roots(k, N, 1.0, phi) for k, N, phi in cases]
        unchecked = piecewise._F_piecewise

        def checked_F(k, N, x):
            piecewise._check_kN(k, N)
            if not (math.isfinite(x) and x >= 0.0):
                raise DomainError(f"x must be finite and >= 0, got {x}")
            return unchecked(k, N, x)

        monkeypatch.setattr(piecewise, "_F_piecewise", checked_F)
        checked = [solve_roots(k, N, 1.0, phi) for k, N, phi in cases]
        assert fast == checked
        assert sum(rep.count == 2 for rep in fast) == 151

    def test_n0_rejected(self):
        with pytest.raises(DomainError):
            solve_roots(1.0, 0, 1.0, 0.1)

    def test_overflowing_bracket_rejected(self):
        # F(x) ~ 1/(kx) stays above 1e-310 wherever kx is finite: the bracket
        # stops doubling before it overflows and names alpha/r, not an x
        for k in (1.0, 3.0):
            with pytest.raises(ConvergenceError,
                               match=r"^F stays above alpha/r=1e-310 at every finite x up to "):
                solve_roots(k, 1, 1.0, 1e-310)

    @pytest.mark.parametrize("N", [10**6, 10**9])
    def test_two_roots_just_below_a_large_N_peak(self, N):
        # alpha/r 1e-10 below the 50-digit peak: a peak read 1e-9 low at
        # N = 1e6 (11% at 1e9) reported no roots
        with mpmath.workdps(50):
            phi = float(_peak_50_digits(N)[1] * (1 - mpmath.mpf(1e-10)))
        rep = solve_roots(1.0, N, 1.0, phi)
        assert rep.classification == "two_roots", rep
        for x in rep.roots:
            g, g_next = (_F_piecewise(1.0, N, t) - phi for t in (x, math.nextafter(x, math.inf)))
            assert g == 0.0 or g * g_next < 0.0, (N, x)

    @pytest.mark.parametrize("N", [*range(1, 81), *(10**e for e in range(2, 10))])
    def test_roots_lie_in_the_band_of_the_exact_F(self, N):
        # the certificate: a computed sign change between adjacent floats on
        # a flank, where F is monotone and F_piecewise within _F_REL_ERR of
        # it, has the exact F within twice that of alpha/r
        for k in (1.0, 0.3):
            fm = stationary_point(k, N)[2]
            for mult in (1e-6, 0.5, 0.999, 1 - 1e-10):
                phi = mult * fm
                rep = solve_roots(k, N, 1.0, phi)
                assert rep.classification == "two_roots", (k, N, mult)
                with mpmath.workdps(50):
                    for x in rep.roots:
                        kx = mpmath.mpf(k) * mpmath.mpf(x)
                        y = kx / (kx + 1)
                        exact = kx * (1 - y ** (N + 1)) - (N + 1) * y ** (N + 1)
                        assert abs(exact - phi) <= 2 * _F_REL_ERR * phi, (k, N, mult, x)

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
            bv = evaluate(PiecewiseConstantFamily(k, N), "iqM", [x])[0]
            assert closed == pytest.approx(bv.value, abs=3 * bv.tail_bound + 1e-12 * (1 + abs(closed)))

    def test_h_closed_is_f_times_denominator(self):
        # H = F (x + d_0) with d_0 = 1/k: the H series against the closed-form F
        for k, N, x in ((1.0, 1, 1.0), (3.0, 4, 0.25)):
            bv = evaluate(PiecewiseConstantFamily(k, N), "H", [x])[0]
            assert bv.value == pytest.approx(F_piecewise(k, N, x) * (x + 1.0 / k), rel=1e-12)
