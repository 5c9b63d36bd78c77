"""Certified equilibrium series: closed-form pins, tail soundness, identity audits.

The load-bearing contract here is enclosure: for a nonnegative-term
series the reported value exceeds the true sum by rounding at most, and
value + tail_bound never falls below it.  We cannot query the true
sum directly, so a much tighter re-summation stands in for it.
"""

import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from quartzeq.coefficients import (
    PiecewiseConstantFamily,
    PowerLawFamily,
    TabulatedFamily,
)
from quartzeq.errors import ConsistencyError, ConvergenceError, DomainError
from quartzeq.series import (
    F_equilibrium,
    GridSpec,
    H_series,
    audit_d_identity,
    audit_G_identity,
    cohort_profile,
    grid_evaluate,
    sum_iqM,
    sum_kM,
    tail_product,
)

# shared strategies: a family of each kind plus a positive evaluation point
families = st.one_of(
    st.builds(
        PiecewiseConstantFamily,
        st.floats(0.1, 10.0),
        st.integers(0, 8),
    ),
    st.builds(
        PowerLawFamily.from_ab,
        st.floats(0.2, 2.5),
        st.floats(-1.5, 0.0),
    ),
)
xs = st.floats(1e-3, 1e3).map(lambda u: float(u))


class TestClosedFormPins:
    def test_piecewise_profile_halves(self):
        # k = 1, N = 1, x = 1: every cohort step multiplies by exactly 1/2,
        # which is exact in binary floating point.
        fam = PiecewiseConstantFamily(1.0, 1)
        prof = cohort_profile(fam, 1.0, 1.0, 20)
        assert prof.M.tolist() == [0.5 ** (i + 1) for i in range(21)]
        # geometric remainder beyond n = 20 is 2^-21; the bound must cover it
        assert prof.tail_mass_bound >= 0.5**21
        assert prof.tail_mass_bound < 1e-5

    def test_mass_sum_is_rk(self):
        fam = PiecewiseConstantFamily(3.0, 2)
        for x in (0.01, 0.5, 1.0, 40.0):
            bv = sum_kM(fam, x, 1.7)
            assert bv.value == pytest.approx(1.7 * 3.0, rel=1e-13)
            assert abs(bv.value - 1.7 * 3.0) <= bv.tail_bound + 1e-12 * abs(bv.value)

    def test_power_law_mass_sum_at_one(self):
        # (a, b) = (1, 0): sum k_i M_i at x = 1 telescopes to e - 2
        fam = PowerLawFamily.from_ab(1.0, 0.0)
        bv = sum_kM(fam, 1.0)
        assert bv.value == pytest.approx(math.e - 2.0, rel=1e-14)

    def test_f_matches_piecewise_closed_form(self):
        from quartzeq.piecewise import F_piecewise

        fam = PiecewiseConstantFamily(2.0, 3)
        for x in np.geomspace(1e-2, 1e2, 9):
            bv = F_equilibrium(fam, float(x))
            assert bv.value == pytest.approx(F_piecewise(2.0, 3, float(x)), abs=3 * bv.tail_bound + 1e-13)


class TestOriginConventions:
    def test_f_at_zero(self):
        bv = F_equilibrium(PiecewiseConstantFamily(1.0, 1), 0.0)
        assert (bv.value, bv.tail_bound) == (0.0, 0.0)

    def test_mass_at_zero_is_first_cohort_only(self):
        # x = 0: only cohort 0 is populated, so sum k_i M_i = r / d_0
        fam = PiecewiseConstantFamily(2.0, 1)
        bv = sum_kM(fam, 0.0, 3.0)
        assert bv.value == 6.0
        assert bv.tail_bound == 0.0

    def test_weighted_death_at_zero_vanishes(self):
        bv = sum_iqM(PiecewiseConstantFamily(2.0, 1), 0.0, 3.0)
        assert bv.value == 0.0

    def test_negative_x_rejected(self):
        with pytest.raises(DomainError):
            sum_kM(PiecewiseConstantFamily(1.0, 1), -0.5)


@settings(max_examples=60, deadline=None)
@given(families, xs)
def test_tail_certificate_sound(fam, x):
    """A loose run's enclosure must contain a much tighter run's value."""
    loose = sum_kM(fam, x, tol=1e-5)
    tight = sum_kM(fam, x, tol=1e-14)
    slack = 1e-12 * abs(tight.value) + 1e-300
    assert loose.value <= tight.value + slack
    assert tight.value <= loose.value + loose.tail_bound + slack


@settings(max_examples=40, deadline=None)
@given(families, xs)
def test_triangle_f_times_denominator_is_h(fam, x):
    f = F_equilibrium(fam, x, cross_check=False)
    h = H_series(fam, x)
    budget = f.tail_bound * (x + fam.d(0)) + h.tail_bound + 1e-12 * (abs(h.value) + 1.0)
    assert abs(f.value * (x + fam.d(0)) - h.value) <= budget


def _encloses(bv, exact):
    # the rounding envelope inside tail_bound can fall on either side
    pad = 16.0 * np.finfo(float).eps * abs(bv.value) + bv.tail_bound
    return bv.value - pad <= exact <= bv.value + pad


def _piecewise_exact(k, N, x):
    """(H, sum k_i M_i, sum i q_i M_i) at r = 1 from the closed forms
    H = (x + 1/k) (sum_{j<=N} y^j - N y^{N+1}), k and y^{N+1} (kx + N + 1),
    y = kx/(kx+1), evaluated in exact rationals."""
    k, x = Fraction(k), Fraction(x)
    y = k * x / (k * x + 1)
    f = sum(y**j for j in range(1, N + 1)) - N * y ** (N + 1)
    return (float(f * (x + 1 / k)), float(k),
            float(y ** (N + 1) * (k * x + N + 1)))


def _power_law_exact(a, b, x):
    """(H, sum k_i M_i, sum i q_i M_i) at r = 1 for d_j = j^a + j^b, d_0 = 1,
    summed with 30 digits until the terms are negligible and shrinking."""
    with mpmath.workdps(30):
        a, b, x = mpmath.mpf(a), mpmath.mpf(b), mpmath.mpf(x)
        q, h, s1, siq, i = mpmath.mpf(1), 0, 0, 0, 0
        while True:
            i += 1
            q *= x / (x + i**a + i**b)
            h, s1, siq = h + i ** (b + 1) * q, s1 + q, siq + i ** (a + 1) * q
            shrinking = (i + 1) ** (a + 1) / i ** (a + 1) * x / (x + (i + 1) ** a) < 0.5
            if shrinking and i ** (a + 1) * q < mpmath.mpf(10) ** -40 * (1 + h + siq):
                return float(h), float((1 + s1) / (x + 1)), float(siq / (x + 1))


@settings(max_examples=30, deadline=None)
@given(st.floats(0.1, 10.0), st.integers(0, 8), st.floats(1e-2, 1e3))
def test_piecewise_intervals_contain_closed_forms(k, N, x):
    fam = PiecewiseConstantFamily(k, N)
    h, skm, siqm = _piecewise_exact(k, N, x)
    assert _encloses(H_series(fam, x), h)
    assert _encloses(sum_kM(fam, x), skm)
    assert _encloses(sum_iqM(fam, x), siqm)


@settings(max_examples=20, deadline=None)
@given(st.floats(0.5, 2.5), st.floats(0.0, 1.0), st.floats(1e-2, 1e2))
def test_power_law_intervals_contain_high_precision_sums(a, u, x):
    b = a - (a + 1.5) * u
    fam = PowerLawFamily.from_ab(a, b)
    h, skm, siqm = _power_law_exact(a, b, x)
    assert _encloses(H_series(fam, x), h)
    assert _encloses(sum_kM(fam, x), skm)
    assert _encloses(sum_iqM(fam, x), siqm)


@pytest.mark.parametrize("kx", [3e4, 1e5, 1e6])
@pytest.mark.parametrize("N", [0, 1, 5, 20])
def test_piecewise_f_checked_beyond_the_flux_series_reach(kx, N):
    # F is exact after N terms; sum k_i M_i would need millions of terms here
    fam = PiecewiseConstantFamily(1.0, N)
    bv = F_equilibrium(fam, kx)
    assert _encloses(bv, _piecewise_exact(1.0, N, kx)[0] / (kx + 1.0))


class _SkewedD(PowerLawFamily):
    """d_i off from rho_i + g_i by one part in 1e9."""

    def d_values(self, idx):
        return super().d_values(idx) * (1.0 + 1e-9)


@pytest.mark.parametrize("x", [1e-2, 1.0, 1e2, 1e4])
def test_balance_catches_d_off_rho_plus_g(x):
    fam = _SkewedD(p_exp=1.0, q_exp=1.0, k_exp=0.0)
    F_equilibrium(fam, x, cross_check=False)
    with pytest.raises(ConsistencyError):
        F_equilibrium(fam, x)


def test_cross_check_accepts_whole_grid():
    # the cohort balance must hold everywhere, not just at spot points
    fam = PowerLawFamily.from_ab(2.0, 0.0)
    for x in np.geomspace(1e-2, 1e4, 25):
        F_equilibrium(fam, float(x), cross_check=True)


@settings(max_examples=40, deadline=None)
@given(families, st.floats(1e-2, 1e2))
def test_identity_audits_vanish(fam, x):
    _, g_resid = audit_G_identity(fam, x, n_terms=150)
    _, d_resid = audit_d_identity(fam, x, n_terms=150)
    assert g_resid <= 1e-10
    assert d_resid <= 1e-10


def test_profile_tail_bound_covers_true_geometric_tail():
    fam = PiecewiseConstantFamily(1.0, 1)
    x = 3.0  # ratio 3/4, slow decay, non-trivial tail
    prof = cohort_profile(fam, x, 1.0, 12)
    ratio = x / (x + 1.0)
    true_tail = prof.M[-1] * ratio / (1.0 - ratio)
    assert prof.tail_mass_bound >= true_tail * (1 - 1e-12)


def test_tail_product_is_remaining_q_factor():
    fam = PiecewiseConstantFamily(1.0, 1)
    # prod_{j<=3} x/(x+d_j) at x = 1, d = 1: (1/2)^3
    assert tail_product(fam, 1.0, 3) == pytest.approx(0.125, rel=1e-15)


class TestTermination:
    def test_term_cap_raises_with_diagnostic(self):
        with pytest.raises(ConvergenceError) as err:
            sum_kM(PiecewiseConstantFamily(1.0, 1), 1e5, term_cap=10)
        detail = err.value.diagnostic()
        assert detail["series"] == "sum_kM"
        assert detail["terms_used"] == 10

    def test_underflow_terminates_early_and_exactly(self):
        # at x = 1e-3 the cohort weights fall below the subnormal floor fast;
        # the sum is complete to full precision with a tiny honest envelope
        bv = sum_kM(PiecewiseConstantFamily(1.0, 1), 1e-3)
        assert bv.terms_used < 200
        assert bv.value == pytest.approx(1.0, rel=1e-15)
        assert bv.tail_bound < 1e-14


class TestGrid:
    def test_rows_follow_spec(self):
        fam = PiecewiseConstantFamily(1.0, 1)
        rows = list(grid_evaluate(fam, "F", GridSpec(0.1, 10.0, 7, "log")))
        assert len(rows) == 7
        assert rows[0].x == pytest.approx(0.1)
        assert rows[-1].x == pytest.approx(10.0)
        assert all(rows[i].x < rows[i + 1].x for i in range(6))

    def test_linear_spacing(self):
        rows = list(grid_evaluate(PiecewiseConstantFamily(1.0, 1), "kM", GridSpec(0.0, 4.0, 5, "linear")))
        assert [r.x for r in rows] == [0.0, 1.0, 2.0, 3.0, 4.0]

    def test_unknown_quantity_rejected(self):
        with pytest.raises(DomainError):
            list(grid_evaluate(PiecewiseConstantFamily(1.0, 1), "G", GridSpec(0.1, 1.0, 3)))

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(x_min=1.0, x_max=0.5, count=3),
            dict(x_min=0.1, x_max=1.0, count=0),
            dict(x_min=0.0, x_max=1.0, count=3, spacing="log"),
            dict(x_min=0.1, x_max=1.0, count=3, spacing="cubic"),
        ],
    )
    def test_bad_grid_rejected(self, kwargs):
        with pytest.raises(DomainError):
            GridSpec(**kwargs)


def test_tabulated_family_summable():
    fam = TabulatedFamily(k=(2.0, 1.0, 1.0), p=(1.0, 0.5, 0.2), q=(0.0, 0.1, 0.3))
    bv = F_equilibrium(fam, 2.0)
    assert bv.value > 0.0
    assert bv.tail_bound <= 1e-12 * max(1.0, abs(bv.value)) * 10
