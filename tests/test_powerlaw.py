"""Regime classification and threshold estimation for power-law rate families."""

import math
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quartzeq.coefficients import PowerLawFamily
from quartzeq.errors import ConvergenceError, DomainError
from quartzeq.powerlaw import (
    AT_THRESHOLD,
    EXISTS,
    NOT_EXISTS,
    SUPREMUM_AT_INFINITY,
    MEstimate,
    Regime,
    classify_regime,
    count_equilibria_probe,
    estimate_m_with_error,
    existence_verdict,
)
from quartzeq.series import F_equilibrium

THRESHOLD_FAMILY = PowerLawFamily.from_ab(2.0, 0.0)


@pytest.mark.parametrize("a", [0.5, 1.0, 2.0])
@pytest.mark.parametrize(
    "offset,expected",
    [
        (0.4, Regime.ALWAYS_EXISTS),
        (0.0, Regime.THRESHOLD_STRICT),
        (-0.4, Regime.THRESHOLD_WEAK),
    ],
)
def test_regime_split_at_b_equals_a_minus_one(a, offset, expected):
    fam = PowerLawFamily.from_ab(a, a - 1.0 + offset)
    verdict = classify_regime(fam)
    assert verdict.regime is expected
    assert verdict.a == pytest.approx(a)
    assert verdict.b == pytest.approx(a - 1.0 + offset)


def test_classification_needs_summable_series():
    # b = -2 makes the equilibrium series non-summable
    fam = PowerLawFamily(p_exp=2.0, q_exp=0.0, k_exp=0.0)
    with pytest.raises(DomainError):
        classify_regime(fam)


class TestThresholdEstimate:
    def test_weak_case_pins(self):
        est, err, evals = estimate_m_with_error(THRESHOLD_FAMILY)
        assert isinstance(est, MEstimate)
        assert est.m == pytest.approx(0.3198813413702965, abs=1e-11)
        assert est.attained_at == pytest.approx(5.0831323274283, rel=1e-6)
        assert 0.0 <= err < 1e-10
        assert evals > 0

    def test_estimate_is_attained(self):
        est, err, _ = estimate_m_with_error(THRESHOLD_FAMILY)
        f_at = F_equilibrium(THRESHOLD_FAMILY, est.attained_at)
        assert f_at.value == pytest.approx(est.m, abs=max(err, 1e-12))

    def test_grid_doubling_stable(self):
        est200, err200, _ = estimate_m_with_error(THRESHOLD_FAMILY, 1e6, 200)
        est400, err400, _ = estimate_m_with_error(THRESHOLD_FAMILY, 1e6, 400)
        assert abs(est200.m - est400.m) <= err200 + err400 + 1e-12

    def test_strict_case_supremum_at_infinity(self, monkeypatch):
        # on b = a - 1, m = 1 exactly and is never attained: no F scan
        from quartzeq import powerlaw

        calls = []
        real = powerlaw.F_equilibrium

        def counted(*args, **kwargs):
            calls.append(args[1])
            return real(*args, **kwargs)

        monkeypatch.setattr(powerlaw, "F_equilibrium", counted)
        est, err, evals = estimate_m_with_error(PowerLawFamily.from_ab(2.0, 1.0))
        assert est.attained_at == SUPREMUM_AT_INFINITY
        assert est.m == 1.0
        assert err == 0.0
        assert evals == 0 and calls == []

    def test_weak_maximum_beyond_grid_raises(self):
        # the peak of (2, 0) sits near x = 5.08, past this grid's edge
        with pytest.raises(ConvergenceError, match="raise x_max"):
            estimate_m_with_error(THRESHOLD_FAMILY, x_max=2.0, grid=20)

    def test_strict_case_keeps_argument_checks(self):
        with pytest.raises(DomainError):
            estimate_m_with_error(PowerLawFamily.from_ab(2.0, 1.0), grid=4)


class TestExistence:
    def test_below_threshold_exists(self):
        assert existence_verdict(THRESHOLD_FAMILY, 0.2, 1.0) == EXISTS

    def test_above_threshold_does_not(self):
        assert existence_verdict(THRESHOLD_FAMILY, 0.35, 1.0) == NOT_EXISTS

    def test_inside_error_bar_is_threshold(self):
        est, _, _ = estimate_m_with_error(THRESHOLD_FAMILY)
        assert existence_verdict(THRESHOLD_FAMILY, est.m, 1.0) == AT_THRESHOLD

    def test_always_exists_skips_numerics(self):
        fam = PowerLawFamily.from_ab(1.0, 1.0)
        # huge inflow: unbounded F still crosses it
        assert existence_verdict(fam, 1e6, 1.0) == EXISTS

    def test_r_scales_the_question(self):
        # alpha/r is what matters, not alpha alone
        assert existence_verdict(THRESHOLD_FAMILY, 0.6, 3.0) == EXISTS
        assert existence_verdict(THRESHOLD_FAMILY, 0.6, 1.0) == NOT_EXISTS

    def test_nonpositive_inflow_rejected(self):
        with pytest.raises(DomainError):
            existence_verdict(THRESHOLD_FAMILY, 0.0, 1.0)

    @pytest.mark.parametrize(
        "fam,alpha",
        [
            (PowerLawFamily.from_ab(2.0, 1.0), 0.995),
            (PowerLawFamily.from_ab(1.0, 0.0), 0.9995),
            (PowerLawFamily.from_ab(0.5, -0.5), 0.99995),
            (PowerLawFamily(p_exp=0.3, q_exp=0.7, k_exp=0.4, k0=2.0, p0=0.5, q0=0.25), 0.9995),
        ],
    )
    def test_strict_threshold_is_one(self, fam, alpha):
        # alpha/r beyond F(1e6) but below the supremum 1 admits an equilibrium;
        # the supremum itself is never attained
        assert classify_regime(fam).regime is Regime.THRESHOLD_STRICT
        assert existence_verdict(fam, alpha, 1.0) == EXISTS
        assert existence_verdict(fam, 1.0, 1.0) == NOT_EXISTS
        assert existence_verdict(fam, 1.02, 1.0) == NOT_EXISTS

    def test_exact_weak_maximum_is_attained(self):
        # with a zero error bar the comparison decides: alpha/r = m is attained
        verdict = replace(classify_regime(THRESHOLD_FAMILY), m_estimate=0.3,
                          m_error_bar=0.0, m_attained_at=5.0)
        assert verdict.existence(0.3) == EXISTS
        assert verdict.existence(0.3000001) == NOT_EXISTS


_STRICT_FAMILIES = st.one_of(
    st.floats(0.5, 3.0).map(lambda a: PowerLawFamily.from_ab(a, a - 1.0)),
    st.builds(
        lambda q, k, k0, p0, q0: PowerLawFamily(p_exp=1.0 - q, q_exp=q, k_exp=k,
                                                k0=k0, p0=p0, q0=q0),
        st.floats(0.0, 1.0), st.floats(0.5, 2.0), st.floats(0.1, 10.0),
        st.floats(0.01, 10.0), st.floats(0.0, 10.0),
    ),
)


@settings(max_examples=60, deadline=None)
@given(fam=_STRICT_FAMILIES, log_x=st.floats(math.log(1e-2), math.log(1e6)))
def test_strict_families_stay_below_one(fam, log_x):
    # H = x - sum_i i^(a-1) Q_i < x on b = a - 1, so F < 1 at every x
    assert classify_regime(fam).regime is Regime.THRESHOLD_STRICT
    bv = F_equilibrium(fam, math.exp(log_x))
    assert bv.value + bv.tail_bound < 1.0
    assert existence_verdict(fam, bv.value, 1.0) == EXISTS


def test_count_probe_finds_both_crossings():
    count, roots = count_equilibria_probe(THRESHOLD_FAMILY, 0.2, 1.0)
    assert count == 2
    assert roots[0] < roots[1]
    for root in roots:
        bv = F_equilibrium(THRESHOLD_FAMILY, root)
        assert bv.value == pytest.approx(0.2, abs=1e-9)


@pytest.mark.parametrize(
    "alpha,r,message",
    [(-1.0, 1.0, "alpha must be positive, got -1.0"),
     (float("nan"), 1.0, "alpha must be positive, got nan"),
     (0.2, 0.0, "r must be positive, got 0.0")],
)
def test_bad_inflow_rejected_alike(alpha, r, message):
    for call in (existence_verdict, count_equilibria_probe):
        with pytest.raises(DomainError, match=f"^{message}$"):
            call(THRESHOLD_FAMILY, alpha, r)


def test_count_probe_empty_above_supremum():
    count, roots = count_equilibria_probe(THRESHOLD_FAMILY, 0.5, 1.0)
    assert count == 0 and roots == ()

