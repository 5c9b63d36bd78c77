"""Regime classification and threshold estimation for power-law rate families."""

import pytest

from quartzeq.coefficients import PowerLawFamily
from quartzeq.errors import DomainError
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

    def test_strict_case_supremum_at_infinity(self):
        est, err, _ = estimate_m_with_error(PowerLawFamily.from_ab(2.0, 1.0))
        assert est.attained_at == SUPREMUM_AT_INFINITY
        assert 0.0 < est.m < 2.0
        assert err > 0.0  # extrapolation to infinity cannot be exact


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


def test_count_probe_finds_both_crossings():
    count, roots = count_equilibria_probe(THRESHOLD_FAMILY, 0.2, 1.0)
    assert count == 2
    assert roots[0] < roots[1]
    for root in roots:
        bv = F_equilibrium(THRESHOLD_FAMILY, root)
        assert bv.value == pytest.approx(0.2, abs=1e-9)


def test_count_probe_empty_above_supremum():
    count, roots = count_equilibria_probe(THRESHOLD_FAMILY, 0.5, 1.0)
    assert count == 0 and roots == ()

