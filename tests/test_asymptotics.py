"""Large-index and large-x expansions: coefficient pins and remainder control.

Every pinned coefficient below has a closed form written next to it, so a
regression points straight at the kernel that drifted.
"""

import math
from fractions import Fraction

import pytest

from quartzeq.accumulate import NeumaierSum
from quartzeq.asymptotics import (
    AsymptoticExpansion,
    ExpansionTerm,
    K_direct,
    K_expansion_refined,
    K_leading_asymptotics,
    R_expansion,
    R_sum_direct,
    cutoff_index,
    fit_tail_envelope,
    h10_closed_form,
    power_sum,
    relative_tail_beyond_cutoff,
    tail_beyond_cutoff,
    tail_cutoff_check,
)
from quartzeq.coefficients import PowerLawFamily
from quartzeq.errors import DomainError
from quartzeq.series import H_series
from quartzeq.special import EULER_GAMMA


class TestPowerSum:
    def test_integer_exponents_exact(self):
        # closed forms: sum i = n(n+1)/2, sum i^2, sum i^3 = (n(n+1)/2)^2
        assert power_sum(1, 10) == 55
        assert power_sum(2, 10**6) == 10**6 * (10**6 + 1) * (2 * 10**6 + 1) // 6
        assert power_sum(3, 100) == (100 * 101 // 2) ** 2
        assert isinstance(power_sum(3, 100), int)

    def test_integer_matches_running_total(self):
        for a in (1, 2, 3, 4):
            acc = 0
            for n in range(1, 60):
                acc += n**a
                assert power_sum(a, n) == acc

    @pytest.mark.parametrize("a", [0.5, 1.5])
    def test_fractional_matches_direct(self, a):
        n = 2000
        acc = NeumaierSum()
        for i in range(1, n + 1):
            acc.add(float(i) ** a)
        assert power_sum(a, n) == pytest.approx(acc.value, rel=1e-12)

    def test_depth_insensitive(self):
        assert power_sum(1.5, 500, depth=2) == pytest.approx(power_sum(1.5, 500, depth=6), rel=1e-9)


class TestRExpansion:
    def test_leading_coefficients_pin(self):
        # (a, A) = (1, 1): Gamma(1)/2 * v^-1, then (-1)^k zeta(-1-2k)/k! * v^k
        exp = R_expansion(1.0, 1.0, 2)
        coeffs = [(t.coefficient, t.power, t.log_power) for t in exp.terms]
        assert coeffs[0] == (0.5, -1.0, 0)
        assert coeffs[1][0] == pytest.approx(-1.0 / 12.0, rel=1e-15)  # zeta(-1)
        assert coeffs[2][0] == pytest.approx(-1.0 / 120.0, rel=1e-15)  # -zeta(-3)
        assert exp.remainder_power == pytest.approx(2.5)

    def test_pole_term_carries_log(self):
        # (a, A) = (1, -3): the k = 1 residue collides with the Gamma pole;
        # coefficient of v*log(1/v) is (-1)^1 / ((a+1) * 1!) = -1/2 and the
        # companion constant is -1/2 * (H_1 + a*gamma)
        exp = R_expansion(1.0, -3.0, 1)
        log_terms = [t for t in exp.terms if t.log_power == 1]
        assert len(log_terms) == 1
        assert log_terms[0].coefficient == pytest.approx(-0.5, rel=1e-15)
        assert log_terms[0].power == 1.0
        companion = [t for t in exp.terms if t.log_power == 0 and t.power == 1.0]
        assert companion[0].coefficient == pytest.approx(-0.5 * (1.0 + EULER_GAMMA), rel=1e-13)

    def test_evaluate_approaches_direct_sum(self):
        exp = R_expansion(1.0, 1.0, 3)
        for v in (1e-2, 1e-3):
            direct = R_sum_direct(1.0, 1.0, v)
            assert abs(direct.value - exp.evaluate(v)) <= 10.0 * v**3.5 + 1e-13 * abs(direct.value)

    def test_direct_sum_certificate(self):
        loose = R_sum_direct(1.0, 1.0, 1e-3, tol=1e-4)
        tight = R_sum_direct(1.0, 1.0, 1e-3, tol=1e-14)
        assert loose.value <= tight.value + 1e-12 * tight.value
        assert tight.value <= loose.value + loose.tail_bound + 1e-12 * tight.value


# K_expansion_refined(a, b, 4) before its bookkeeping moved to integer
# exponent keys and float coefficients at non-integer a:
# (a, b): (remainder_power, ((power, log_power, coefficient), ...)).
# At b = a - 1 the sum is exactly x, and the later coefficients are rounding
# residues of that cancellation.
_REFINED_PINS = {
    (1.0, -1.0): (-1.0, ((0.5, 0, 1.2533141373155003), (0.0, 0, -0.6666666666666667),
                         (-0.5, 0, 0.10444284477629151))),
    (2.0, 0.0): (-0.33333333333333337, ((0.666666666667, 0, 0.9388929401017445),
                                        (0.333333333333, 0, -0.12878993168540687),
                                        (0.0, 0, -0.07214285714285716))),
    (3.0, 1.0): (0.0, ((0.75, 0, 0.8665004600923852), (0.5, 0, -0.12660384649325107),
                       (0.25, 0, 0.013080068122657551))),
    (1.5, 0.5): (-0.19999999999999996, ((1.0, 0, 1.0), (0.6, 0, 1.1102230246251565e-16),
                                        (0.2, 0, 4.996003610813204e-16))),
    (2.3, 1.3): (0.09090909090909083, ((1.0, 0, 1.0),
                                       (0.69696969697, 0, 2.220446049250313e-16),
                                       (0.393939393939, 0, -3.6637359812630166e-15))),
    # the earlier code raised DomainError here: one monomial has theta = 0 up
    # to rounding, which the exact test missed, so zeta(1) was evaluated;
    # these values track K_direct for x in [1e3, 1e5] (TestKExpansion)
    (0.7, -0.4): (-0.8235294117647058, ((0.941176470588, 0, 1.005687404354432),
                                        (0.352941176471, 0, -0.022382144088518574),
                                        (0.0, 0, -0.17459571193801338),
                                        (-0.058823529412, 0, 0.14706890176690993),
                                        (-0.235294117647, 0, 0.0014355745594001948),
                                        (-0.647058823529, 0, -0.0032731018963095826))),
}


@pytest.mark.parametrize("ab", list(_REFINED_PINS))
def test_refined_expansion_pins(ab):
    remainder, pinned = _REFINED_PINS[ab]
    exp = K_expansion_refined(*ab, 4)
    assert exp.remainder_power == pytest.approx(remainder, rel=1e-13)
    lead = max(abs(c) for _, _, c in pinned)
    got = {(t.power, t.log_power): t.coefficient for t in exp.terms}
    want = {(p, lp): c for p, lp, c in pinned}
    for key in got.keys() | want.keys():
        c_got, c_want = got.get(key, 0.0), want.get(key, 0.0)
        if abs(c_want) > 1e-13 * lead:
            assert key in got
            assert c_got == pytest.approx(c_want, rel=1e-13)
        else:  # a rounding residue: tiny, and may vanish
            assert abs(c_got) <= 1e-13 * lead


class TestKExpansion:
    def test_three_term_pin(self):
        # K_{1,-1}(x) = sqrt(pi/2) x^{1/2} - 2/3 + sqrt(2 pi)/24 x^{-1/2} + O(1/x)
        exp = K_expansion_refined(1.0, -1.0, 4)
        by_power = {t.power: t.coefficient for t in exp.terms}
        assert by_power[0.5] == pytest.approx(math.sqrt(math.pi / 2.0), rel=1e-12)
        assert by_power[0.0] == pytest.approx(-2.0 / 3.0, rel=1e-12)
        assert by_power[-0.5] == pytest.approx(math.sqrt(2.0 * math.pi) / 24.0, rel=1e-10)
        assert exp.remainder_power == -1.0

    def test_resonant_monomial_tracks_direct_sum(self):
        # (0.7, -0.4): one monomial is a Gamma pole up to rounding
        exp = K_expansion_refined(0.7, -0.4, 4)
        for x in (1e3, 1e4, 1e5):
            direct = K_direct(0.7, -0.4, x)
            assert abs(direct.value - exp.evaluate(x)) <= 0.01 * x**exp.remainder_power

    def test_residual_scales_like_remainder(self):
        exp = K_expansion_refined(1.0, -1.0, 4)
        for x in (1e3, 1e4, 1e5):
            direct = K_direct(1.0, -1.0, x)
            # measured constant is ~0.03; anything below 1 catches sign or
            # ordering regressions without pinning the next coefficient
            assert abs(direct.value - exp.evaluate(x)) * x < 1.0

    def test_leading_term_only(self):
        exp = K_leading_asymptotics(1.0, -1.0)
        assert exp.leading.power == 0.5
        assert exp.leading.coefficient == pytest.approx(math.sqrt(math.pi / 2.0), rel=1e-12)

    def test_log_case_needs_opt_in(self):
        # (b+2)/(a+1) hitting a nonpositive integer brings a log term
        with pytest.raises(DomainError):
            K_leading_asymptotics(1.0, -2.0)
        exp = K_leading_asymptotics(1.0, -2.0, allow_log=True)
        assert any(t.log_power == 1 for t in exp.terms)


def test_h10_closed_form_matches_series():
    fam = PowerLawFamily.from_ab(1.0, 0.0)
    for x in (1.0, 5.0, 10.0, 20.0):
        direct = H_series(fam, x)
        assert h10_closed_form(x) == pytest.approx(direct.value, rel=1e-12)


class TestCutoff:
    def test_index_formula(self):
        # ceil(x^{3/(3a+2)})
        assert cutoff_index(1.0, 100.0) == 16
        assert cutoff_index(2.0, 1e4) == 32
        assert cutoff_index(1.0, 1.0) == 1

    def test_tail_at_unit_point_pin(self):
        # K_{1,-1} beyond index 1 at x = 1: sum_{i>=2} 1/(i+1)! = e - 5/2
        t = tail_beyond_cutoff(1.0, -1.0, 1.0)
        assert t.value == pytest.approx(math.e - 2.5, rel=1e-13)

    def test_relative_tail_decays(self):
        r10 = relative_tail_beyond_cutoff(1.0, -1.0, 10.0)
        r100 = relative_tail_beyond_cutoff(1.0, -1.0, 100.0)
        r1000 = relative_tail_beyond_cutoff(1.0, -1.0, 1000.0)
        assert r10 > r100 > r1000 > 0.0

    def test_envelope_bounds_holdout_points(self):
        import numpy as np

        # fit past x ~ 100: below that the sawtooth from the discrete cutoff
        # index hides the secular decay and the fitted rate clamps to 0
        env = fit_tail_envelope(1.0, -1.0, np.geomspace(100.0, 3000.0, 6))
        assert env.rate > 0.1
        for x in (1e4, 3e4):
            measured = relative_tail_beyond_cutoff(1.0, -1.0, x)
            assert env.bound(x) >= measured

    def test_cutoff_check_consistent(self):
        cutoff, bound = tail_cutoff_check(1.0, -1.0, 1e3)
        assert cutoff == cutoff_index(1.0, 1e3)
        t = tail_beyond_cutoff(1.0, -1.0, 1e3)
        assert bound >= t.value


class TestExpansionContainer:
    def test_evaluate_with_log_term(self):
        exp = AsymptoticExpansion(
            "v->0",
            (ExpansionTerm(2.0, 1.0, 0), ExpansionTerm(-0.5, 1.0, 1)),
            remainder_power=2.0,
        )
        v = 1e-3
        assert exp.evaluate(v) == pytest.approx(2.0 * v - 0.5 * v * math.log(1.0 / v), rel=1e-14)

    def test_leading_tracks_the_limit(self):
        # v -> 0: the most negative power dominates
        exp = R_expansion(1.0, 1.0, 1)
        assert exp.leading.power == -1.0
        assert exp.leading.coefficient == 0.5
        # x -> oo: the most positive power dominates
        assert K_expansion_refined(1.0, -1.0, 2).leading.power == 0.5
