"""Large-index and large-x expansions: coefficient pins and remainder control.

Every pinned coefficient below has a closed form written next to it, so a
regression points straight at the kernel that drifted.
"""

import functools
import math

import mpmath
import pytest
from hypothesis import given, settings, strategies as st

from quartzeq.asymptotics import (
    AsymptoticExpansion,
    ExpansionTerm,
    K_direct,
    K_expansion_refined,
    R_expansion,
    R_sum_direct,
    cutoff_index,
    h10_closed_form,
    power_sum,
    relative_tail_beyond_cutoff,
    tail_envelope,
)
from quartzeq.coefficients import PowerLawFamily
from quartzeq.errors import ConvergenceError
from quartzeq.series import evaluate
from quartzeq.special import EULER_GAMMA


class TestPowerSum:
    def test_integer_exponents_exact(self):
        # closed forms: sum i = n(n+1)/2, sum i^2, sum i^3 = (n(n+1)/2)^2
        assert power_sum(1, 10) == 55
        assert power_sum(2, 10**6) == 10**6 * (10**6 + 1) * (2 * 10**6 + 1) // 6
        assert power_sum(3, 100) == (100 * 101 // 2) ** 2
        assert isinstance(power_sum(3, 100), int)

    def test_exponent_past_sixty_exact(self):
        # exact at a = 60 needs B_61 (zeta(-60)) and B_60
        for n in (1, 2, 5, 17):
            assert power_sum(60, n) == sum(i**60 for i in range(1, n + 1))

    def test_integer_matches_running_total(self):
        for a in (1, 2, 3, 4):
            acc = 0
            for n in range(1, 60):
                acc += n**a
                assert power_sum(a, n) == acc

    @pytest.mark.parametrize("a", [0.5, 1.5])
    def test_fractional_matches_direct(self, a):
        n = 2000
        direct = math.fsum(float(i) ** a for i in range(1, n + 1))
        assert power_sum(a, n) == pytest.approx(direct, rel=1e-12)

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
        # sum_i i exp(-v i^2) at v = 1e-3: the terms past i = 1000 sum to below e^-990
        direct = R_sum_direct(1.0, 1.0, 1e-3)
        with mpmath.workdps(30):
            v = mpmath.mpf(1e-3)
            ref = mpmath.fsum(i * mpmath.exp(-v * i * i) for i in range(1, 1001))
        assert abs(mpmath.mpf(direct.value) - ref) <= direct.tail_bound


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


# (a, b, depth) for test_error_below_remainder_order
_REMAINDER_CASES = [(1.0, -1.0, 4), (2.0, 0.0, 4), (0.7, -0.4, 4), (2.0, -1.9999999999999, 4),
                    (1.0, -0.999999999999999, 4), (15.0, 0.0, 4),
                    (1.5, 0.2, 0), (2.0, 0.0, 0), (3.0, 1.0, 0)]


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

    # (2, -1.9999999999999) and (1, -0.999999999999999) sit within 1e-13 of
    # a pole: the Gamma pole and the zeta pole of one monomial must merge
    # into a log term, not cancel in floats; (15, 0) needs B_61 for the
    # exact zeta(-4 a) of its K expansion.  At depth 0 the remainder is
    # (b+1)/(a+1), one order of x^(1/(a+1)) below the leading term: the
    # error at (1.5, 0.2), (2, 0) and (3, 1) grows like x^0.48, x^0.33, x^0.5
    @pytest.mark.parametrize("a,b,depth", _REMAINDER_CASES, ids=[
        f"{a}-{b}" + (f"-depth{depth}" if depth != 4 else "")
        for a, b, depth in _REMAINDER_CASES])
    def test_error_below_remainder_order(self, a, b, depth):
        exp = K_expansion_refined(a, b, depth)
        for x in (1e4, 1e5):
            direct = K_direct(a, b, x)
            assert abs(direct.value - exp.evaluate(x)) <= x**exp.remainder_power

    def test_residual_scales_like_remainder(self):
        exp = K_expansion_refined(1.0, -1.0, 4)
        for x in (1e3, 1e4, 1e5):
            direct = K_direct(1.0, -1.0, x)
            # measured constant is ~0.03; anything below 1 catches sign or
            # ordering regressions without pinning the next coefficient
            assert abs(direct.value - exp.evaluate(x)) * x < 1.0

    def test_leading_term_only(self):
        (lead,) = K_expansion_refined(1.0, -1.0, 0).terms
        assert lead.power == 0.5
        assert lead.coefficient == pytest.approx(math.sqrt(math.pi / 2.0), rel=1e-12)


def test_h10_closed_form_matches_series():
    fam = PowerLawFamily.from_ab(1.0, 0.0)
    xs = (1.0, 5.0, 10.0, 20.0)
    for x, direct in zip(xs, evaluate(fam, "H", xs)):
        assert h10_closed_form(x) == pytest.approx(direct.value, rel=1e-12)


@pytest.mark.parametrize("x", [0.01, 1.0, 5.0, 20.0, 100.0, 1e3, 1e4])
def test_h10_closed_form_against_mpmath(x):
    # the same closed form at 30 digits: x - P(x+2, x) Gamma(x+2) e^x / x^(x+1)
    with mpmath.workdps(30):
        xm = mpmath.mpf(x)
        p = mpmath.gammainc(xm + 2, 0, xm, regularized=True)
        ref = xm - p * mpmath.exp(xm + mpmath.loggamma(xm + 2) - (xm + 1) * mpmath.log(xm))
        assert abs((h10_closed_form(x) - ref) / ref) <= 1e-13


class TestCutoff:
    def test_index_formula(self):
        # ceil(x^{3/(3a+2)})
        assert cutoff_index(1.0, 100.0) == 16
        assert cutoff_index(2.0, 1e4) == 32
        assert cutoff_index(1.0, 1.0) == 1

    def test_tail_at_unit_point_pin(self):
        # K_{1,-1} beyond index 1 at x = 1: sum_{i>=2} 1/(i+1)! = e - 5/2
        t = K_direct(1.0, -1.0, 1.0, start=cutoff_index(1.0, 1.0))
        assert t.value == pytest.approx(math.e - 2.5, rel=1e-13)

    def test_relative_tail_decays(self):
        r10 = relative_tail_beyond_cutoff(1.0, -1.0, 10.0)
        r100 = relative_tail_beyond_cutoff(1.0, -1.0, 100.0)
        r1000 = relative_tail_beyond_cutoff(1.0, -1.0, 1000.0)
        assert r10 > r100 > r1000 > 0.0

    def test_envelope_bounds_holdout_points(self):
        for x in (1e4, 3e4):
            measured = relative_tail_beyond_cutoff(1.0, -1.0, x)
            assert measured <= tail_envelope(1.0, -1.0, x) < math.inf


class TestTailEnvelope:
    def test_bounds_the_measured_tail(self):
        drawn, skipped = [], []

        @settings(max_examples=300, deadline=None)
        @given(st.floats(0.1, 4.0), st.floats(0.0, 1.0, exclude_min=True),
               st.floats(0.0, 6.0))
        def check(a, frac, log_x):
            # b sweeps (-2, a]; x is log-uniform over [1, 1e6]
            b, x = -2.0 + frac * (a + 2.0), 10.0**log_x
            drawn.append((a, b, x))
            try:
                measured = relative_tail_beyond_cutoff(a, b, x)
            except ConvergenceError:  # K_direct at its term cap
                skipped.append((a, b, x))
                return
            bound = tail_envelope(a, b, x)
            assert math.isfinite(bound) and bound >= measured, (a, b, x, bound, measured)

        check()
        print(f"skipped {len(skipped)} of {len(drawn)} draws at K_direct's term cap")
        assert len(skipped) < len(drawn) // 10

    @pytest.mark.parametrize("a, x", [(0.2, 1e3), (0.45, 1e4)])
    def test_holds_where_a_fitted_envelope_failed(self, a, x):
        # a decay fitted over x in [10, 100] undershot these tails by 0.087x
        # and 0.62x: its exponent 1/(3a+1) is not the tail's
        measured = relative_tail_beyond_cutoff(a, -1.0, x)
        assert tail_envelope(a, -1.0, x) >= measured

    def test_is_not_vacuous_at_criterion_10s_points(self):
        margins = {(a, x): tail_envelope(a, -1.0, x) / relative_tail_beyond_cutoff(a, -1.0, x)
                   for a in (1.0, 2.0) for x in (1e3, 1e4)}
        print("bound/measured:", {key: round(m, 3) for key, m in margins.items()})
        assert all(1.0 <= m <= 2.0 for m in margins.values())

    @pytest.mark.parametrize("a, b, x", [(1.0, 2.0, 1.0), (4.0, 3.9, 1e6)])
    def test_finite_where_the_first_geometric_step_reaches_one(self, a, b, x):
        # i0 = 1 at (1, 2, 1), where the first step (3/2)^3 / 3 is above 1:
        # the terms up to the first step below 1 are summed one by one
        bound = tail_envelope(a, b, x)
        assert math.isfinite(bound) and bound >= relative_tail_beyond_cutoff(a, b, x)

    def test_no_claim_past_the_term_cap(self, monkeypatch):
        from quartzeq import asymptotics

        monkeypatch.setattr(asymptotics, "_ENVELOPE_TERMS", 1)
        assert tail_envelope(1.0, 2.0, 1.0) == math.inf
        assert math.isfinite(tail_envelope(1.0, -1.0, 1e3))


@functools.lru_cache(maxsize=None)
def _k_terms_30_digits(a, b, x):
    """The terms i^{b+1} prod_{j<=i} x/(x+j^a) of K at 30 digits, i = 1, 2, ...,
    until the geometric bound on the rest is below 1e-40 of their sum."""
    with mpmath.workdps(30):
        a, b, x = mpmath.mpf(a), mpmath.mpf(b), mpmath.mpf(x)
        q, terms, total = mpmath.mpf(1), [], 0
        while True:
            i = len(terms) + 1
            q *= x / (x + i**a)
            terms.append(i ** (b + 1) * q)
            total += terms[-1]
            # sup of the later term ratios
            s = ((i + 1) / mpmath.mpf(i)) ** max(b + 1, 0) * x / (x + (i + 1) ** a)
            if s < 1 and terms[-1] * s / (1 - s) < mpmath.mpf(10) ** -40 * total:
                return tuple(terms)


@pytest.mark.parametrize("start", [0, 1, 63, 64, 65, 500])
@pytest.mark.parametrize("a,b,x", [(0.5, 0.0, 1e3), (1.0, -1.0, 1e5),
                                   (1.5, -0.5, 1e5), (2.0, 1.0, 1e6)])
def test_k_tail_beyond_start_contains_30_digit_sum(a, b, x, start):
    # one walk from i = 1 with the weight zero through start; 63..65 put
    # start on either side of the first block boundary
    k = K_direct(a, b, x, start=start)
    with mpmath.workdps(30):
        ref = mpmath.fsum(_k_terms_30_digits(a, b, x)[start:])
        assert ref > 0
        assert abs(mpmath.mpf(k.value) - ref) <= k.tail_bound


def test_k_tail_beyond_start_is_relatively_tight():
    # a tail past start stops at tol relative to its first kept term, not at
    # the absolute tol, which one term of 3.2e-18 already met
    k = K_direct(2.0, 0.7, 1e3, start=63)
    assert k.tail_bound / k.value <= 1e-9
    with mpmath.workdps(30):
        ref = mpmath.fsum(_k_terms_30_digits(2.0, 0.7, 1e3)[63:])
        assert abs(mpmath.mpf(k.value) - ref) <= k.tail_bound


class TestExpansionContainer:
    def test_evaluate_with_log_term(self):
        exp = AsymptoticExpansion(
            "v->0",
            (ExpansionTerm(2.0, 1.0, 0), ExpansionTerm(-0.5, 1.0, 1)),
            remainder_power=2.0,
        )
        v = 1e-3
        assert exp.evaluate(v) == pytest.approx(2.0 * v - 0.5 * v * math.log(1.0 / v), rel=1e-14)
