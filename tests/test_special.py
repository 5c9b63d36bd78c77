"""Special-function kernels against closed forms and mpmath."""

import math
from fractions import Fraction

import mpmath
import pytest

from quartzeq.errors import DomainError
from quartzeq.special import (
    EULER_GAMMA,
    bernoulli_fraction,
    gamma,
    harmonic,
    zeta,
)

mpmath.mp.dps = 30


class TestZeta:
    def test_classical_values(self):
        assert zeta(2.0) == pytest.approx(math.pi**2 / 6, rel=1e-14)
        assert zeta(4.0) == pytest.approx(math.pi**4 / 90, rel=1e-14)
        assert zeta(0.0) == pytest.approx(-0.5, rel=1e-14)
        assert zeta(3.0) == pytest.approx(1.2020569031595943, rel=1e-13)

    def test_trivial_zeros(self):
        for s in (-2.0, -4.0, -6.0, -8.0):
            assert abs(zeta(s)) < 1e-14

    def test_negative_odd_from_bernoulli(self):
        # zeta(-n) = -B_{n+1}/(n+1)
        assert zeta(-1.0) == pytest.approx(-1.0 / 12.0, rel=1e-13)
        assert zeta(-3.0) == pytest.approx(1.0 / 120.0, rel=1e-13)
        assert zeta(-9.0) == pytest.approx(-1.0 / 132.0, rel=1e-12)

    @pytest.mark.parametrize("s", [-3.5, -0.5, 0.25, 0.5, 1.5, 2.5, 4.7, 12.0])
    def test_against_mpmath(self, s):
        assert zeta(s) == pytest.approx(float(mpmath.zeta(s)), rel=1e-12)

    @pytest.mark.parametrize(
        "s", [1.0 + 10.0**-k for k in range(1, 16)] + [1.0 - 10.0**-k for k in range(1, 16)]
        + [10.0**-k for k in range(1, 16)] + [-(10.0**-k) for k in range(1, 16)])
    def test_near_pole_and_zero_against_mpmath(self, s):
        # 1 - 2^(1-s) cancels near s = 1, and the s < 0 branch reaches that
        # pole through 1 - s; both must keep full relative accuracy
        with mpmath.workdps(40):
            ref = float(mpmath.zeta(mpmath.mpf(s)))
        assert abs(zeta(s) - ref) <= 1e-13 * abs(ref)

    def test_pole_rejected(self):
        with pytest.raises(DomainError):
            zeta(1.0)


class TestGamma:
    def test_half_integers(self):
        assert gamma(0.5) == pytest.approx(math.sqrt(math.pi), rel=1e-15)
        assert gamma(-0.5) == pytest.approx(-2.0 * math.sqrt(math.pi), rel=1e-14)

    def test_positive_matches_math(self):
        for s in (0.1, 1.0, 2.5, 5.0, 20.0):
            assert gamma(s) == pytest.approx(math.gamma(s), rel=1e-15)


class TestBernoulli:
    def test_exact_fractions(self):
        assert bernoulli_fraction(0) == 1
        assert bernoulli_fraction(1) == Fraction(-1, 2)
        assert bernoulli_fraction(2) == Fraction(1, 6)
        assert bernoulli_fraction(4) == Fraction(-1, 30)
        assert bernoulli_fraction(12) == Fraction(-691, 2730)

    def test_odd_vanish(self):
        for n in range(3, 21, 2):
            assert bernoulli_fraction(n) == 0

    def test_table_range_guard(self):
        # the table extends on demand: only a negative index is outside it
        with pytest.raises(DomainError):
            bernoulli_fraction(-1)

    @pytest.mark.parametrize("n", [60, 61, 62, 80])
    def test_table_extends_past_sixty(self, n):
        assert bernoulli_fraction(n) == Fraction(*mpmath.bernfrac(n))


def test_harmonic_numbers():
    assert harmonic(0) == 0.0
    assert harmonic(1) == 1.0
    assert harmonic(4) == pytest.approx(25.0 / 12.0, rel=1e-15)


def test_euler_gamma_constant():
    assert EULER_GAMMA == pytest.approx(float(mpmath.euler), abs=1e-16)
