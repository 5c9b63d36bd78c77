"""Coefficient family contracts: derived rates, tail infima, config round-trips."""

import json
import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from quartzeq.coefficients import (
    PiecewiseConstantFamily,
    PowerLawFamily,
    TabulatedFamily,
    family_from_config,
    load_family,
)
from quartzeq.errors import DomainError


class TestPiecewiseConstant:
    def test_rates_split_at_horizon(self):
        fam = PiecewiseConstantFamily(2.0, 3)
        k, p, q = fam.rates_through(9)
        d = [fam.d0] + fam.d_values(np.arange(1, 10)).tolist()
        for i in range(10):
            assert k[i] == 2.0
            assert p[i] == (1.0 if i <= 3 else 0.0)
            assert q[i] == (0.0 if i <= 3 else 1.0)
            # p + q = 1 everywhere, so d_i = 1/k for every i
            assert d[i] == 0.5

    def test_z_is_reciprocal_uptake(self):
        fam = PiecewiseConstantFamily(4.0, 1)
        assert min(fam.d0, fam.d_inf_beyond(0)) == 0.25

    @given(st.floats(0.1, 10.0), st.integers(0, 12))
    def test_weights_beyond_horizon(self, k, N):
        fam = PiecewiseConstantFamily(k, N)
        _, rho, g = fam.ratios(np.arange(1, N + 2))
        rho = [fam.p0 / fam.k0] + rho.tolist()
        g = [fam.q0 / fam.k0] + g.tolist()
        assert rho[N] == pytest.approx(1.0 / k)
        assert rho[N + 1] == 0.0
        assert g[N] == 0.0
        assert g[N + 1] == pytest.approx(1.0 / k)

    def test_invalid_k(self):
        with pytest.raises(DomainError):
            PiecewiseConstantFamily(0.0, 1)
        with pytest.raises(DomainError):
            PiecewiseConstantFamily(-1.0, 1)
        with pytest.raises(DomainError):
            PiecewiseConstantFamily(1.0, -1)

    def test_N_of_true_is_rejected(self):
        # True is an int to isinstance, and F_piecewise rejects it too
        with pytest.raises(DomainError, match="N must be an integer, got True"):
            PiecewiseConstantFamily(1.0, True)
        with pytest.raises(DomainError, match="N must be an integer, got True"):
            family_from_config({"kind": "piecewise_constant", "k": 1.0, "N": True})

    def test_hooks_equal_the_closed_forms(self):
        """The table's suffix extrema give, bit for bit, the closed forms the
        piecewise family once wrote itself, at every n >= 1 a walk asks."""
        for N in range(51):
            k = 0.37 + 0.1 * N
            fam = PiecewiseConstantFamily(k, N)
            for n in range(1, 2001):
                closed = (1.0 / k, 1.0, math.inf if n <= N else (n + 1.0) / n,
                          0.0 if n >= N else (n + 1.0) / n)
                assert (fam.d_inf_beyond(n), fam.m_ratio_sup(n), fam.iq_ratio_sup(n),
                        fam.irho_ratio_sup(n)) == closed


class TestPowerLaw:
    def test_from_ab_splits_exponents(self):
        fam = PowerLawFamily.from_ab(2.0, 0.0)
        assert fam.p_exp == 0.0 and fam.q_exp == 2.0 and fam.k_exp == 0.0
        assert fam.a == 2.0 and fam.b == 0.0

        fam = PowerLawFamily.from_ab(1.0, 1.0)
        # positive b goes entirely into the uptake exponent
        assert fam.k_exp == 1.0 and fam.p_exp == 0.0 and fam.q_exp == 0.0

        fam = PowerLawFamily.from_ab(0.5, -0.9)
        assert fam.p_exp == pytest.approx(0.9)
        assert fam.a == pytest.approx(0.5) and fam.b == pytest.approx(-0.9)

    def test_from_ab_rejects_b_above_a(self):
        with pytest.raises(DomainError):
            PowerLawFamily.from_ab(1.0, 1.5)

    def test_negative_exponent_rejected(self):
        with pytest.raises(DomainError):
            PowerLawFamily(p_exp=-0.5, q_exp=0.0, k_exp=0.0)

    def test_d_values_match_scalar(self):
        fam = PowerLawFamily.from_ab(2.0, 0.0)
        k, p, q = fam.rates_through(7)
        vec = [fam.d0] + fam.d_values(np.arange(1, 8)).tolist()
        assert vec == ((p + q) / k).tolist()
        # q_exp = 2, others 0: d_i = (1 + i^2) / 1
        assert vec == [1.0, 2.0, 5.0, 10.0, 17.0, 26.0, 37.0, 50.0]

    def test_tail_infimum_is_next_index(self):
        # d_i increasing, so the infimum beyond n sits at i = n + 1, rounded
        # down by 4 eps to cover the pow rounding
        fam = PowerLawFamily.from_ab(2.0, 0.0)
        d = fam.d_values(np.arange(1, 6))
        for n in range(5):
            assert fam.d_inf_beyond(n) == d[n] * (1.0 - 2.0**-50) < d[n]


class TestTabulated:
    def test_constant_extension(self):
        fam = TabulatedFamily(k=(2.0, 1.0), p=(1.0, 0.5), q=(0.0, 0.1))
        idx = np.array([1, 7])
        assert fam.k0 == 2.0
        assert fam.rates(idx)[0].tolist() == [1.0, 1.0]
        d1, d7 = fam.d_values(idx)
        assert d7 == d1 == pytest.approx(0.6)

    def test_non_monotone_table_warns(self):
        with pytest.warns(UserWarning, match="non-increasing"):
            TabulatedFamily(k=(1.0, 2.0), p=(1.0, 1.0), q=(0.0, 0.0))

    def test_monotone_table_is_silent(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            TabulatedFamily(k=(2.0, 1.0), p=(1.0, 1.0), q=(0.1, 0.1))


@pytest.mark.parametrize(
    "fam",
    [
        PiecewiseConstantFamily(1.5, 2),
        PowerLawFamily.from_ab(2.0, 0.0),
        TabulatedFamily(k=(2.0, 1.0), p=(1.0, 0.5), q=(0.0, 0.1)),
    ],
    ids=["piecewise", "power_law", "tabulated"],
)
def test_describe_round_trips(fam):
    doc = fam.describe()
    clone = family_from_config(json.loads(json.dumps(doc)))
    assert clone.describe() == doc
    idx = np.arange(1, 6)
    assert clone.d0 == fam.d0
    assert clone.d_values(idx).tolist() == fam.d_values(idx).tolist()
    assert clone.rates_through(5)[0].tolist() == fam.rates_through(5)[0].tolist()


@pytest.mark.parametrize(
    "fam",
    [
        PiecewiseConstantFamily(1.5, 2),
        PowerLawFamily.from_ab(2.0, 0.0),
        TabulatedFamily(k=(2.0, 1.0, 0.8), p=(1.0, 0.5, 0.3), q=(0.0, 0.1, 0.4)),
        PowerLawFamily(p_exp=0.3, q_exp=1.1, k_exp=0.4, k0=2.0, p0=0.5, q0=0.25),
    ],
    ids=["piecewise", "power_law", "tabulated", "power_law_index0"],
)
def test_rate_accessors_agree(fam):
    """rates, the exact-form ratios and the cohort-0 attributes tell one story."""
    n = 300
    k, p, q = fam.rates_through(n)
    assert (k[0], p[0], q[0]) == (fam.k0, fam.p0, fam.q0)
    assert fam.d0 == (fam.p0 + fam.q0) / fam.k0
    idx = np.arange(1, n + 1)
    k, p, q = k[1:], p[1:], q[1:]
    for part, whole in zip(fam.rates(idx), (k, p, q)):
        assert part.tolist() == whole.tolist()
    d, rho, g = fam.ratios(idx)
    assert fam.d_values(idx).tolist() == d.tolist()
    assert np.all(np.abs(d - (rho + g)) <= 2.0 * np.spacing(d))
    # The exact forms raise i to a = q_exp + k_exp and b = k_exp - p_exp,
    # exponents rounded once more than the rates' own, which moves i^a by
    # up to |a| ln(i) half-ulps; the quotients add a few roundings.
    spread = 4.0 + (abs(getattr(fam, "a", 0.0)) + abs(getattr(fam, "b", 0.0))) * np.log(idx)
    for exact, ratio in ((d, (p + q) / k), (rho, p / k), (g, q / k)):
        assert np.all(np.abs(exact - ratio) <= spread * np.spacing(exact))


def test_load_family_reads_json(tmp_path):
    path = tmp_path / "fam.json"
    path.write_text(json.dumps({"kind": "piecewise_constant", "k": 2.0, "N": 3}))
    fam = load_family(str(path))
    assert isinstance(fam, PiecewiseConstantFamily)
    assert fam.k_value == 2.0 and fam.N == 3


def test_family_from_config_unknown_kind():
    with pytest.raises(DomainError):
        family_from_config({"kind": "mystery"})


def test_ratio_bound_strictly_below_one():
    # the series' step ratio x / (x + inf_{i>n} d_i), at n = 0
    fam = PowerLawFamily.from_ab(1.0, 0.0)
    d = fam.d_inf_beyond(0)
    ratios = [x / (x + d) for x in (0.0, 1e-6, 1.0, 1e8)]
    assert all(0.0 <= rb < 1.0 for rb in ratios)
    assert ratios[0] == 0.0


_tables = st.integers(1, 30).flatmap(lambda n: st.tuples(
    st.lists(st.floats(0.1, 10.0), min_size=n, max_size=n),
    st.lists(st.floats(0.01, 5.0), min_size=n, max_size=n),
    st.lists(st.floats(0.0, 5.0), min_size=n, max_size=n),
))

_any_family = st.one_of(
    st.builds(PiecewiseConstantFamily, st.floats(0.01, 100.0), st.integers(0, 50)),
    st.tuples(st.floats(0.0, 3.0), st.floats(0.0, 5.0))
    .map(lambda a_gap: PowerLawFamily.from_ab(a_gap[0], a_gap[0] - a_gap[1])),
    # non-increasing k and p, so the table raises no monotonicity warning
    _tables.map(lambda kpq: TabulatedFamily(sorted(kpq[0], reverse=True),
                                            sorted(kpq[1], reverse=True), kpq[2])),
)


@given(_any_family, st.integers(0, 2000))
# tiny a puts the interior minimum t* of t^a + t^b past the float range
@example(PowerLawFamily.from_ab(5e-324, -2.2e-313), 844)
@example(PowerLawFamily.from_ab(3e-149, -0.25), 0)
# numpy's AVX-512 pow rounds these d_i an ulp below Python's pow
@example(PowerLawFamily.from_ab(2.69, 2.69), 1254)
@example(PowerLawFamily.from_ab(1.79, 1.02), 297)
@example(PowerLawFamily.from_ab(1.79, 1.02), 298)
def test_tail_infimum_below_the_next_512_d(fam, n):
    """d_inf_beyond(n) is a lower bound on every d_i with i > n.

    The power-law infimum raises i to a and b with Python's pow, d_values
    with numpy's, so it is rounded down by more than the two round apart.
    """
    probed = float(np.min(fam.d_values(np.arange(n + 1, n + 513))))
    assert fam.d_inf_beyond(n) <= probed


@given(_any_family, st.integers(1, 2000))
def test_ratio_sups_cover_weight_growth(fam, n):
    """The m, iq and irho ratio sups dominate every step at i >= n."""
    idx = np.arange(n, n + 32)
    k = fam.rates(idx)[0]
    assert np.all(k[:-1] / k[1:] <= fam.m_ratio_sup(n) * (1 + 1e-12))
    _, rho, g = fam.ratios(idx)
    for v, sup in ((g, fam.iq_ratio_sup(n)), (rho, fam.irho_ratio_sup(n))):
        w = idx * v
        if np.any((w[:-1] == 0.0) & (w[1:] > 0.0)):
            assert sup == math.inf
        steps = w[1:][w[:-1] > 0.0] / w[:-1][w[:-1] > 0.0]
        assert np.all(steps <= sup * (1 + 1e-12))
