"""Certified equilibrium series: closed-form pins, tail soundness, identity audits.

The load-bearing contract here is enclosure: for a nonnegative-term
series the reported value exceeds the true sum by rounding at most, and
value + tail_bound never falls below it.  We cannot query the true
sum directly, so a much tighter re-summation stands in for it.
"""

import functools
import math
import sys
import tracemalloc
import warnings
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
from quartzeq import series
from quartzeq.dynamics import equilibrium_residual
from quartzeq.errors import ConsistencyError, ConvergenceError, DomainError, _check_r, _check_x
from quartzeq.series import (
    F_equilibrium,
    cohort_profile,
    evaluate,
    identity_audit,
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


def _one(fam, quantity, x, r=1.0, **kwargs):
    """The one-x value of a quantity: the row of a one-x evaluate walk."""
    return evaluate(fam, quantity, [x], r, **kwargs)[0]


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
            bv = _one(fam, "kM", x, 1.7)
            assert bv.value == pytest.approx(1.7 * 3.0, rel=1e-13)
            assert abs(bv.value - 1.7 * 3.0) <= bv.tail_bound + 1e-12 * abs(bv.value)

    def test_power_law_mass_sum_at_one(self):
        # (a, b) = (1, 0): sum k_i M_i at x = 1 telescopes to e - 2
        fam = PowerLawFamily.from_ab(1.0, 0.0)
        bv = _one(fam, "kM", 1.0)
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
        bv = _one(fam, "kM", 0.0, 3.0)
        assert bv.value == 6.0
        assert bv.tail_bound == 0.0

    def test_weighted_death_at_zero_vanishes(self):
        bv = _one(PiecewiseConstantFamily(2.0, 1), "iqM", 0.0, 3.0)
        assert bv.value == 0.0

    def test_negative_x_rejected(self):
        with pytest.raises(DomainError):
            _one(PiecewiseConstantFamily(1.0, 1), "kM", -0.5)


@settings(max_examples=60, deadline=None)
@given(families, xs)
def test_tail_certificate_sound(fam, x):
    """A loose run's enclosure must contain a much tighter run's value."""
    loose = _one(fam, "kM", x, tol=1e-5)
    tight = _one(fam, "kM", x, tol=1e-14)
    slack = 1e-12 * abs(tight.value) + 1e-300
    assert loose.value <= tight.value + slack
    assert tight.value <= loose.value + loose.tail_bound + slack


@settings(max_examples=40, deadline=None)
@given(families, xs)
def test_triangle_f_times_denominator_is_h(fam, x):
    f = F_equilibrium(fam, x, cross_check=False)
    h = _one(fam, "H", x)
    budget = f.tail_bound * (x + fam.d0) + h.tail_bound + 1e-12 * (abs(h.value) + 1.0)
    assert abs(f.value * (x + fam.d0) - h.value) <= budget


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
    assert _encloses(_one(fam, "H", x), h)
    assert _encloses(_one(fam, "kM", x), skm)
    assert _encloses(_one(fam, "iqM", x), siqm)


@settings(max_examples=20, deadline=None)
@given(st.floats(0.5, 2.5), st.floats(0.0, 1.0), st.floats(1e-2, 1e2))
def test_power_law_intervals_contain_high_precision_sums(a, u, x):
    b = a - (a + 1.5) * u
    fam = PowerLawFamily.from_ab(a, b)
    h, skm, siqm = _power_law_exact(a, b, x)
    assert _encloses(_one(fam, "H", x), h)
    assert _encloses(_one(fam, "kM", x), skm)
    assert _encloses(_one(fam, "iqM", x), siqm)


def _table_exact(k, p, q, x):
    """(F, sum k_i M_i, sum i q_i M_i) at r = 1 of a table with 30 digits:
    the stored rows summed, then past the table, where d is constant and
    Q_i geometric with ratio c = x/(x + d_{L-1}), the tails in closed form."""
    with mpmath.workdps(30):
        k, p, q = ([mpmath.mpf(v) for v in col] for col in (k, p, q))
        x = mpmath.mpf(x)
        d = [(pi + qi) / ki for ki, pi, qi in zip(k, p, q)]
        top = len(k) - 1
        qn, h, s1, siq = mpmath.mpf(1), 0, 0, 0
        for i in range(1, top + 1):
            qn *= x / (x + d[i])
            h, s1, siq = h + i * p[i] / k[i] * qn, s1 + qn, siq + i * q[i] / k[i] * qn
        c = x / (x + d[top])
        tail_q = qn * c / (1 - c)  # sum of Q_i over i > top
        tail_iq = qn * (top * c / (1 - c) + c / (1 - c) ** 2)  # sum of i Q_i there
        h += p[top] / k[top] * tail_iq
        s1 += tail_q
        siq += q[top] / k[top] * tail_iq
        return float(h / (x + d[0])), float((1 + s1) / (x + d[0])), float(siq / (x + d[0]))


def _shaped(values, shape):
    """values rising, or alternating between the smaller and larger half."""
    ordered = sorted(values)
    if shape == "rising":
        return ordered
    return [ordered[j // 2] if j % 2 == 0 else ordered[-1 - j // 2] for j in range(len(values))]


_rates = st.one_of(st.just(0.0), st.floats(0.05, 3.0))


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 8).flatmap(lambda n: st.tuples(*(
           st.builds(_shaped, st.lists(rates, min_size=n, max_size=n),
                     st.sampled_from(["rising", "oscillating"]))
           for rates in (st.floats(0.1, 3.0), _rates, _rates)))),
       st.floats(1e-2, 1e2))
def test_unordered_table_intervals_contain_high_precision_sums(kpq, x):
    """Tables need no order: with k, p and q rising or oscillating, every
    interval contains the 30-digit sum, and building the table is silent."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        fam = _table(*kpq)
    table = fam.describe()
    f, skm, siqm = _table_exact(table["k"], table["p"], table["q"], x)
    assert _encloses(F_equilibrium(fam, x), f)
    assert _encloses(_one(fam, "kM", x), skm)
    assert _encloses(_one(fam, "iqM", x), siqm)


@pytest.mark.parametrize("kx", [3e4, 1e5, 1e6])
@pytest.mark.parametrize("N", [0, 1, 5, 20])
def test_piecewise_f_checked_beyond_the_flux_series_reach(kx, N):
    # F is exact after N terms; sum k_i M_i would need millions of terms here
    fam = PiecewiseConstantFamily(1.0, N)
    bv = F_equilibrium(fam, kx)
    assert _encloses(bv, _piecewise_exact(1.0, N, kx)[0] / (kx + 1.0))


class _SkewedD(PowerLawFamily):
    """d_i off from rho_i + g_i by one part in 1e9."""

    def ratios(self, idx):
        drg = super().ratios(idx)
        drg[0] *= 1.0 + 1e-9
        return drg


@pytest.mark.parametrize("x", [1e-2, 1.0, 1e2, 1e4])
def test_balance_catches_d_off_rho_plus_g(x):
    fam = _SkewedD(p_exp=1.0, q_exp=1.0, k_exp=0.0)
    F_equilibrium(fam, x, cross_check=False)
    with pytest.raises(ConsistencyError) as one:
        F_equilibrium(fam, x)
    # many x: the rows are checked in order, so the first x's error is raised
    with pytest.raises(ConsistencyError) as many:
        evaluate(fam, "F", [0.0, x, 1e4, 1e-2, x])
    assert str(many.value) == str(one.value)


def _block_sizes(n):
    """Index counts of the blocks of a walk over i = 1..n: 64 doubling to 8192."""
    sizes, size = [], 64
    while sum(sizes) < n:
        sizes.append(min(size, n - sum(sizes)))
        size = min(2 * size, 8192)
    return sizes


@pytest.mark.parametrize(
    "fam",
    [PiecewiseConstantFamily(1.0, 300), PowerLawFamily.from_ab(1.5, -0.3)],
    ids=["piecewise", "power_law"],
)
def test_one_ratios_read_per_block(fam, monkeypatch):
    # each block reads d, rho and g together, for its factors and weights
    reads = []
    ratios = type(fam).ratios
    monkeypatch.setattr(type(fam), "ratios",
                        lambda self, idx: reads.append(len(idx)) or ratios(self, idx))
    bv = F_equilibrium(fam, 1e5)
    assert len(_block_sizes(bv.terms_used)) > 2
    assert reads == _block_sizes(bv.terms_used)
    # the audit walks to its term count with no stop test, once for both identities
    reads.clear()
    identity_audit(fam, 2.0, 1000)
    assert reads == _block_sizes(1000)


def test_cross_check_accepts_whole_grid():
    # the cohort balance must hold everywhere, not just at spot points
    fam = PowerLawFamily.from_ab(2.0, 0.0)
    for x in np.geomspace(1e-2, 1e4, 25):
        F_equilibrium(fam, float(x), cross_check=True)


@settings(max_examples=40, deadline=None)
@given(families, st.floats(1e-2, 1e2))
def test_identity_audits_vanish(fam, x):
    (_, g_resid), (_, d_resid) = identity_audit(fam, x, n_terms=150)
    assert g_resid <= 1e-10
    assert d_resid <= 1e-10


def test_profile_tail_bound_covers_true_geometric_tail():
    fam = PiecewiseConstantFamily(1.0, 1)
    x = 3.0  # ratio 3/4, slow decay, non-trivial tail
    prof = cohort_profile(fam, x, 1.0, 12)
    ratio = x / (x + 1.0)
    true_tail = prof.M[-1] * ratio / (1.0 - ratio)
    assert prof.tail_mass_bound >= true_tail * (1 - 1e-12)


class TestTermination:
    def test_term_cap_raises_with_diagnostic(self):
        with pytest.raises(ConvergenceError) as err:
            _one(PiecewiseConstantFamily(1.0, 1), "kM", 1e5, term_cap=10)
        detail = err.value.diagnostic()
        assert detail["series"] == "sum_kM"
        assert detail["terms_used"] == 10

    def test_underflow_terminates_early_and_exactly(self):
        # at x = 1e-3 the cohort weights fall below the subnormal floor fast;
        # the sum is complete to full precision with a tiny honest envelope
        bv = _one(PiecewiseConstantFamily(1.0, 1), "kM", 1e-3)
        assert bv.terms_used < 200
        assert bv.value == pytest.approx(1.0, rel=1e-15)
        assert bv.tail_bound < 1e-14


class TestGrid:
    def test_rows_follow_spec(self):
        # one row per point, in order, each the one-x value
        fam = PiecewiseConstantFamily(1.0, 1)
        points = np.geomspace(0.1, 10.0, 7)
        rows = evaluate(fam, "F", points)
        assert rows == [_one(fam, "F", x) for x in points]

    def test_linear_spacing(self):
        fam = PiecewiseConstantFamily(1.0, 1)
        rows = evaluate(fam, "kM", np.linspace(0.0, 4.0, 5))
        assert len(rows) == 5 and rows[0] == _one(fam, "kM", 0.0)

    def test_unknown_quantity_rejected(self):
        with pytest.raises(DomainError):
            evaluate(PiecewiseConstantFamily(1.0, 1), "G", [0.1, 1.0])


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning",
                            "ignore:invalid value encountered:RuntimeWarning")
def test_weights_past_the_doubles_are_a_convergence_error():
    # (a, b) = (80, 79 - 1e-8): past i ~ 7e3, i rho_i is beyond the doubles and
    # times an underflowed Q_i = 0 gives nan, which no balance test can catch
    fam = PowerLawFamily(p_exp=0.0, q_exp=1.00000001, k_exp=78.99999999)
    assert fam.d_inf_beyond(10**4) == sys.float_info.max * (1.0 - 2.0**-50)
    with pytest.raises(ConvergenceError) as err:
        evaluate(fam, "F", [1.0, 1e290])
    detail = err.value.diagnostic()
    assert (detail["series"], detail["x"]) == ("H_series", 1e290)


def test_tabulated_family_summable():
    fam = TabulatedFamily(k=(2.0, 1.0, 1.0), p=(1.0, 0.5, 0.2), q=(0.0, 0.1, 0.3))
    bv = F_equilibrium(fam, 2.0)
    assert bv.value > 0.0
    assert bv.tail_bound <= 1e-12 * max(1.0, abs(bv.value)) * 10


# evaluate walks many x at once; each row must be the one-x call's result
_scan_families = st.one_of(
    families,
    st.builds(
        lambda ks, ps, qs, last_q: TabulatedFamily(
            k=sorted(ks, reverse=True), p=sorted(ps, reverse=True) + [0.0],
            q=qs + [last_q]),
        st.lists(st.floats(0.2, 5.0), min_size=3, max_size=3),
        st.lists(st.floats(0.1, 2.0), min_size=2, max_size=2),
        st.lists(st.floats(0.0, 2.0), min_size=2, max_size=2),
        st.floats(0.1, 2.0),
    ),
)


@st.composite
def _scan_points(draw):
    """Unsorted x in [1e-3, 1e6] with zeros and repeats."""
    base = draw(st.lists(st.one_of(st.just(0.0), st.floats(1e-3, 1e6)),
                         min_size=1, max_size=10))
    repeats = draw(st.lists(st.sampled_from(base), max_size=4))
    return draw(st.permutations(base + repeats))


# every quantity, with r != 1 where r scales it
_QUANTITY_R = [("F", 1.0), ("H", 1.0), ("kM", 1.0), ("kM", 2.5), ("iqM", 1.0), ("iqM", 0.3)]


def _one_x(fam, quantity, x, r, *, cross_check, **kwargs):
    """The one-x entry point for quantity: F_equilibrium for F at the default
    tol and term cap, else a one-x walk."""
    if quantity == "F" and not kwargs:
        return F_equilibrium(fam, x, cross_check=cross_check)
    return _one(fam, quantity, x, r, cross_check=cross_check, **kwargs)


def _bits(bv):
    return float(bv.value).hex(), float(bv.tail_bound).hex(), bv.terms_used


class TestFValues:
    """Values over many x from one evaluate walk: each row is the one-x
    result, for every quantity, both cross_check settings and r != 1."""

    @settings(max_examples=60, deadline=None)
    @given(_scan_families, _scan_points(), st.sampled_from(_QUANTITY_R), st.booleans())
    def test_equals_scalar_walks(self, fam, points, quantity_r, cross_check):
        quantity, r = quantity_r
        kwargs = dict(tol=1e-11, term_cap=50_000, cross_check=cross_check)
        try:
            want = [_bits(_one_x(fam, quantity, x, r, **kwargs)) for x in points]
        except ConvergenceError as one:
            # small a or flat d at large x: the same error, at the first x that fails
            with pytest.raises(ConvergenceError) as many:
                evaluate(fam, quantity, points, r, **kwargs)
            assert str(many.value) == str(one)
            return
        assert [_bits(bv) for bv in evaluate(fam, quantity, points, r, **kwargs)] == want

    @pytest.mark.parametrize("a,b", [(0.5, -0.8), (2.0, 0.0)])
    def test_m_scan_grid_equals_scalar_walks(self, a, b):
        # 300 rows exceed the 256 a first block's chunk holds, then retire
        # over many blocks and share them in several chunks
        fam = PowerLawFamily.from_ab(a, b)
        points = np.geomspace(1e-3, 1e6, 300).tolist()
        points = points + [0.0, 0.0] + points[::37]
        np.random.default_rng(7).shuffle(points)
        for quantity, r in _QUANTITY_R:
            for cross_check in (True, False):
                got = evaluate(fam, quantity, points, r, tol=1e-11, cross_check=cross_check)
                assert [_bits(bv) for bv in got] == [
                    _bits(_one_x(fam, quantity, x, r, tol=1e-11, cross_check=cross_check))
                    for x in points], (quantity, r, cross_check)

    def test_empty_grid(self):
        for quantity, r in _QUANTITY_R:
            assert evaluate(PowerLawFamily.from_ab(2.0, 0.0), quantity, [], r) == []

    @pytest.mark.parametrize("bad", [-1.0, math.nan, math.inf])
    def test_bad_x_raises_the_scalar_error(self, bad):
        fam = PowerLawFamily.from_ab(0.5, -0.5)
        for quantity, r in _QUANTITY_R:
            with pytest.raises(DomainError) as one:
                _one_x(fam, quantity, bad, r, cross_check=True)
            # checked before any walk: an earlier x that would not converge loses
            with pytest.raises(DomainError) as many:
                evaluate(fam, quantity, [1.0, 1e6, bad, 2.0], r, term_cap=200)
            assert str(many.value) == str(one.value)

    @pytest.mark.parametrize("bad_r", [0.0, -1.0, math.nan, math.inf])
    def test_bad_r_is_checked_where_r_scales(self, bad_r):
        fam = PowerLawFamily.from_ab(0.5, -0.5)
        for quantity in ("F", "H"):
            assert evaluate(fam, quantity, [0.0, 1.0], bad_r) == evaluate(fam, quantity,
                                                                          [0.0, 1.0])
        for quantity in ("kM", "iqM"):
            with pytest.raises(DomainError, match="x must be"):  # every x comes first
                evaluate(fam, quantity, [1.0, -1.0], bad_r)
            with pytest.raises(DomainError) as one:
                _one_x(fam, quantity, 0.0, bad_r, cross_check=True)
            with pytest.raises(DomainError) as many:
                evaluate(fam, quantity, [0.0, 1e6], bad_r, term_cap=200)
            assert str(many.value) == str(one.value)

    @pytest.mark.parametrize("bad_tol", [-1.0, math.nan, -math.inf])
    def test_unreachable_tol_is_rejected_before_the_walk(self, bad_tol):
        # no tail bound meets a negative or nan tol: every walk would run
        # to the term cap and raise ConvergenceError; a zero tol is met on
        # underflow
        from quartzeq.asymptotics import K_direct

        fam = PowerLawFamily.from_ab(2.0, 0.0)
        calls = [lambda q=q, r=r: evaluate(fam, q, [1.0], r, tol=bad_tol)
                 for q, r in _QUANTITY_R]
        calls += [lambda: K_direct(2.0, 0.0, 10.0, tol=bad_tol)]
        for call in calls:
            with pytest.raises(DomainError, match="^tol must be >= 0, got "):
                call()
        zero, default = evaluate(fam, "F", [1.0], tol=0.0)[0], evaluate(fam, "F", [1.0])[0]
        assert zero.value == pytest.approx(default.value, rel=1e-14)
        assert zero.terms_used >= default.terms_used

    @pytest.mark.parametrize("bad_cap", [0, -3])
    def test_term_cap_below_one_is_rejected_before_the_walk(self, bad_cap):
        # no walk of fewer than one term can meet a tol: each call would
        # raise ConvergenceError quoting the bad cap
        from quartzeq.asymptotics import K_direct

        fam = PowerLawFamily.from_ab(2.0, 0.0)
        calls = [lambda q=q, r=r: evaluate(fam, q, [1.0], r, term_cap=bad_cap)
                 for q, r in _QUANTITY_R]
        calls += [lambda: K_direct(2.0, 0.0, 10.0, term_cap=bad_cap),
                  lambda: K_direct(2.0, 0.7, 1e3, start=63, term_cap=bad_cap)]
        for call in calls:
            with pytest.raises(DomainError, match=f"^term_cap must be >= 1, got {bad_cap}$"):
                call()

    @pytest.mark.parametrize("points", [[1e-3, 1e5, 0.0, 1e6, 1e-2], [1e-2, 1e6, 1e5]])
    def test_term_cap_raises_at_the_first_failing_x(self, points):
        # kM and iqM scale tol per x, and the message quotes the failing row's
        fam = PowerLawFamily.from_ab(0.5, -0.5)
        first_failing = next(x for x in points if x >= 1e5)
        for quantity, r in _QUANTITY_R:
            with pytest.raises(ConvergenceError) as one:
                _one_x(fam, quantity, first_failing, r, cross_check=True, term_cap=200)
            with pytest.raises(ConvergenceError) as many:
                evaluate(fam, quantity, points, r, term_cap=200)
            assert str(many.value) == str(one.value)
            assert many.value.diagnostic() == one.value.diagnostic()

    def test_m_scan_memory_is_bounded(self):
        # live rows go through the cumulative product in chunks of 2^14
        # elements, so the 200-point m scan holds well under a megabyte
        fam = PowerLawFamily.from_ab(0.5, -0.8)
        points = np.geomspace(1e-3, 1e6, 200)
        tracemalloc.start()
        try:
            evaluate(fam, "F", points, tol=1e-11, cross_check=False)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2**20


def test_cohort_profile_at_zero_keeps_every_cohort():
    # at x = 0 the cohorts past 0 are exact zeros, not underflow: the profile
    # keeps all n of them and is an exact equilibrium at alpha = 0
    table = TabulatedFamily(k=(2.0, 1.0, 1.0), p=(1.0, 0.5, 0.2), q=(0.0, 0.1, 0.3))
    for fam in (PowerLawFamily.from_ab(1.5, 0.2), PiecewiseConstantFamily(1.3, 2), table):
        for n in (1, 10):
            prof = cohort_profile(fam, 0.0, 2.0, n)
            assert prof.M.tolist() == [2.0 / (fam.p0 + fam.q0)] + [0.0] * n
            assert prof.tail_mass_bound == 0.0
            norm, budget = equilibrium_residual(fam, 0.0, 2.0, prof)
            assert norm == 0.0 <= budget


# The kernel, evaluate and the two ratio reads as they were before each block
# read one stacked [d; rho; g] array: the reference for bit identity.

def _reference_ratios(fam, idx):
    """(d, rho, g) as three arrays, read the way the families read them before."""
    if isinstance(fam, PowerLawFamily):
        fi = idx.astype(float)
        ia, ib = fi ** fam.a, fi ** fam.b
        return (ia + ib) * (1.0 + 1e-9 if isinstance(fam, _SkewedD) else 1.0), ib, ia
    return tuple(fam._drg[:, np.minimum(idx, fam._kpq.shape[1] - 1)])


def _reference_blocked_sum(block, stop, xs, tols=None, *, cap, name="series"):
    for tol in tols or ():
        if not tol >= 0.0:
            raise DomainError(f"tol must be >= 0, got {tol}")
    if cap < 1:
        raise DomainError(f"term_cap must be >= 1, got {cap}")
    walks = [None] * len(xs)
    live = range(len(xs))
    qs = [1.0] * len(xs)
    parts = [[] for _ in xs]
    n, size = 0, 64
    while live and n < cap:
        hi = min(n + size, cap)
        fmap, ws = block(np.arange(n + 1, hi + 1))
        bound = None if stop is None else stop(hi)
        chunk = series._CHUNK // size
        retired = False
        for rows in ((live,) if len(live) <= chunk else
                     [live[a:a + chunk] for a in range(0, len(live), chunk)]):
            if len(rows) == 1:
                i = rows[0]
                qvals = fmap(np.array(xs[i], dtype=float)).cumprod()
                if n:
                    qvals = qs[i] * qvals
                terms = [qvals if w is None else w * qvals for w in ws]
                sums = (tuple(map(float, map(np.add.reduce, terms))),)
                q_n = (qvals.item(-1),)
                t_n = (terms[0].item(-1) if bound else 0.0,)
            else:
                x_c = np.array([xs[i] for i in rows], dtype=float)[:, None]
                qvals = fmap(x_c).cumprod(-1)
                if n:
                    qvals = np.array([qs[i] for i in rows])[:, None] * qvals
                terms = [qvals if w is None else w * qvals for w in ws]
                sums = (list(zip(*[np.add.reduce(t, 1).tolist() for t in terms]))
                        or [()] * len(rows))
                q_n = qvals[:, -1].tolist()
                t_n = terms[0][:, -1].tolist() if bound else [0.0] * len(rows)
            for i, row_sums, q, t in zip(rows, sums, q_n, t_n):
                parts[i].append(row_sums)
                qs[i] = q
                s = bound(xs[i]) if bound else math.inf
                if s < 1.0:
                    tail = (0.0 if s == 0.0 or q < series._UNDERFLOW_FLOOR
                            else t * s / (1.0 - s))
                    if tail <= tols[i]:
                        walks[i] = series._Walk(series._fsums(parts[i]), tail, hi, q)
                        retired = True
        if retired:
            live = [i for i in live if walks[i] is None]
        n = hi
        size = min(size * 2, 8192)
    if live and stop is not None:
        x = xs[live[0]]
        raise ConvergenceError(f"{name} did not reach tol={tols[live[0]]} within {cap} terms "
                               f"at x={x}", series=name, x=x, terms_used=cap)
    for i in live:
        walks[i] = series._Walk(series._fsums(parts[i]), 0.0, n, qs[i])
    return walks


# per sum, i rho_i ("rho"), i g_i ("g") or 1 (None); the sums past the first
# feed F's cross-check
_REFERENCE_WEIGHTS = {"F": ("rho", None, "g"), "H": ("rho",), "kM": (None,), "iqM": ("g",)}


def _reference_evaluate(fam, quantity, xs, r=1.0, *, tol=series.DEFAULT_TOL,
                        term_cap=series.DEFAULT_TERM_CAP, cross_check=True):
    recipe = series._RECIPES.get(quantity)
    if recipe is None:
        raise DomainError(f"unknown quantity {quantity!r}; "
                          f"expected one of {sorted(series._RECIPES)}")
    weights = _REFERENCE_WEIGHTS[quantity]
    xs = list(map(_check_x, xs))
    pos = [x for x in xs if x > 0.0] if 0.0 in xs else xs
    d0 = fam.d0
    denoms = [x + d0 for x in pos]
    if recipe.scaled:
        _check_r(r)
        prefs = [r / denom for denom in denoms]
        tols = [tol / pref if pref > 0 else tol for pref in prefs]
    else:
        prefs, tols = [1.0] * len(pos), [tol] * len(pos)
    picks = weights if cross_check else weights[:1]

    def block(idx):
        d, rho, g = _reference_ratios(fam, idx)
        return (lambda x: x / (x + d)), [None if w is None else idx * (rho if w == "rho" else g)
                                         for w in picks]

    stop = functools.partial(fam.step_bound, weights[0])
    walks = _reference_blocked_sum(block, stop, pos, tols, cap=term_cap, name=recipe.name)
    for x, walk in zip(pos, walks):
        if not all(map(math.isfinite, walk.sums)):
            raise ConvergenceError(f"{recipe.name} is not finite at x={x} within "
                                   f"{walk.n} terms: a term passed the doubles",
                                   series=recipe.name, x=x, terms_used=walk.n)
        if len(picks) > 1:
            h_n, s1_n, siq_n = walk.sums
            series._check_balance(fam, x, walk._replace(sums=(h_n, siq_n, s1_n)))
    rows = map(recipe.finish, walks, denoms, prefs)
    if pos is xs:
        return list(rows)
    return [next(rows) if x > 0.0 else recipe.at_zero(fam, r) for x in xs]


def _table(k, p, q):
    """A table from drawn rows in any order, with p_i + q_i > 0."""
    return TabulatedFamily(k=k, p=p, q=[qi if pi + qi > 0.0 else 1.0 for pi, qi in zip(p, q)])


_identity_families = st.one_of(
    st.builds(PiecewiseConstantFamily, st.floats(0.1, 10.0), st.integers(0, 300)),
    st.builds(PowerLawFamily.from_ab, st.floats(0.0, 4.0), st.floats(-2.0, 0.0)),
    st.builds(PowerLawFamily, p_exp=st.floats(0.0, 3.0), q_exp=st.floats(0.0, 3.0),
              k_exp=st.floats(0.0, 3.0), p0=st.floats(0.1, 2.0), q0=st.floats(0.0, 2.0),
              k0=st.floats(0.1, 3.0)),
    st.integers(1, 6).flatmap(lambda n: st.builds(
        _table, *(st.lists(st.floats(lo, 3.0), min_size=n, max_size=n)
                  for lo in (0.1, 0.0, 0.0)))),
    st.builds(_SkewedD, p_exp=st.floats(0.5, 2.0), q_exp=st.floats(0.5, 2.0), k_exp=st.just(0.0)),
)
# x = 0, subnormal, and log-uniform over [1e-300, 1e8], more often over [1e-2, 1e8]
_identity_xs = st.one_of(st.sampled_from([0.0, 5e-324, 1e-310]),
                         st.floats(-300.0, 8.0).map(lambda e: 10.0 ** e),
                         st.floats(-2.0, 8.0).map(lambda e: 10.0 ** e))


def _outcome(call):
    """A call's BoundedValues bit for bit, or its error's type and message."""
    try:
        return [_bits(bv) for bv in call()]
    except (ConvergenceError, ConsistencyError, DomainError) as exc:
        return type(exc).__name__, str(exc)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # weights past the doubles
@settings(max_examples=150, deadline=None)
@given(_identity_families, st.lists(_identity_xs, min_size=1, max_size=6),
       st.sampled_from(["F", "H", "kM", "iqM"]), st.sampled_from([1.0, 2.5, 0.3]),
       st.booleans(), st.sampled_from([series.DEFAULT_TOL, 1e-6, 1e-15, 0.0, -1.0]),
       st.sampled_from([series.DEFAULT_TERM_CAP, 1, 63, 64, 65, 200, 5000, 0]))
def test_walks_equal_the_reference_bit_for_bit(fam, points, quantity, r, cross_check,
                                               tol, term_cap):
    kwargs = dict(tol=tol, term_cap=term_cap, cross_check=cross_check)
    many = _outcome(lambda: evaluate(fam, quantity, points, r, **kwargs))
    assert many == _outcome(lambda: _reference_evaluate(fam, quantity, points, r, **kwargs))
    ones = [_outcome(lambda: evaluate(fam, quantity, [x], r, **kwargs)) for x in points]
    assert ones == [_outcome(lambda: _reference_evaluate(fam, quantity, [x], r, **kwargs))
                    for x in points]
    if isinstance(many, list):  # every many-x row is its one-x call
        assert [one[0] for one in ones] == many


@given(_identity_families, st.integers(0, 400), st.integers(1, 200))
def test_ratios_are_one_stacked_array(fam, start, count):
    # index blocks that begin anywhere, cross a table's end and lie far past it
    idx = np.arange(start + 1, start + count + 1)
    drg = fam.ratios(idx)
    assert isinstance(drg, np.ndarray) and drg.dtype == float and drg.shape == (3, count)
    assert [row.tolist() for row in drg] == [row.tolist() for row in _reference_ratios(fam, idx)]
    assert fam.d_values(idx).tolist() == drg[0].tolist()
