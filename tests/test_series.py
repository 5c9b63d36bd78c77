"""Certified equilibrium series: closed-form pins, tail soundness, identity audits.

The load-bearing contract here is enclosure: for a nonnegative-term
series the reported value exceeds the true sum by rounding at most, and
value + tail_bound never falls below it.  We cannot query the true
sum directly, so a much tighter re-summation stands in for it.
"""

import math
import sys
import tracemalloc
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
        d, rho, g = super().ratios(idx)
        return d * (1.0 + 1e-9), rho, g


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
