"""Regime classification and threshold estimation for power-law rate families."""

import math
from dataclasses import replace

import numpy as np
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
from quartzeq.piecewise import _bisect_to_adjacent
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


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning",
                            "ignore:invalid value encountered:RuntimeWarning")
def test_m_scan_past_the_doubles_is_a_convergence_error():
    # i^60 passes the doubles near i = 1.4e5, before the weak scan's
    # bound stops it
    with pytest.raises(ConvergenceError) as err:
        estimate_m_with_error(PowerLawFamily.from_ab(60, 58.9999999))
    assert err.value.series == "H_series" and err.value.x > 0.0


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

    def test_strict_case_supremum_at_infinity(self, monkeypatch):
        # on b = a - 1, m = 1 exactly and is never attained: no F scan
        from quartzeq import powerlaw

        calls = []
        real = powerlaw.evaluate

        def counted(*args, **kwargs):
            calls.append(args[2])
            return real(*args, **kwargs)

        monkeypatch.setattr(powerlaw, "evaluate", counted)
        est, err, evals = estimate_m_with_error(PowerLawFamily.from_ab(2.0, 1.0))
        assert est.attained_at == SUPREMUM_AT_INFINITY
        assert est.m == 1.0
        assert err == 0.0
        assert evals == 0 and calls == []

    def test_scan_grid_is_geomspace_up_to_1e6(self, monkeypatch):
        # the scan's rows are 10^(9k/199 - 3): up to x = 1e6 they are the
        # former 200-point grid bit for bit, and (3, 1.99) scans past it
        from quartzeq import powerlaw

        walked = []
        real = powerlaw.evaluate

        def recorded(fam, quantity, xs, *args, **kwargs):
            walked.extend(xs)
            return real(fam, quantity, xs, *args, **kwargs)

        monkeypatch.setattr(powerlaw, "evaluate", recorded)
        estimate_m_with_error(PowerLawFamily.from_ab(3.0, 1.99))
        assert np.array_equal(walked[:200], np.geomspace(1e-3, 1e6, 200))
        assert walked[200] == pytest.approx(10.0 ** (200 * 9.0 / 199 - 3.0), rel=1e-14)

    def test_peak_past_1e6_matches_a_dense_scan(self):
        # F of (3, 1.99) peaks near x = 4.7e7; a dense scalar scan with a
        # bounded Brent search on log x finds the same maximum
        from scipy.optimize import minimize_scalar

        fam = PowerLawFamily.from_ab(3.0, 1.99)
        est, err, evals = estimate_m_with_error(fam)
        assert 4e7 < est.attained_at < 6e7 and err < 1e-12 and evals > 200

        def F(t):
            return F_equilibrium(fam, math.exp(t)).value

        ts = np.linspace(math.log(1e6), math.log(1e9), 301)
        j = int(np.argmax([F(t) for t in ts]))
        best = minimize_scalar(lambda t: -F(t), bounds=(ts[j - 1], ts[j + 1]),
                               method="bounded", options={"xatol": 1e-10})
        assert abs(-best.fun - est.m) <= err
        # the former scan of [1e-3, 1e9] at 200 rows gave 0.9454039041442371
        # with an error bar of 2.3e-13
        assert abs(est.m - 0.9454039041442371) <= err + 2.3e-13
        assert existence_verdict(fam, 0.9, 1.0) == EXISTS

    def test_plateau_past_1e6_does_not_end_the_scan(self):
        # for (100, 98.99) F rests near 2/3 from x ~ 10 to 1e30 and then
        # climbs again: past 1e6 only the bound may stop the scan
        fam = PowerLawFamily.from_ab(100.0, 98.99)
        est, err, _ = estimate_m_with_error(fam)
        assert est.m >= F_equilibrium(fam, 1e100, cross_check=False).value > 0.89
        assert est.attained_at > 1e100

    def test_scan_ends_before_the_doubles_do(self, monkeypatch):
        # an F that never stops rising runs the grid out near x = 1e308
        from quartzeq import powerlaw

        monkeypatch.setattr(powerlaw, "_weak_F_bound", lambda fam, x: math.inf)
        monkeypatch.setattr(powerlaw, "_F_rows", lambda fam, xs: list(map(float, xs)))
        with pytest.raises(ConvergenceError, match="past the doubles"):
            estimate_m_with_error(THRESHOLD_FAMILY)


# (a, b, m, attained_at, error bar, F evaluations) of the ThresholdWeak
# families in the verdict benchmark, on an x86_64 host with AVX-512.  m
# and attained_at were computed by a grid scan plus golden-section search,
# which the bracket rescans reproduce within the error bar and 3e-7
# relative.  The evaluations are the grid rows scanned before
# _weak_F_bound stops the scan (125 or 150) plus 25 per rescan round.
# Without AVX-512 numpy's power and exp round differently, which moves m
# by an ulp and attained_at by up to 5e-8 relative (checked with
# NPY_DISABLE_CPU_FEATURES); attained_at is resolved only to the final
# bracket, about 1e-7 relative.
_M_PINS = [
    # seed 1
    (1.4224859878427019, 0.03341936779488014,
     0.4731583721316437, 16.199767844105992, 2.883952508499567e-14, 275),
    (2.0484044444136886, 0.3418840321032023,
     0.3801103709839797, 8.410472392949087, 2.6150653686228985e-14, 250),
    (2.660339946165241, 1.1143968543306104,
     0.44117798751698595, 15.996158036839555, 2.603153193079179e-14, 275),
    (0.7924208125850241, -1.0755904304240314,
     0.3116170107379294, 4.029660275519569, 1.3949597509907067e-14, 275),
    # seed 2
    (0.7865100932656006, -1.088941991568803,
     0.3101919730017786, 3.9840786215161588, 1.3941824272912956e-14, 275),
    (2.6668374365291974, 1.1223646258157234,
     0.44180994596830137, 16.110524554166886, 2.5837551918797027e-14, 275),
    (1.4265146647128666, 0.03959447013491946,
     0.4743492981411127, 16.384821632910704, 2.867036821912416e-14, 275),
    (2.0765750033874797, 0.36944996758639026,
     0.38063219628497136, 8.486341524423816, 2.60628050823262e-14, 250),
    # seed 3
    (2.6957686577148654, 1.1524193855972453,
     0.44277562791919584, 16.34462986603354, 2.5991459114713468e-14, 275),
    (2.072225347328354, 0.3660479757876116,
     0.38076868106457773, 8.489965990682807, 2.606886622411942e-14, 250),
    (1.4364866821899578, 0.057649896909489906,
     0.4787174361818017, 17.062921946782986, 2.9086397121149747e-14, 275),
    (0.7930048042102985, -1.0775616648086785,
     0.31120558571044454, 4.017837105389259, 1.4153371173295274e-14, 275),
    # holdout seed 20190129
    (1.4306987700337177, 0.047031633022664054,
     0.4761023648075263, 16.653848182530524, 2.880373116942561e-14, 275),
    (0.8140014447891992, -1.0475809319459526,
     0.313369354368757, 4.095439355599945, 1.4027417199747071e-14, 275),
    (2.0737961589272884, 0.3666875845745996,
     0.38057003973285886, 8.478070062135835, 2.6282089381839768e-14, 250),
    (2.701005574369645, 1.1643737042195248,
     0.44518672798510234, 16.73729883068278, 2.5765466559639723e-14, 275),
    # THRESHOLD_FAMILY
    (2.0, 0.0,
     0.3198813413702965, 5.0831323274282685, 2.5418837762205376e-14, 250),
]


def _scalar_evaluate(fam, quantity, xs, **options):
    assert quantity == "F"
    return [F_equilibrium(fam, float(x), **options) for x in xs]


@pytest.mark.parametrize("a,b,m,attained_at,err,evals", _M_PINS)
def test_m_estimate_is_pinned(a, b, m, attained_at, err, evals, monkeypatch):
    from quartzeq import powerlaw

    fam = PowerLawFamily.from_ab(a, b)
    got = estimate_m_with_error(fam)
    # bit for bit what a grid of scalar walks gives on this host
    monkeypatch.setattr(powerlaw, "evaluate", _scalar_evaluate)
    assert got == estimate_m_with_error(fam)
    est, got_err, got_evals = got
    assert got_evals == evals
    assert abs(est.m - m) <= err
    assert est.attained_at == pytest.approx(attained_at, rel=1e-6)
    assert got_err == pytest.approx(err, rel=0.05)


_WEAK_FAMILIES = st.builds(
    # b spans (-2, a - 1) in proportion, so the strict line is approached too
    lambda a, frac: PowerLawFamily.from_ab(a, -2.0 + frac * (a + 1.0)),
    st.floats(0.05, 4.0), st.floats(0.001, 0.999),
)


@settings(max_examples=40, deadline=None)
@given(fam=st.floats(0.05, 4.0).flatmap(lambda a: st.builds(
    # b at most 90% of the way to the strict line for a < 1, 99% for
    # a >= 1: closer, the peak of a small a moves out to x where a walk
    # passes the 10^6 term cap (ROADMAP item 3)
    lambda frac: PowerLawFamily.from_ab(a, -2.0 + frac * (a + 1.0)),
    st.floats(0.001, 0.99 if a >= 1.0 else 0.9),
)))
def test_m_estimate_reads_its_own_walks(fam):
    # m is the largest F any walk of the estimate returned, attained
    # exactly at attained_at, and the error bar is the spread over the
    # last round's bracket plus the tail bound at its best row
    from quartzeq import powerlaw

    walks = []
    real = powerlaw.evaluate

    def recorded(*args, **kwargs):
        walks.append(real(*args, **kwargs))
        return walks[-1]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(powerlaw, "evaluate", recorded)
        est, err, evals = estimate_m_with_error(fam)
    assert evals == sum(map(len, walks))
    assert est.m == max(bv.value for rows in walks for bv in rows)
    assert F_equilibrium(fam, est.attained_at).value == est.m
    last = [bv.value for bv in walks[-1]]
    k = last.index(est.m)
    assert 0 < k < len(last) - 1
    assert err == (est.m - last[k - 1]) + (est.m - last[k + 1]) + walks[-1][k].tail_bound


@settings(max_examples=200, deadline=None)
@given(fam=_WEAK_FAMILIES, u=st.floats(0.0, 1.0))
def test_weak_F_bound_holds(fam, u):
    # the d-identity bound stops the m scan and the probe: a computed F
    # above it could drop the maximizing row or a crossing.  x is
    # log-uniform on [1e-3, x_hi]; x_hi < 1e6 only for small a, where the
    # walk needs about (30 (a+1) x)^(1/(a+1)) terms and would pass the 10^6
    # term cap (ROADMAP item 3)
    from quartzeq.powerlaw import _weak_F_bound

    assert classify_regime(fam).regime is Regime.THRESHOLD_WEAK
    x_hi = min(1e6, 1e-2 * 1e5 ** (fam.a + 1.0))
    x = math.exp(math.log(1e-3) + u * math.log(x_hi / 1e-3))
    assert F_equilibrium(fam, x, cross_check=False).value <= _weak_F_bound(fam, x)


def test_weak_F_bound_falls_below_the_peak():
    # at (2, 0) the bound drops below m = 0.3199 between x = 100 and 200,
    # and falls like x^(-1/3), as F does
    from quartzeq.powerlaw import _weak_F_bound

    assert _weak_F_bound(THRESHOLD_FAMILY, 1e2) > 0.3198813413702965
    assert _weak_F_bound(THRESHOLD_FAMILY, 2e2) < 0.3198813413702965
    assert _weak_F_bound(THRESHOLD_FAMILY, 1e6) < 0.02


@pytest.mark.parametrize("grid", [20, 200, 400])
@pytest.mark.parametrize("x_max", [1e4, 1e6, 1e8])
def test_stopped_scan_matches_full_scan(grid, x_max, monkeypatch):
    # _F_scan over any increasing grid: the rows it scans before the bound
    # stops it are the full scan's first rows, bit for bit, and every row
    # it skips lies below the largest scanned one
    from quartzeq import powerlaw

    xs = np.geomspace(1e-3, x_max, grid)
    slices = [xs[i:i + powerlaw._SLICE] for i in range(0, grid, powerlaw._SLICE)]

    def rows(fam):
        return [v for _, vals in powerlaw._F_scan(fam, slices) for v in vals]

    fams = [PowerLawFamily.from_ab(a, b) for a, b, *_ in _M_PINS]
    stopped = [rows(fam) for fam in fams]
    monkeypatch.setattr(powerlaw, "_weak_F_bound", lambda fam, x: math.inf)
    for fam, got in zip(fams, stopped):
        full = rows(fam)
        assert len(full) == grid and got == full[:len(got)]
        assert max(got) == max(full)


def test_stopped_m_estimate_matches_full_scan(monkeypatch):
    # every row the bound skips lies below a scanned one, so m, its error
    # bar and the maximizer are bit for bit those of the full scan to
    # x = 1e6 (rows 0-199, ended by a stub bound that stops only the slice
    # past them): the bound stopped the pins after 125 or 150 grid rows
    from quartzeq import powerlaw

    stopped = [estimate_m_with_error(PowerLawFamily.from_ab(a, b)) for a, b, *_ in _M_PINS]
    monkeypatch.setattr(powerlaw, "_weak_F_bound",
                        lambda fam, x: -math.inf if x > 1e6 else math.inf)
    for (a, b, *_), (est, err, evals) in zip(_M_PINS, stopped):
        full_est, full_err, full_evals = estimate_m_with_error(PowerLawFamily.from_ab(a, b))
        assert (est.m, err, est.attained_at) == (full_est.m, full_err, full_est.attained_at)
        assert full_evals - evals in (200 - 150, 200 - 125)


def test_stopped_scan_answers_past_the_series_ceiling(monkeypatch):
    # at (0.2, -1.5) the grid rows past x ~ 4e5 need more than 10^6 terms;
    # the bound stops the scan long before them, so m is still certified
    from quartzeq import powerlaw

    fam = PowerLawFamily.from_ab(0.2, -1.5)
    est, err, evals = estimate_m_with_error(fam)
    assert est.m == pytest.approx(0.32116, abs=1e-5) and err < 1e-12
    assert evals == 125 + 5 * 25
    monkeypatch.setattr(powerlaw, "_weak_F_bound", lambda fam, x: math.inf)
    with pytest.raises(ConvergenceError, match="within 1000000 terms"):
        estimate_m_with_error(fam)


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


def _scalar_probe(fam, alpha):
    """count_equilibria_probe over the whole grid with one F call per x,
    each sign change bisected by the routine the probe uses."""
    def f(x):
        return F_equilibrium(fam, x, cross_check=False).value - alpha

    xs = [float(x) for x in np.geomspace(1e-4, 1e6, 400)]
    vals = [f(x) for x in xs]
    roots = []
    for i in range(len(xs)):
        if vals[i] == 0.0:
            roots.append(xs[i])
        elif i + 1 < len(xs) and vals[i + 1] != 0.0 and (vals[i] > 0.0) != (vals[i + 1] > 0.0):
            roots.append(_bisect_to_adjacent(f, xs[i], vals[i], xs[i + 1], vals[i + 1]))
    return len(roots), tuple(roots)


@pytest.mark.parametrize("a,b,alpha", [(2.0, 0.0, 0.2), (2.0, 0.0, 0.3198), (1.0, -0.4, 0.3),
                                       (0.79, -1.07, 0.25), (1.5, 0.2, 0.4), (2.0, 1.4, 0.7)])
def test_count_probe_lockstep_matches_scalar_bisection(a, b, alpha):
    # the probe's scan, read in slices of 25 rows and stopped early by the
    # bound, gives bit for bit the roots of a full scan one x at a time
    fam = PowerLawFamily.from_ab(a, b)
    assert count_equilibria_probe(fam, alpha, 1.0) == _scalar_probe(fam, alpha)


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


@pytest.mark.parametrize("share", [0.5, 0.9, 0.999])
def test_stopped_probe_matches_full_probe(share, monkeypatch):
    # the first row the bound skips counts as below alpha/r, and so does
    # every later one: the brackets, their bisection and the roots are bit
    # for bit those of the whole grid
    from quartzeq import powerlaw

    cases = [(PowerLawFamily.from_ab(a, b), share * m) for a, b, m, *_ in _M_PINS]
    stopped = [count_equilibria_probe(fam, alpha, 1.0) for fam, alpha in cases]
    monkeypatch.setattr(powerlaw, "_weak_F_bound", lambda fam, x: math.inf)
    assert stopped == [count_equilibria_probe(fam, alpha, 1.0) for fam, alpha in cases]


def test_probe_answers_past_the_series_ceiling(monkeypatch):
    # at (0.2, -1.5) the grid rows past x ~ 4.7e5 need more than 10^6
    # terms; the bound rules out a crossing of 0.2 past x ~ 116, so the
    # probe stops long before them
    from quartzeq import powerlaw

    fam = PowerLawFamily.from_ab(0.2, -1.5)
    count, roots = count_equilibria_probe(fam, 0.2, 1.0)
    assert count == 2
    for root in roots:
        assert F_equilibrium(fam, root).value == pytest.approx(0.2, abs=1e-9)
    monkeypatch.setattr(powerlaw, "_weak_F_bound", lambda fam, x: math.inf)
    with pytest.raises(ConvergenceError, match="within 1000000 terms"):
        count_equilibria_probe(fam, 0.2, 1.0)


@pytest.mark.parametrize("a,alpha", [(0.054, 1.0), (0.054, 1.2), (0.251, 1.0), (2.0, 1.0)])
def test_strict_probe_at_or_above_one_has_no_root(a, alpha, monkeypatch):
    # F < m = 1 at every x on b = a - 1, so alpha/r >= 1 has no root and
    # takes no F evaluation; at a = 0.054 the grid rows past x ~ 5.6e4 and
    # at a = 0.251 those past x ~ 6.7e5 would need more than 10^6 terms
    from quartzeq import powerlaw

    def no_walk(*args, **kwargs):
        raise AssertionError("the probe walked a series")

    monkeypatch.setattr(powerlaw, "evaluate", no_walk)
    assert count_equilibria_probe(PowerLawFamily.from_ab(a, a - 1.0), alpha, 1.0) == (0, ())


def test_count_probe_empty_above_supremum():
    count, roots = count_equilibria_probe(THRESHOLD_FAMILY, 0.5, 1.0)
    assert count == 0 and roots == ()

