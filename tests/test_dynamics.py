"""Truncated-system integration: fixed points, balance identity, truncation audit."""

import math
import os
import subprocess
import sys
import tracemalloc
import warnings
from dataclasses import fields, is_dataclass
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from quartzeq import dynamics
from quartzeq.coefficients import PiecewiseConstantFamily, PowerLawFamily, TabulatedFamily
from quartzeq.dynamics import (
    SystemState,
    _Arrays,
    _jacobian_kernel,
    _rhs_kernel,
    _state_vector,
    conservation_residual,
    equilibrium_residual,
    initial_state,
    integrate,
    state_from_profile,
)
from quartzeq.errors import DomainError, IntegrationError
from quartzeq.piecewise import solve_roots
from quartzeq.series import cohort_profile

FAM = PiecewiseConstantFamily(1.0, 1)
GOLDEN_LO = (3.0 - math.sqrt(5.0)) / 2.0


def test_rhs_at_empty_state():
    state = initial_state(5)
    d = _rhs_kernel(_Arrays(FAM, state.i_max), 0.3, 1.0)(state.t, _state_vector(state))
    assert d[0] == 0.3
    assert d[1] == 1.0
    assert not d[2:].any()


def test_stacked_rhs_matches_one_state_at_a_time():
    # integrate evaluates every sample's rhs norm on one stack of states
    rng = np.random.default_rng(7)
    for fam in (PiecewiseConstantFamily(0.7, 4),
                PowerLawFamily(p_exp=0.3, q_exp=1.1, k_exp=0.4, k0=2.0, p0=0.5, q0=0.25)):
        arr = _Arrays(fam, 40)
        # 300 states (x, M_0..M_40, flux), each scaled as a whole
        ys = np.ascontiguousarray((rng.random((43, 300)) * np.geomspace(1e-12, 3.0, 300)).T)
        d = _rhs_kernel(arr, 0.3, 1.0, rows=300)(0.0, ys)
        dx, dM, dflux = d[:, 0], d[:, 1:-1], d[:, -1]
        one_state = _rhs_kernel(arr, 0.3, 1.0)
        for j in range(len(ys)):
            d_j = one_state(0.0, ys[j])
            dx_j, dM_j, dflux_j = d_j[0], d_j[1:-1], d_j[-1]
            assert dx[j] == dx_j and dflux[j] == dflux_j
            assert np.array_equal(dM[j], dM_j)


def _full_rhs(arr, y):
    return _rhs_kernel(arr, 0.3, 1.0)(0.0, y).copy()


@pytest.mark.parametrize("fam", [
    PiecewiseConstantFamily(0.7, 4),
    PowerLawFamily(p_exp=0.3, q_exp=1.1, k_exp=0.4, k0=2.0, p0=0.5, q0=0.25),
])
def test_jacobian_matches_central_differences(fam):
    # the rhs is quadratic, so central differences are exact up to rounding
    # at any step; a large one keeps that rounding small
    arr = _Arrays(fam, 40)
    rng = np.random.default_rng(3)
    h = 0.25
    for _ in range(5):
        y = rng.random(43) * np.geomspace(3.0, 1e-6, 43)
        J = _jacobian_kernel(arr)(0.0, y)
        fd = np.empty_like(J)
        for j in range(len(y)):
            e = np.zeros_like(y)
            e[j] = h
            fd[:, j] = (_full_rhs(arr, y + e) - _full_rhs(arr, y - e)) / (2.0 * h)
        assert np.abs(J - fd).max() <= 1e-10 * np.abs(J).max()


def _reference_rhs_kernel(arr, alpha, r, rows=None):
    """The buffered rhs kernel's operations, allocating per call.

    Same call shape as dynamics._rhs_kernel, so it can stand in for it:
    (t, y) over the state vector (x, M_0..M_imax, flux) or a stack of them.
    """
    def kernel(t, y):
        x = y[..., 0]
        kM = arr.k * y
        sum_kM, sum_iqM = np.moveaxis(np.vecdot(arr.k_iq, y[..., None, :]), -1, 0)
        dy = np.empty_like(y)
        dy[..., 0] = alpha - x * sum_kM + sum_iqM
        # kM at the x slot is zero and stands in for kM_{-1}
        dy[..., 1:-1] = x[..., None] * (kM[..., :-2] - kM[..., 1:-1]) - arr.pq[1:-1] * y[..., 1:-1]
        dy[..., 1] += r
        dy[..., -1] = (arr.i_max + 1) * x * kM[..., -2]
        return dy

    return kernel


def _reference_jacobian_kernel(arr):
    """The buffered Jacobian kernel's entries, allocating per call."""
    def kernel(t, y):
        x, n_m = y[0], len(y) - 2
        k, iq, pq = arr.k[1:-1], arr.k_iq[1, 1:-1], arr.pq[1:-1]
        kM = arr.k * y
        J = np.zeros((n_m + 2, n_m + 2))
        J[0, 0] = -np.sum(kM[1:-1])
        J[0, 1:1 + n_m] = iq - x * k
        J[1:1 + n_m, 0] = kM[:-2] - kM[1:-1]
        cohorts = np.arange(1, 1 + n_m)
        J[cohorts, cohorts] = -x * k - pq
        J[cohorts[1:], cohorts[:-1]] = x * k[:-1]
        J[-1, 0] = (arr.i_max + 1) * kM[-2]
        J[-1, n_m] = (arr.i_max + 1) * x * k[-1]
        return J

    return kernel


def _bits(value):
    """What a summary, state, array or number holds, equal only bit for bit."""
    if is_dataclass(value):
        return tuple(_bits(getattr(value, f.name)) for f in fields(value))
    if isinstance(value, np.ndarray):
        return value.dtype.str, value.shape, value.tobytes()
    if isinstance(value, float):
        return value.hex()
    return value


_families = st.one_of(
    st.builds(PiecewiseConstantFamily, st.floats(0.01, 100.0), st.integers(0, 50)),
    st.tuples(st.floats(0.0, 3.0), st.floats(0.0, 5.0))
    .map(lambda a_gap: PowerLawFamily.from_ab(a_gap[0], a_gap[0] - a_gap[1])),
    st.integers(1, 30).flatmap(lambda n: st.tuples(
        st.lists(st.floats(0.1, 10.0), min_size=n, max_size=n),
        st.lists(st.floats(0.01, 5.0), min_size=n, max_size=n),
        st.lists(st.floats(0.0, 5.0), min_size=n, max_size=n),
    )).map(lambda kpq: TabulatedFamily(sorted(kpq[0], reverse=True),
                                       sorted(kpq[1], reverse=True), kpq[2])),
)
_xs = st.one_of(st.just(0.0), st.floats(0.0, 1e3), st.floats(1e3, 1e300))
# ordinary cohorts mixed with zero and subnormal ones
_cohort = st.one_of(st.floats(0.0, 1e3), st.just(0.0), st.floats(0.0, 2.2e-308))


# a state vector (x, M_0..M_imax, flux) with i_max + 1 = n + 1 cohorts
def _state_vectors(n):
    return st.tuples(_xs, st.lists(_cohort, min_size=n + 1, max_size=n + 1), _cohort).map(
        lambda s: np.array([s[0], *s[1], s[2]]))


@settings(max_examples=200, deadline=None)
@given(_families, st.integers(1, 40).flatmap(
    lambda n: st.lists(_state_vectors(n), min_size=3, max_size=3)),
       st.floats(0.0, 10.0), st.floats(0.0, 10.0))
def test_buffered_kernels_match_the_reference_bit_for_bit(fam, states, alpha, r):
    arr = _Arrays(fam, len(states[0]) - 3)
    stack = np.array(states)
    one_state, jacobian = _rhs_kernel(arr, alpha, r), _jacobian_kernel(arr)
    with np.errstate(all="ignore"):  # large x overflows alike on both sides
        for y in states:
            assert _bits(one_state(0.0, y)) == _bits(_reference_rhs_kernel(arr, alpha, r)(0.0, y))
            assert _bits(jacobian(0.0, y)) == _bits(_reference_jacobian_kernel(arr)(0.0, y))
        assert (_bits(_rhs_kernel(arr, alpha, r, rows=3)(0.0, stack))
                == _bits(_reference_rhs_kernel(arr, alpha, r)(0.0, stack)))


_UNIT_ROUNDOFF = Fraction(1, 2 ** 53)
_HALF_SUBNORMAL = Fraction(1, 2 ** 1075)


@settings(max_examples=200, deadline=None)
@given(_families, st.integers(1, 40).flatmap(_state_vectors),
       st.floats(0.0, 10.0), st.floats(0.0, 10.0))
def test_rhs_is_within_its_rounding_envelope(fam, y, alpha, r):
    """Each rhs component against exact rational arithmetic on the same floats.

    With unit roundoff u = eps / 2 and eta = 2^-1075, a rounded product
    or quotient is v (1 + d) + e with |d| <= u and |e| <= eta, and a
    rounded sum is v (1 + d).  Count the roundings each term of a
    component passes through; L = i_max + 3 is the state length.

    * dM_i, i >= 1, = x (kM_{i-1} - kM_i) - pq_i M_i: an x k M term takes
      its product, the difference, the x scaling and the last
      subtraction, 4 roundings; pq_i M_i takes 2.
    * dM_0 = (x (0 - kM_0) - pq_0 M_0) + r: 4 roundings at most.
    * dx = (alpha - x S_k) + S_iq, each S a vecdot of L products: a dot
      product of length L, summed in any order, with or without fused
      multiply-adds, puts each term through at most L roundings; the
      x scaling and the two outer sums add 3.
    * dflux = ((i_max + 1) x) kM_imax: 3 roundings.

    So every term's relative error is at most gamma_m = m u / (1 - m u)
    with m = L + 3, and each component lies within c eps times the sum of
    its terms' magnitudes, c = (L + 3) / (2 (1 - (L + 3) u)).

    Underflow adds at most eta per rounded product or fused multiply-add:
    L in each vecdot, those of S_k then scaled by x, and one for x S_k;
    in dM_i two kM then scaled by x, and two more; in dflux one kM scaled
    by (i_max + 1) x, and one more ((i_max + 1) x itself is exact when
    subnormal).  So (x + 1) (L + 2) eta bounds each component's share,
    with room for the relative factors.  A component whose terms sum past
    the largest double may overflow; it is then only checked to have
    done so legitimately.
    """
    arr = _Arrays(fam, len(y) - 3)
    with np.errstate(over="ignore", invalid="ignore"):
        got = _rhs_kernel(arr, alpha, r)(0.0, y)
    L = len(y)
    m = L + 3
    c_eps = m * _UNIT_ROUNDOFF / (1 - m * _UNIT_ROUNDOFF)
    x, ys = Fraction(y[0]), [Fraction(v) for v in y]
    k, iq, pq = ([Fraction(v) for v in row] for row in (arr.k, arr.k_iq[1], arr.pq))
    kM = [a * b for a, b in zip(k, ys)]
    # the terms of dx, of dM_0..dM_imax and of dflux
    terms = [[Fraction(alpha)] + [-x * v for v in kM] + [a * b for a, b in zip(iq, ys)]]
    terms += [[x * kM[j - 1], -x * kM[j], -pq[j] * ys[j]] for j in range(1, L - 1)]
    terms[1].append(Fraction(r))
    terms.append([(L - 2) * x * kM[-2]])
    absolute = (x + 1) * (L + 2) * _HALF_SUBNORMAL
    for j, (value, parts) in enumerate(zip(got, terms)):
        scale = sum(abs(t) for t in parts)
        if not math.isfinite(value):
            assert scale * (1 + c_eps) >= Fraction(sys.float_info.max), j
            continue
        assert abs(Fraction(value) - sum(parts)) <= c_eps * scale + absolute, j


_REFERENCE_RUNS = [
    # piecewise relaxation to the lower root, as in the relax workload
    (FAM, 0.2, initial_state(30), 500.0),
    # stiff power-law truncation (q_i = i^1.355 at the top)
    (PowerLawFamily.from_ab(1.355, -0.385), 0.153, initial_state(16), 200.0),
]


@pytest.mark.parametrize("fam, alpha, start, t_end", _REFERENCE_RUNS,
                         ids=["piecewise", "stiff_power_law"])
def test_integrate_matches_the_reference_callbacks(monkeypatch, fam, alpha, start, t_end):
    buffered = integrate(fam, alpha, 1.0, start, t_end)
    monkeypatch.setattr(dynamics, "_rhs_kernel", _reference_rhs_kernel)
    monkeypatch.setattr(dynamics, "_jacobian_kernel", _reference_jacobian_kernel)
    reference = integrate(fam, alpha, 1.0, start, t_end)
    assert _bits(buffered) == _bits(reference)


def test_integration_error_matches_the_reference_callbacks(monkeypatch):
    # tolerances below what doubles resolve stop the run part way; the
    # reported time depends on every step taken before it
    with pytest.raises(IntegrationError, match="Excess accuracy") as buffered:
        integrate(FAM, 0.2, 1.0, initial_state(20), 100.0, tol=1e-300)
    monkeypatch.setattr(dynamics, "_rhs_kernel", _reference_rhs_kernel)
    monkeypatch.setattr(dynamics, "_jacobian_kernel", _reference_jacobian_kernel)
    with pytest.raises(IntegrationError) as reference:
        integrate(FAM, 0.2, 1.0, initial_state(20), 100.0, tol=1e-300)
    assert str(buffered.value) == str(reference.value)


def _odepack_with(monkeypatch, odeint):
    """Make integrate's solver the given stand-in for _odepack().odeint."""
    monkeypatch.setattr(dynamics, "_odepack", lambda: SimpleNamespace(odeint=odeint))


def test_work_counts_are_the_callback_calls(monkeypatch):
    real_odeint = dynamics._odepack().odeint
    calls = {"f": 0, "jac": 0}

    def counting_odeint(func, y0, t, args, Dfun, *rest):
        def f(*args):
            calls["f"] += 1
            return func(*args)

        def jac(*args):
            calls["jac"] += 1
            return Dfun(*args)

        return real_odeint(f, y0, t, args, jac, *rest)

    _odepack_with(monkeypatch, counting_odeint)
    for fam, alpha, start, t_end in _REFERENCE_RUNS:
        calls.update(f=0, jac=0)
        summary = integrate(fam, alpha, 1.0, start, t_end)
        assert summary.rhs_evals == calls["f"]
        assert summary.jac_evals == calls["jac"] > 0
        assert 0 < summary.solver_steps <= summary.rhs_evals


def _public_odeint_agrees(import_first: bool) -> None:
    """integrate through _odepack against integrate through the public
    scipy.integrate.odeint, called with the keywords integrate once passed
    it; scipy.integrate is imported before the first integrate or after it.
    Runs in a fresh interpreter (see the test below)."""
    if import_first:
        import scipy.integrate
    before = [integrate(fam, alpha, 1.0, start, t_end)
              for fam, alpha, start, t_end in _REFERENCE_RUNS]
    with pytest.raises(IntegrationError) as tiny_tol:
        integrate(FAM, 0.2, 1.0, initial_state(20), 100.0, tol=1e-300)
    if not import_first:
        assert "scipy.integrate" not in sys.modules
        import scipy.integrate
    assert dynamics._odepack() is sys.modules["scipy.integrate._odepack"]

    istates = {message: istate for istate, message in dynamics._ODEINT_MESSAGES.items()}
    istates["Integration successful."] = 2

    def public_odeint(tol):
        def odeint(func, y0, t, args, Dfun, *rest):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", scipy.integrate.ODEintWarning)
                ys, info = scipy.integrate.odeint(
                    func, y0, t, Dfun=Dfun, tfirst=True, full_output=True,
                    rtol=tol, atol=max(tol * 1e-3, 1e-14), hmax=(t[-1] - t[0]) / 200,
                    mxstep=np.iinfo(np.int32).max)
            return ys, info, istates[info["message"]]
        return odeint

    with pytest.MonkeyPatch.context() as monkeypatch:
        _odepack_with(monkeypatch, public_odeint(1e-12))
        for got, (fam, alpha, start, t_end) in zip(before, _REFERENCE_RUNS):
            assert _bits(got) == _bits(integrate(fam, alpha, 1.0, start, t_end))
        _odepack_with(monkeypatch, public_odeint(1e-300))
        with pytest.raises(IntegrationError) as public:
            integrate(FAM, 0.2, 1.0, initial_state(20), 100.0, tol=1e-300)
    assert "Excess accuracy requested (tolerances too small)." in str(tiny_tol.value)
    assert str(tiny_tol.value) == str(public.value)


@pytest.mark.parametrize("import_first", [True, False], ids=["imported_before", "imported_after"])
def test_private_odeint_call_is_the_public_one(import_first):
    # integrate calls scipy's private LSODA extension; a scipy that moves it
    # or changes its arguments, results or messages fails here
    tests = Path(__file__).resolve().parent
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        (str(Path(dynamics.__file__).resolve().parent.parent), str(tests))))
    code = f"import test_dynamics; test_dynamics._public_odeint_agrees({import_first})"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, timeout=120)
    assert out.returncode == 0, out.stderr[-3000:]


def test_samples_are_the_max_step_grid():
    # a run started at t = 5; a stiff run that settles by t_end but whose
    # norm still exceeds the threshold early in the window; a supercritical run
    cases = [
        (FAM, 0.2, SystemState(t=5.0, x=0.0, M=np.zeros(31)), 505.0, True),
        (PowerLawFamily.from_ab(1.355, -0.385), 0.153, initial_state(16), 200.0, False),
        (FAM, 0.3, initial_state(60), 300.0, False),
    ]
    norms = []
    for fam, alpha, start, t_end, converged in cases:
        summary = integrate(fam, alpha, 1.0, start, t_end)
        assert np.array_equal(summary.t, np.linspace(start.t, t_end, 201))
        assert summary.n_steps == 201
        assert summary.final.t == t_end
        assert summary.converged == bool(np.all(summary.rhs_norm_series[-100:] <= 1e-10))
        assert summary.converged == converged
        norms.append(summary.rhs_norm_series)
    assert norms[1][101] > 1e-10 >= norms[1][-1]


def test_solver_failure_raises_without_warning(monkeypatch):
    def failing_odeint(func, y0, t, *rest):
        # fails in the fourth interval; odeint leaves later entries unset
        tcur = np.full(len(t) - 1, 1e296)
        tcur[:3] = t[1:4]
        tcur[3] = 0.1875
        return np.zeros((len(t), len(y0))), {"tcur": tcur}, -5

    _odepack_with(monkeypatch, failing_odeint)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(IntegrationError, match=r"t=0\.1875: Repeated convergence"):
            integrate(FAM, 0.2, 1.0, initial_state(5), 10.0)


def test_long_horizon_is_not_step_capped():
    # each sample interval spans 100 time units; odeint's default cap of
    # 500 steps per interval fails this run in its first interval
    summary = integrate(FAM, 0.2, 1.0, initial_state(200), 20000.0)
    assert summary.converged
    assert summary.final.x == pytest.approx(GOLDEN_LO, abs=1e-8)


def test_integrate_retains_no_memory():
    # scipy's solve_ivp and ode LSODA keep their work array alive after
    # each call: this loop grows by about 540 KB through solve_ivp
    for _ in range(3):
        integrate(FAM, 0.2, 1.0, initial_state(40), 10.0)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for _ in range(20):
            integrate(FAM, 0.2, 1.0, initial_state(40), 10.0)
        grown = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert grown < 20 * 1024


def test_zero_supply_zero_state_is_fixed():
    summary = integrate(FAM, 0.0, 0.0, initial_state(10), 50.0)
    assert summary.converged
    assert summary.final.x == 0.0
    assert not summary.final.M.any()


def test_zero_inflow_keeps_x_axis_invariant():
    # alpha = 0: x stays exactly 0 and only cohort 0 fills (to r / (p0+q0))
    summary = integrate(FAM, 0.0, 1.0, initial_state(20), 200.0)
    assert summary.converged
    assert summary.final.x == 0.0
    assert summary.final.M[0] == pytest.approx(1.0, abs=1e-9)
    assert abs(summary.final.M[1:]).max() < 1e-9


def test_subcritical_run_lands_on_analytic_root():
    summary = integrate(FAM, 0.2, 1.0, initial_state(60), 2000.0)
    assert summary.converged
    assert summary.rhs_norm_final <= 1e-10
    roots = solve_roots(1.0, 1, 1.0, 0.2).roots
    assert min(abs(summary.final.x - root) for root in roots) < 1e-8
    # starting from x = 0 the flow picks the lower branch
    assert summary.final.x == pytest.approx(GOLDEN_LO, abs=1e-8)


def test_supercritical_run_does_not_settle():
    # inflow above the peak: x climbs through the window with no equilibrium
    # in reach; the truncated system only fakes one on much longer horizons
    summary = integrate(FAM, 0.3, 1.0, initial_state(200), 300.0)
    assert not summary.converged
    assert summary.rhs_norm_final > 1e-6
    assert summary.final.x > 5.0
    n = len(summary.x_series)
    assert summary.x_series[-1] > summary.x_series[n // 2] > summary.x_series[n // 4]


def test_negativity_stays_within_tolerance():
    summary = integrate(FAM, 0.2, 1.0, initial_state(30), 500.0)
    assert summary.max_negativity >= -1e-12
    assert summary.max_negativity <= 0.0


def test_balance_identity_is_algebraic():
    # the loss/boundary bookkeeping cancels exactly; only rounding remains
    for t_end in (5.0, 50.0, 500.0):
        summary = integrate(FAM, 0.2, 1.0, initial_state(40), t_end)
        assert conservation_residual(FAM, 0.2, 1.0, summary.final) < 1e-12


def test_balance_identity_by_finite_differences():
    """Audit x + sum(i M_i) + flux_log against its claimed time derivative.

    Small i_max keeps the top cohort populated, so a wrong boundary
    coefficient (i_max instead of i_max + 1) would shift the derivative
    by k*x*M_top, orders of magnitude above the differencing error.
    """
    h = 1e-3
    s1 = integrate(FAM, 0.3, 1.0, initial_state(5), 5.0).final
    s2 = integrate(FAM, 0.3, 1.0, s1, 5.0 + h).final

    def stock(state):
        return state.x + state.total_load + state.flux_log

    def drain(state):
        # sum over i of i * p_i * M_i; here p_i = 1 only for i <= 1
        return state.M[1]

    fd = (stock(s2) - stock(s1)) / h
    claimed = 0.3 - 0.5 * (drain(s1) + drain(s2))
    mismatch = abs(fd - claimed)
    wrong_boundary_shift = s1.x * s1.M[-1]  # k = 1
    assert mismatch < 1e-6
    assert wrong_boundary_shift > 100.0 * mismatch


def test_truncation_insensitivity_via_flux_log():
    # doubling the truncation moves the answer by less than 10x the
    # integrated boundary flux of the shorter system
    short = integrate(FAM, 0.2, 1.0, initial_state(20), 2000.0)
    long = integrate(FAM, 0.2, 1.0, initial_state(40), 2000.0)
    assert short.converged and long.converged
    shift = abs(short.final.x - long.final.x)
    assert short.final.flux_log > 0.0
    assert shift < 10.0 * short.final.flux_log


def test_equilibrium_profile_is_stationary():
    prof = cohort_profile(FAM, GOLDEN_LO, 1.0, 40)
    norm, budget = equilibrium_residual(FAM, 0.2, 1.0, prof)
    assert norm <= budget
    state = state_from_profile(prof, 60)
    assert state.i_max == 60
    assert state.M[41:].tolist() == [0.0] * 20
    d = _rhs_kernel(_Arrays(FAM, state.i_max), 0.2, 1.0)(state.t, _state_vector(state))
    assert abs(d[0]) < 1e-10


def test_state_accessors():
    state = initial_state(4, x=2.0)
    assert state.i_max == 4
    assert state.x == 2.0
    assert state.total_cells == 0.0
    st2 = state_from_profile(cohort_profile(FAM, 1.0, 1.0, 4), 4)
    assert st2.total_cells == pytest.approx(st2.M.sum())
    assert st2.total_load == pytest.approx(float(np.arange(5) @ st2.M))


class TestValidation:
    def test_horizon_must_advance(self):
        with pytest.raises(DomainError):
            integrate(FAM, 0.2, 1.0, initial_state(5), 0.0)

    def test_tolerance_ceiling(self):
        with pytest.raises(DomainError):
            integrate(FAM, 0.2, 1.0, initial_state(5), 10.0, tol=1e-3)

    def test_negative_rates_rejected(self):
        with pytest.raises(DomainError):
            integrate(FAM, -0.1, 1.0, initial_state(5), 10.0)
        with pytest.raises(DomainError):
            integrate(FAM, 0.1, -1.0, initial_state(5), 10.0)

    def test_truncation_floor(self):
        with pytest.raises(DomainError):
            initial_state(0)

    def test_truncation_must_be_an_integer(self):
        with pytest.raises(DomainError, match="integer"):
            initial_state(2.5)
        with pytest.raises(DomainError, match="integer"):
            state_from_profile(cohort_profile(FAM, 1.0, 1.0, 4), 2.5)

    @pytest.mark.parametrize("start", [
        SystemState(t=0.0, x=float("nan"), M=np.zeros(5)),
        SystemState(t=0.0, x=0.0, M=np.array([0.0, float("nan"), 0.0, 0.0, 0.0])),
        SystemState(t=0.0, x=float("inf"), M=np.zeros(5)),
        SystemState(t=0.0, x=0.0, M=np.zeros(5), flux_log=float("nan")),
        SystemState(t=float("nan"), x=0.0, M=np.zeros(5)),
        SystemState(t=-1.0, x=0.0, M=np.zeros(5)),
        SystemState(t=0.0, x=-0.5, M=np.zeros(5)),
        SystemState(t=0.0, x=0.0, M=np.array([0.0, -1e-6, 0.0, 0.0, 0.0])),
    ], ids=["nan_x", "nan_cohort", "inf_x", "nan_flux", "nan_t", "negative_t",
            "negative_x", "negative_cohort"])
    def test_invalid_initial_state_rejected(self, start):
        # a NaN x or cohort used to run to t_end and return converged=False
        with pytest.raises(DomainError, match="initial"):
            integrate(PiecewiseConstantFamily(1, 1), 0.2, 1.0, start, 10.0)

    def test_state_within_the_negativity_tolerance_continues(self):
        # a final state may hold components down to -1e-12, and integrate
        # accepts any state it returns
        start = SystemState(t=0.0, x=0.0, M=np.array([0.0, -1e-13, 0.0, 0.0, 0.0]))
        assert integrate(FAM, 0.2, 1.0, start, 10.0).final.t == 10.0


def test_non_finite_samples_raise(monkeypatch):
    def nan_odeint(func, y0, t, *rest):
        # a run that reports success but leaves NaN from the third sample on
        ys = np.zeros((len(t), len(y0)))
        ys[2:, 0] = np.nan
        return ys, {"nst": [1], "nfe": [1], "nje": [1]}, 2

    _odepack_with(monkeypatch, nan_odeint)
    with pytest.raises(IntegrationError, match=r"not finite at t=0\.1\b"):
        integrate(FAM, 0.2, 1.0, initial_state(5), 10.0)


def test_import_leaves_scipy_integrate_unloaded():
    # importing quartzeq loads no scipy module (scipy.special is imported
    # inside h10_closed_form); integrating, and the simulate verb, load
    # scipy's LSODA extension and none of scipy's heavy subpackages
    src = str(Path(dynamics.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src)
    code = ("import sys, quartzeq; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, timeout=60, check=True)
    assert out.stdout.strip() == "[]"

    code = """if True:
        import contextlib, io, sys
        from quartzeq import PiecewiseConstantFamily, initial_state, integrate
        from quartzeq.cli import main
        integrate(PiecewiseConstantFamily(1.0, 1), 0.2, 1.0, initial_state(20), 100.0)
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(["simulate", "--family", "piecewise", "--k", "1", "--N", "2",
                         "--alpha", "0.2", "--r", "1", "--imax", "20", "--t-end", "100"]) == 0
        heavy = ("scipy.integrate", "scipy.special", "scipy.sparse", "scipy.optimize",
                 "scipy.linalg")
        print(sorted(m for m in sys.modules if m.startswith(heavy)))
    """
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, timeout=60, check=True)
    assert out.stdout.strip() == "['scipy.integrate._odepack']"
