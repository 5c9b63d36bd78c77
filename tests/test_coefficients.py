"""Coefficient family contracts: derived rates, tail infima, config round-trips."""

import ast
import json
import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from quartzeq import coefficients
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
                assert (fam.d_inf_beyond(n), fam.step_sup("k", n), fam.step_sup("g", n),
                        fam.step_sup("rho", n)) == closed


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
    _tables.map(lambda kpq: TabulatedFamily(*kpq)),
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


@pytest.mark.parametrize("a,b,n", [(0.05, -1.0, 0), (0.05, -1.0, 15), (0.3, -1.9, 0),
                                   (0.01, -0.5, 0), (0.01, -0.5, 2000)])
def test_tail_infimum_at_an_interior_minimum(a, b, n):
    """For a > 0 > b, t^a + t^b is least at t* = (-b/a)^(1/(a-b)); past
    n + 1 the infimum over i > n is taken next to t*, as a brute-force
    minimum over i up to 10 t* (beyond t* the sum only grows) confirms."""
    fam = PowerLawFamily.from_ab(a, b)
    assert fam.t_star > n + 1
    brute = min(i**a + i**b for i in range(n + 1, int(10 * fam.t_star) + 2))
    assert brute * (1.0 - 2.0**-49) <= fam.d_inf_beyond(n) <= brute


@given(_any_family, st.integers(1, 2000), st.floats(-3.0, 8.0))
def test_ratio_sups_cover_weight_growth(fam, n, log10_x):
    """step_sup dominates every step w_{i+1}/w_i at i >= n, and step_bound
    every term ratio T_{i+1}/T_i = (w_{i+1}/w_i) x/(x + d_{i+1}), for the
    unit weight, i rho_i, i g_i and 1/k_i over the 32 indices from n."""
    idx = np.arange(n, n + 33)
    x = 10.0 ** log10_x
    k = fam.rates(idx)[0]
    d, rho, g = fam.ratios(idx)
    for weight, w in ((None, np.ones(len(idx))), ("rho", idx * rho), ("g", idx * g),
                      ("k", 1.0 / k)):
        sup = 1.0 if weight is None else fam.step_sup(weight, n)
        s = fam.step_bound(weight, n)(x)
        if np.any((w[:-1] == 0.0) & (w[1:] > 0.0)):
            assert sup == s == math.inf
        live = w[:-1] > 0.0
        with np.errstate(over="ignore"):  # a step past the doubles needs an inf sup
            steps = w[1:][live] / w[:-1][live]
        assert np.all(steps <= sup * (1 + 1e-12))
        assert np.all(steps * (x / (x + d[1:][live])) <= s * (1 + 1e-12))


def _reference_power_law_sups(fam, n):
    """The power-law ratio sups (k, g, rho) at n >= 1 as the family once
    wrote one hook per weight."""
    m = ((n + 1.0) / n) ** fam.k_exp
    iq = ((n + 1.0) / n) ** (1.0 + fam.a)
    s = 1.0 + fam.b
    irho = 1.0 if s <= 0.0 else ((n + 1.0) / n) ** s
    return m, iq, irho


def _reference_table_sups(fam, n):
    """The table's ratio sups (k, g, rho) as the per-weight hooks computed
    them, in plain Python: the largest step at i >= n within the table, and
    past it the step of the constant tail."""
    k, p, q = fam._kpq.tolist()
    top = len(k) - 1
    m_steps = [k[i] / k[i + 1] for i in range(top)] + [1.0]
    sups = [max(m_steps[min(n, top):])]
    for v in ([gi / ki for gi, ki in zip(q, k)], [pi / ki for pi, ki in zip(p, k)]):
        v = v + v[-1:]
        steps = [(math.inf if v[i + 1] > 0.0 else 0.0) if i == 0 or v[i] == 0.0
                 else ((i + 1) / i) * (v[i + 1] / v[i]) for i in range(top + 1)]
        if n <= top:
            sups.append(max(steps[n:]))
        else:
            sups.append((n + 1.0) / n if v[-1] > 0.0 else 0.0)
    return tuple(sups)


def test_step_sup_equals_the_per_weight_hooks():
    """One weight-keyed hook gives, bit for bit, the sups the three
    per-weight hooks gave, at every n in 0..5,000 of random families of each
    kind; at n = 0 the power law's i rho and i g jump from w_0 = 0."""
    rng = np.random.default_rng(23)
    for _ in range(4):
        a = float(rng.uniform(0.0, 3.0))
        n_pw = int(rng.integers(0, 40))
        length = int(rng.integers(1, 30))
        kpq = [np.sort(rng.uniform(0.1, 10.0, length))[::-1],
               np.sort(rng.uniform(0.01, 5.0, length))[::-1], rng.uniform(0.0, 5.0, length)]
        kpq[2][rng.random(length) < 0.3] = 0.0
        power_law = PowerLawFamily.from_ab(a, a - float(rng.uniform(0.0, 5.0)),
                                           k0=float(rng.uniform(0.1, 3.0)))
        cases = [(power_law, _reference_power_law_sups),
                 (PiecewiseConstantFamily(float(rng.uniform(0.01, 100.0)), n_pw),
                  _reference_table_sups),
                 (TabulatedFamily(*kpq), _reference_table_sups)]
        for fam, reference in cases:
            for n in range(5001):
                got = tuple(fam.step_sup(w, n) for w in ("k", "g", "rho"))
                if n == 0 and reference is _reference_power_law_sups:
                    assert got == (max(fam.k0, 2.0 ** fam.k_exp), math.inf, math.inf)
                else:
                    assert got == reference(fam, n), (fam, n)


def test_coefficients_imports_no_sibling_but_errors():
    """The families sit below every other module: their input checks come
    from errors, so building a family loads no solver."""
    tree = ast.parse(open(coefficients.__file__).read())
    siblings = [node.module for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) and node.level > 0]
    assert siblings == ["errors"]
