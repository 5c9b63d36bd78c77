"""Certified evaluation of the equilibrium cohort series.

At an equilibrium with free-dust level x > 0 and supply r, the cohort
sizes are

    M_i = r x^i / (k_i * prod_{j=0..i} (x + d_j)),

equivalently k_i M_i = r/(x+d_0) * Q_i with Q_i = prod_{j=1..i} x/(x+d_j).
Every series evaluated here is a nonnegative weighted sum of the Q_i:

    kM  : weight 1            (sum_i k_i M_i, the total uptake flux / x)
    iqM : weight i q_i / k_i  (sum_i i q_i M_i, dust re-released by death)
    H   : weight i rho_i      (drives the equilibrium function)

and the equilibrium function itself is F(x) = H(x) / (x + d_0).

One kernel, blocked_sum, walks the Q_i in blocks once, from i = 1 and
Q_0 = 1, and sums every requested weight in that pass: each sum is
math.fsum of its block sums.  The audits and the direct sums of the
asymptotics module call it too.  Each block reads the family once: one
ratios(idx) call gives the d_i of the factors and the rho_i and g_i of
the weights.  One walk can carry many x, one row each: a
block's factors and weights are computed once for all rows, each row keeps
its own sums and stop test and retires on its own, so every row's result
is bit for bit that of a walk over its x alone.  evaluate computes F, H,
kM or iqM over many x in one such walk, from a table with one recipe per
quantity; evaluate(fam, quantity, [x], r)[0] is the one-x value, and
F_equilibrium the one-x F.

Truncation control: past an index n where the certified step-ratio bound
    s_n = [sup_{i>=n} w_{i+1}/w_i] * x / (x + inf_{i>n} d_i)
drops below 1, the tail is at most t_n * s_n / (1 - s_n).  Reported
tail bounds add a standard floating-point envelope on top of the
truncation bound, so the interval [value - tail_bound, value + tail_bound]
honestly covers the exact sum.

F_equilibrium's cross-check sums the weights 1 and i g_i alongside H and
tests, at the index n where H stopped, the exact finite-n cohort balance

    x (1 + sum_{i<=n} Q_i) - sum_{i<=n} i g_i Q_i
        = sum_{i<=n} i rho_i Q_i + (n+1) x Q_n

against its rounding envelope.  It verifies the summed products and that
d = rho + g; it does not verify the truncation bound, which rests on the
family's ratio certificate alone.  All functions are pure.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .coefficients import CoefficientFamily
from .errors import ConsistencyError, ConvergenceError, DomainError

__all__ = [
    "BoundedValue",
    "EquilibriumProfile",
    "evaluate",
    "F_equilibrium",
    "cohort_profile",
    "audit_G_identity",
    "audit_d_identity",
]

DEFAULT_TOL = 1e-12
DEFAULT_TERM_CAP = 10**6

_EPS = sys.float_info.epsilon
_UNDERFLOW_FLOOR = 2.3e-308  # just above the smallest normal double
_TINY = 2.0**-1074  # spacing of the subnormal doubles
_CHUNK = 2**14  # elements in one (rows x block) temporary of blocked_sum


@dataclass(frozen=True)
class BoundedValue:
    """A numeric result with a certified error bound.

    tail_bound covers both the omitted series tail and the rounding
    envelope of the computed part, so the exact quantity lies in
    [value - tail_bound, value + tail_bound].  The omitted tail of a
    nonnegative series only adds, so the value falls short of the exact
    sum by up to tail_bound but exceeds it only by rounding.
    """

    value: float
    tail_bound: float
    terms_used: int

    def __post_init__(self):
        if not math.isfinite(self.value):
            raise DomainError(f"non-finite series value {self.value}")
        if not (self.tail_bound >= 0.0):
            raise DomainError(f"negative tail bound {self.tail_bound}")


@dataclass(frozen=True)
class EquilibriumProfile:
    """Truncated equilibrium cohort profile M_0..M_n plus a mass tail bound."""

    x: float
    r: float
    M: np.ndarray
    tail_mass_bound: float


class _Walk(NamedTuple):
    sums: tuple[float, ...]  # one partial sum per weight, math.fsum of its block sums
    trunc_tail: float  # truncation bound of the first weight's series
    n: int  # last index summed
    q_n: float  # the running product at n


def blocked_sum(block, stop, xs, tols=None, *, cap: int,
                name: str = "series") -> list[_Walk]:
    """The certified summation kernel shared by every series in the package.

    Walks Q_i = prod_{j=1..i} f_j(x) over i = 1, ..., from Q_0 = 1, for every
    x in xs (one row each) in blocks of 64 doubling to 8192 indices, and sums
    w_i Q_i for each weight and row: a row keeps its block sums per weight and
    adds them with math.fsum when it retires.  block(idx) does a block's
    per-index work once and returns (fmap, weights): fmap maps x (a 0-d
    array, or a column for many rows) to the factors, and weights holds one
    array over idx per sum (None is the unit weight); the first block fixes
    the number of sums.  Rows share the cumulative product in chunks of at
    most 2^14 elements.

    With stop=None every row ends after index cap.  Otherwise stop(n) maps x
    to a bound s on sup_{i>=n} T_{i+1}/T_i for the terms T_i of the first
    weight's series: 0 when every later term vanishes, >= 1 or inf while no
    bound is known (as for a weight that can still jump from zero).  tols
    holds one tol per x.  A row retires at the first block boundary where
    its tail T_n s / (1 - s) is at most its tol or its Q has underflowed,
    exactly as a walk over its x alone would.  Returns one _Walk per x in
    xs; a row still live at index cap raises ConvergenceError, for the first
    such x, quoting that row's tol.  A tol that is negative or nan, which no
    tail can meet, or a cap below 1 raises DomainError before the walk.
    """
    for tol in tols or ():
        if not tol >= 0.0:
            raise DomainError(f"tol must be >= 0, got {tol}")
    if cap < 1:
        raise DomainError(f"term_cap must be >= 1, got {cap}")
    walks: list[_Walk | None] = [None] * len(xs)
    live = range(len(xs))  # the rows still walking, as indices into xs
    qs = [1.0] * len(xs)  # each row's running product
    parts: list[list[tuple]] = [[] for _ in xs]  # each row's block sums, a tuple per block
    n, size = 0, 64
    while live and n < cap:
        hi = min(n + size, cap)
        fmap, ws = block(np.arange(n + 1, hi + 1))
        bound = None if stop is None else stop(hi)
        chunk = _CHUNK // size
        retired = False
        for rows in ((live,) if len(live) <= chunk else
                     [live[a:a + chunk] for a in range(0, len(live), chunk)]):
            if len(rows) == 1:  # 1-D with a 0-d x: cheaper than a one-row column
                i = rows[0]
                qvals = fmap(np.array(xs[i], dtype=float)).cumprod()
                if n:  # the first block starts from Q_0 = 1
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
                    # once Q has underflowed, the true tail is below any usable tol
                    tail = 0.0 if s == 0.0 or q < _UNDERFLOW_FLOOR else t * s / (1.0 - s)
                    if tail <= tols[i]:
                        walks[i] = _Walk(_fsums(parts[i]), tail, hi, q)
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
        walks[i] = _Walk(_fsums(parts[i]), 0.0, n, qs[i])
    return walks


def _fsums(blocks: list[tuple]) -> tuple:
    """math.fsum of each weight's block sums, one tuple per block; a lone
    block's sums are their own fsums."""
    return blocks[0] if len(blocks) == 1 else tuple(map(math.fsum, zip(*blocks)))


def certified(walk: _Walk, pref: float = 1.0, head: float = 0.0,
              start: int = 0) -> BoundedValue:
    """pref * (head + first sum of a walk over nonnegative terms), bounded.

    The tail bound adds to the truncation bound a floating-point envelope:
    cumulative product drift (linear in the index, worst case) plus
    block-pairwise summation error, and a few ulps of the result.
    """
    return BoundedValue(*_certified_pair(walk, pref, head), walk.n - start)


def _certified_pair(walk: _Walk, pref: float = 1.0, head: float = 0.0) -> tuple[float, float]:
    """certified's (value, tail_bound), without building a BoundedValue."""
    total = walk.sums[0]
    value = pref * (head + total)
    envelope = _EPS * (total * pref) * (2.0 * walk.n + 64.0)
    return value, pref * walk.trunc_tail + envelope + 4.0 * _EPS * abs(value)


def _q_block(fam: CoefficientFamily, weights):
    """blocked_sum's block for Q_i: one ratios read gives d and weights(idx, d, rho, g)."""
    def block(idx):
        d, rho, g = fam.ratios(idx)
        return (lambda x: x / (x + d)), weights(idx, d, rho, g)
    return block


def _check_x(x: float) -> float:
    """x as a float, after checking that it is finite and >= 0."""
    if not (math.isfinite(x) and x >= 0.0):
        raise DomainError(f"x must be finite and >= 0, got {x}")
    return float(x)


def _check_r(r: float) -> None:
    if not (math.isfinite(r) and r > 0.0):
        raise DomainError(f"r must be finite and positive, got {r}")


def _finish_sum(walk: _Walk, denom: float, pref: float) -> BoundedValue:
    return certified(walk, pref)


def _finish_F(walk: _Walk, denom: float, pref: float) -> BoundedValue:
    """F = H / (x + d_0), with H and its bound as certified(walk) gives them."""
    h, h_tail = _certified_pair(walk)
    value = h / denom
    return BoundedValue(value, h_tail / denom + 4.0 * _EPS * abs(value), walk.n)


class _Recipe(NamedTuple):
    """How evaluate walks one quantity and finishes each row; the sums past the
    first feed F's cross-check."""

    weights: tuple[int | None, ...]  # per sum, i times (d, rho, g)[k], or 1 for None
    ratio_sup: Callable[[CoefficientFamily, int], float]  # of the first weight
    name: str  # the series a ConvergenceError names
    scaled: bool  # checks r and scales tol by pref = r / (x + d_0), else pref = 1
    at_zero: Callable[[CoefficientFamily, float], BoundedValue]  # fam, r
    finish: Callable[[_Walk, float, float], BoundedValue]  # walk, x + d_0, pref


_RECIPES = {
    "F": _Recipe((1, None, 2), lambda fam, n: fam.irho_ratio_sup(n), "H_series", False,
                 lambda fam, r: BoundedValue(0.0, 0.0, 0), _finish_F),
    "H": _Recipe((1,), lambda fam, n: fam.irho_ratio_sup(n), "H_series", False,
                 lambda fam, r: BoundedValue(0.0, 0.0, 0), _finish_sum),
    # Q_0 = 1 is the head of the flux series and counts as a term
    "kM": _Recipe((None,), lambda fam, n: 1.0, "sum_kM", True,
                  lambda fam, r: BoundedValue(r * fam.k0 / (fam.p0 + fam.q0), 0.0, 1),
                  lambda walk, denom, pref: certified(walk, pref, head=1.0, start=-1)),
    "iqM": _Recipe((2,), lambda fam, n: fam.iq_ratio_sup(n), "sum_iqM", True,
                   lambda fam, r: BoundedValue(0.0, 0.0, 1), _finish_sum),
}


def evaluate(fam: CoefficientFamily, quantity: str, xs, r: float = 1.0, *,
             tol: float = DEFAULT_TOL, term_cap: int = DEFAULT_TERM_CAP,
             cross_check: bool = True) -> list[BoundedValue]:
    """F, H, kM (sum_i k_i M_i) or iqM (sum_i i q_i M_i) at every x in xs, from
    one walk: row k is, bit for bit, the one-x call evaluate(fam, quantity,
    [xs[k]], r)[0]; r scales kM and iqM only, and their tol the scaled sum.
    Every x, then r where it scales, is checked before the walk, and a
    ConvergenceError is the one-x error at the first x that fails.  Then, in
    the order of xs, a row with a sum that is not finite (a weight past the
    doubles) raises ConvergenceError, and with cross_check F's rows are
    balance-checked.
    """
    recipe = _RECIPES.get(quantity)
    if recipe is None:
        raise DomainError(f"unknown quantity {quantity!r}; "
                          f"expected one of {sorted(_RECIPES)}")
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
    picks = recipe.weights if cross_check else recipe.weights[:1]

    def stop(n):
        sup = recipe.ratio_sup(fam, n)
        if not 0.0 < sup < math.inf:
            return lambda x: sup
        d = fam.d_inf_beyond(n)
        return lambda x: sup * x / (x + d)

    block = _q_block(fam, lambda idx, *drg: [None if k is None else idx * drg[k]
                                             for k in picks])
    walks = blocked_sum(block, stop, pos, tols, cap=term_cap, name=recipe.name)
    for x, walk in zip(pos, walks):
        # the balance test cannot see a nan: inf * 0 from a weight past the doubles
        if not all(map(math.isfinite, walk.sums)):
            raise ConvergenceError(f"{recipe.name} is not finite at x={x} within "
                                   f"{walk.n} terms: a term passed the doubles",
                                   series=recipe.name, x=x, terms_used=walk.n)
        if len(picks) > 1:
            _check_balance(fam, x, walk)
    rows = map(recipe.finish, walks, denoms, prefs)
    if pos is xs:
        return list(rows)
    return [next(rows) if x > 0.0 else recipe.at_zero(fam, r) for x in xs]


def F_equilibrium(fam: CoefficientFamily, x: float, *,
                  tol: float = DEFAULT_TOL, term_cap: int = DEFAULT_TERM_CAP,
                  cross_check: bool = True) -> BoundedValue:
    """Equilibrium function F(x) = H(x) / (x + d_0).

    An equilibrium with dust inflow alpha and cell supply r exists at x
    iff F(x) = alpha/r.  Evaluated through the all-nonnegative H form.

    With cross_check, the same pass also sums S1_n = sum_{i<=n} Q_i and
    Siq_n = sum_{i<=n} i g_i Q_i up to the index n where H stopped, and
    the cohort balance

        x (1 + S1_n) - Siq_n = H_n + (n+1) x Q_n

    (the cohort equations multiplied by i and summed, exact at every
    finite n) must hold within its rounding envelope, or ConsistencyError
    is raised.  That verifies the summed products against d and that the
    family's ratios have d = rho + g.  It does not verify the
    truncation bound of the omitted tail, which rests on the family's
    ratio certificate (irho_ratio_sup, d_inf_beyond).
    """
    return evaluate(fam, "F", [x], tol=tol, term_cap=term_cap,
                    cross_check=cross_check)[0]


def _check_balance(fam: CoefficientFamily, x: float, walk: _Walk) -> None:
    """Raise ConsistencyError unless the finite-n cohort balance holds.

    The envelope is first order in the unit roundoff eps/2: each Q_i
    carries at most 3i roundings (sum, quotient, running product) plus one
    per block, each weight and term up to 4, each block sum up to
    log2(8192) + 1 = 14 and each family's d against rho + g up to 4, so
    every summed magnitude is off by at most (3n + 32) eps/2.  Counted in
    eps it has a factor 2 of headroom.  Below the normal range roundings are
    absolute, at most _TINY each, on terms weighted by at most x + n d_n.
    """
    h_n, s1_n, siq_n = walk.sums
    n = walk.n
    inflow = x * (1.0 + s1_n)
    outflow = h_n + (n + 1) * x * walk.q_n
    rounds = 3.0 * n + 32.0
    residual = abs(inflow - siq_n - outflow)
    budget = _EPS * rounds * (inflow + siq_n + outflow)
    if residual > budget:
        # d_n costs an array call, so it is read only when the absolute part counts
        d_n = float(fam.d_values(np.array([n]))[0])
        budget += _TINY * rounds * (n + 1) * (1.0 + x + n * d_n)
    if residual > budget:
        raise ConsistencyError(
            f"cohort balance fails at x={x}, n={n}: x(1 + S1) - Siq = "
            f"{inflow - siq_n!r} vs H + (n+1) x Q_n = {outflow!r}, budget {budget!r}"
        )


def cohort_profile(fam: CoefficientFamily, x: float, r: float, n: int) -> EquilibriumProfile:
    """Equilibrium cohorts M_0..M_n by the stable forward recursion.

    M_0 = r / (k_0 x + p_0 + q_0), then
    M_i = M_{i-1} * k_{i-1} x / (k_i x + p_i + q_i).  Indices whose value
    underflows below the normal range are truncated and folded into
    tail_mass_bound.
    """
    _check_x(x)
    _check_r(r)
    if n < 0:
        raise DomainError(f"n must be >= 0, got {n}")
    k, p, q = (v.tolist() for v in fam.rates_through(n))
    denom0 = k[0] * x + p[0] + q[0]
    if denom0 <= 0.0:
        raise DomainError("k_0 x + p_0 + q_0 must be positive")
    m = [r / denom0]
    if x > 0.0:
        for i in range(1, n + 1):
            num = k[i - 1] * x * m[-1]
            den = k[i] * x + p[i] + q[i]
            mi = num / den
            if mi < _UNDERFLOW_FLOOR:
                break
            m.append(mi)
    arr = np.array(m)
    n_kept = len(m) - 1
    last = m[-1]
    if x == 0.0:
        tail = 0.0
    else:
        s = fam.m_ratio_sup(n_kept) * x / (x + fam.d_inf_beyond(n_kept))
        tail = last * s / (1.0 - s) if s < 1.0 else math.inf
    return EquilibriumProfile(x=x, r=r, M=arr, tail_mass_bound=tail)


def audit_G_identity(fam: CoefficientFamily, x: float, n_terms: int) -> tuple[float, float]:
    """Check the telescoping identity 1 - S_n = (n+1) Q_n.

    S_n = (1/x) sum_{i<=n} (i d_i - x) prod_{j<=i} x/(x+d_j).  Returns
    (S_n, |1 - S_n - (n+1) Q_n|).  At x = 0 every term vanishes and the
    identity is trivially satisfied, so (0, 0) is returned.
    """
    _check_x(x)
    if n_terms < 1:
        raise DomainError(f"n_terms must be >= 1, got {n_terms}")
    if x == 0.0:
        return 0.0, 0.0
    walk = blocked_sum(_q_block(fam, lambda idx, d, rho, g: ((idx * d - x) / x,)),
                       None, [x], cap=n_terms)[0]
    s = walk.sums[0]
    return s, abs(1.0 - s - (n_terms + 1) * walk.q_n)


def audit_d_identity(fam: CoefficientFamily, x: float, n_terms: int) -> tuple[float, float]:
    """Check sum_{i<=n} d_i prod_{j<=i} x/(x+d_j) = x - x Q_n.

    Returns (partial_sum, |partial_sum + x Q_n - x|); (0, 0) at x = 0.
    """
    _check_x(x)
    if n_terms < 1:
        raise DomainError(f"n_terms must be >= 1, got {n_terms}")
    if x == 0.0:
        return 0.0, 0.0
    walk = blocked_sum(_q_block(fam, lambda idx, d, rho, g: (d,)), None, [x],
                       cap=n_terms)[0]
    s = walk.sums[0]
    return s, abs(s + x * walk.q_n - x)
