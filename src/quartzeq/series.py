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
math.fsum of its block sums.  The identity audit and the direct sums of
the asymptotics module call it too.  Each block reads the family once: one
ratios(idx) call gives the stacked block [d; rho; g], d for the factors and
i [rho; g] as the weights of one product.  One walk can carry many x: a
block's factors and weights are computed once for all rows, each row keeps
its own sums and stop test and retires on its own, so every row's result
is bit for bit that of a walk over its x alone.  evaluate computes F, H,
kM or iqM over many x in one such walk, from a table with one recipe per
quantity; evaluate(fam, quantity, [x], r)[0] is the one-x value, and
F_equilibrium the one-x F.

Truncation control: past an index n where the family's certified step
bound (CoefficientFamily.step_bound)
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
family's step bound alone.  All functions are pure.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .coefficients import CoefficientFamily
from .errors import ConsistencyError, ConvergenceError, DomainError, QuartzeqError, _check_r, _check_x

__all__ = [
    "BoundedValue",
    "EquilibriumProfile",
    "evaluate",
    "F_equilibrium",
    "cohort_profile",
    "identity_audit",
    "DEFAULT_TOL",
    "DEFAULT_TERM_CAP",
]

DEFAULT_TOL = 1e-12
DEFAULT_TERM_CAP = 10**6

_EPS = sys.float_info.epsilon
_UNDERFLOW_FLOOR = 2.3e-308  # just above the smallest normal double
_TINY = 2.0**-1074  # spacing of the subnormal doubles
_CHUNK = 2**14  # elements in one (rows x block) temporary of blocked_sum
_cumprod = np.multiply.accumulate  # ndarray.cumprod's products, without its method call


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
            raise QuartzeqError(f"non-finite series value {self.value}")
        if not (self.tail_bound >= 0.0):
            raise QuartzeqError(f"negative tail bound {self.tail_bound}")


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


def blocked_sum(block, xs, tols=None, *, cap: int, unit: bool = False,
                name: str = "series") -> list[_Walk]:
    """The certified summation kernel shared by every series in the package.

    Walks Q_i = prod_{j=1..i} f_j(x) over i = 1, ..., from Q_0 = 1, for every
    x in xs (one row each) in blocks of 64 doubling to 8192 indices, and sums
    w_i Q_i for each weight and row: a row keeps its block sums per weight and
    adds them with math.fsum when it retires.  block(idx, hi), hi = idx[-1],
    does a block's per-index work once and returns (fmap, weights, bound):
    fmap maps x (a float, or a column for many rows) to the factors; weights
    is None or a 2-D array with one row over idx per sum, and with unit the
    walk also sums the unit weight, after them; bound is None without tols,
    else it maps x to a bound s on sup_{i>=hi} T_{i+1}/T_i for the terms T_i
    of the first sum: 0 when every later term vanishes, >= 1 or inf while no
    bound is known (as for a weight that can still jump from zero).  Rows
    share the cumulative product in chunks of at most 2^14 elements.

    Without tols every row ends after index cap.  Otherwise tols holds one
    tol per x, and a row retires at the first block boundary where its tail
    T_n s / (1 - s) is at most its tol or its Q has underflowed, exactly as a
    walk over its x alone would.  Returns one _Walk per x in xs; a row still
    live at index cap raises ConvergenceError, for the first such x, quoting
    that row's tol.  A tol that is negative or nan, which no tail can meet,
    or a cap below 1 raises DomainError before the walk.
    """
    for tol in tols or ():
        if not tol >= 0.0:
            raise DomainError(f"tol must be >= 0, got {tol}")
    if cap < 1:
        raise DomainError(f"term_cap must be >= 1, got {cap}")
    if len(xs) == 1:  # one row, straight-line: 1-D with a float x
        x, parts, q, n, size = float(xs[0]), [], 1.0, 0, 64
        while n < cap:
            hi = min(n + size, cap)
            fmap, ws, bound = block(np.arange(n + 1, hi + 1), hi)
            qvals = _cumprod(fmap(x))
            if n:  # the first block starts from Q_0 = 1
                qvals = q * qvals
            sums = [] if ws is None else np.add.reduce(terms := ws * qvals, -1).tolist()
            if unit:
                sums.append(float(np.add.reduce(qvals)))
            parts.append(tuple(sums))
            q = qvals.item(-1)
            s = bound(x) if bound else math.inf
            if s < 1.0:
                # once Q has underflowed, the true tail is below any usable tol;
                # the last term is Q_n itself when the unit weight is the only sum
                tail = 0.0 if s == 0.0 or q < _UNDERFLOW_FLOOR else (
                    q if ws is None else terms.item(0, -1)) * s / (1.0 - s)
                if tail <= tols[0]:
                    return [_Walk(_fsums(parts), tail, hi, q)]
            n, size = hi, min(size * 2, 8192)
        walks, live, qs, parts = [None], [0], [q], [parts]  # at cap: the shared end below
    else:
        walks = [None] * len(xs)
        live = range(len(xs))  # the rows still walking, as indices into xs
        qs = [1.0] * len(xs)  # each row's running product
        parts = [[] for _ in xs]  # each row's block sums, a tuple per block
        n, size = 0, 64
    while live and n < cap:
        hi = min(n + size, cap)
        fmap, ws, bound = block(np.arange(n + 1, hi + 1), hi)
        chunk = _CHUNK // size
        retired = False
        for rows in ((live,) if len(live) <= chunk else
                     [live[a:a + chunk] for a in range(0, len(live), chunk)]):
            x_c = np.array([xs[i] for i in rows], dtype=float)[:, None]
            qvals = _cumprod(fmap(x_c), -1)
            if n:
                qvals = np.array([qs[i] for i in rows])[:, None] * qvals
            cols, first = [], qvals
            if ws is not None:
                terms = ws[:, None] * qvals
                cols, first = np.add.reduce(terms, -1).tolist(), terms[0]
            if unit:
                cols.append(np.add.reduce(qvals, -1).tolist())
            t_n = first[:, -1].tolist() if bound else [0.0] * len(rows)
            for i, row_sums, q, t in zip(rows, zip(*cols), qvals[:, -1].tolist(), t_n):
                parts[i].append(row_sums)
                qs[i] = q
                s = bound(xs[i]) if bound else math.inf
                if s < 1.0:
                    tail = 0.0 if s == 0.0 or q < _UNDERFLOW_FLOOR else t * s / (1.0 - s)
                    if tail <= tols[i]:
                        walks[i] = _Walk(_fsums(parts[i]), tail, hi, q)
                        retired = True
        if retired:
            live = [i for i in live if walks[i] is None]
        qvals = terms = first = None  # the chunk arrays go before the next block's are made
        n = hi
        size = min(size * 2, 8192)
    if live and tols is not None:
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


def _geometric_tail(t: float, s: float) -> float:
    """Bound on the tail past a term t whose later steps are at most s."""
    return t * s / (1.0 - s) if s < 1.0 else math.inf


def _finish_sum(walk: _Walk, denom: float, pref: float) -> BoundedValue:
    return certified(walk, pref)


def _finish_F(walk: _Walk, denom: float, pref: float) -> BoundedValue:
    """F = H / (x + d_0), with H and its bound as certified(walk) gives them."""
    h, h_tail = _certified_pair(walk)
    value = h / denom
    return BoundedValue(value, h_tail / denom + 4.0 * _EPS * abs(value), walk.n)


class _Recipe(NamedTuple):
    """How evaluate walks one quantity and finishes each row."""

    weights: slice | None  # rows of ratios(idx) whose i-multiples weight the sums; None: 1
    step: str | None  # step_bound's name for the weight of the first sum
    name: str  # the series a ConvergenceError names
    scaled: bool  # checks r and scales tol by pref = r / (x + d_0), else pref = 1
    at_zero: Callable[[CoefficientFamily, float], BoundedValue]  # fam, r
    finish: Callable[[_Walk, float, float], BoundedValue]  # walk, x + d_0, pref


_RECIPES = {
    "F": _Recipe(slice(1, 2), "rho", "H_series", False,
                 lambda fam, r: BoundedValue(0.0, 0.0, 0), _finish_F),
    "H": _Recipe(slice(1, 2), "rho", "H_series", False,
                 lambda fam, r: BoundedValue(0.0, 0.0, 0), _finish_sum),
    # Q_0 = 1 is the head of the flux series and counts as a term
    "kM": _Recipe(None, None, "sum_kM", True,
                  lambda fam, r: BoundedValue(r * fam.k0 / (fam.p0 + fam.q0), 0.0, 1),
                  lambda walk, denom, pref: certified(walk, pref, head=1.0, start=-1)),
    "iqM": _Recipe(slice(2, 3), "g", "sum_iqM", True,
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
    checked = cross_check and quantity == "F"
    # F's cross-check adds the sums of i g_i Q_i and Q_i to H's walk
    weights, step = (slice(1, 3), "rho") if checked else recipe[:2]

    def block(idx, hi):
        drg = fam.ratios(idx)
        d = drg[0]
        return ((lambda x: x / (x + d)), None if weights is None else idx * drg[weights],
                fam.step_bound(step, hi))

    walks = blocked_sum(block, pos, tols, cap=term_cap, unit=checked or weights is None,
                        name=recipe.name)
    for x, walk in zip(pos, walks):
        # the balance test cannot see a nan: inf * 0 from a weight past the doubles
        if not all(map(math.isfinite, walk.sums)):
            raise ConvergenceError(f"{recipe.name} is not finite at x={x} within "
                                   f"{walk.n} terms: a term passed the doubles",
                                   series=recipe.name, x=x, terms_used=walk.n)
        if checked:
            _check_balance(fam, x, walk)
    rows = map(recipe.finish, walks, denoms, prefs)
    if pos is xs:
        return list(rows)
    return [next(rows) if x > 0.0 else recipe.at_zero(fam, r) for x in xs]


def F_equilibrium(fam: CoefficientFamily, x: float, *,
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
    step bound (step_bound("rho", n)).  The tol and term cap are
    evaluate's defaults.
    """
    return evaluate(fam, "F", [x], cross_check=cross_check)[0]


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
    h_n, siq_n, s1_n = walk.sums
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
    tail_mass_bound; at x = 0 all n cohorts past 0 are exact zeros, kept.
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
    for i in range(1, n + 1):
        num = k[i - 1] * x * m[-1]
        den = k[i] * x + p[i] + q[i]
        mi = num / den
        if mi < _UNDERFLOW_FLOOR and x > 0.0:  # at x = 0 the zeros are exact
            break
        m.append(mi)
    # M_i is r/(x+d_0) Q_i/k_i: the weight 1/k
    n_kept = len(m) - 1
    tail = 0.0 if x == 0.0 else _geometric_tail(m[-1], fam.step_bound("k", n_kept)(x))
    return EquilibriumProfile(x=x, r=r, M=np.array(m), tail_mass_bound=tail)


def identity_audit(fam: CoefficientFamily, x: float,
                   n_terms: int) -> tuple[tuple[float, float], tuple[float, float]]:
    """Check two telescoping identities of the Q_i over i <= n = n_terms.

    G: S_n = (1/x) sum_{i<=n} (i d_i - x) Q_i satisfies 1 - S_n = (n+1) Q_n;
    d: D_n = sum_{i<=n} d_i Q_i satisfies D_n = x - x Q_n.  One walk sums
    both.  Returns ((S_n, |1 - S_n - (n+1) Q_n|), (D_n, |D_n + x Q_n - x|)).
    At x = 0 every term vanishes and both identities hold trivially, so
    ((0, 0), (0, 0)) is returned.
    """
    _check_x(x)
    if n_terms < 1:
        raise DomainError(f"n_terms must be >= 1, got {n_terms}")
    if x == 0.0:
        return (0.0, 0.0), (0.0, 0.0)

    def block(idx, hi):
        d = fam.ratios(idx)[0]
        return (lambda x: x / (x + d)), np.array(((idx * d - x) / x, d)), None

    walk = blocked_sum(block, [x], cap=n_terms)[0]
    s, ds = walk.sums
    return (s, abs(1.0 - s - (n_terms + 1) * walk.q_n)), (ds, abs(ds + x * walk.q_n - x))
