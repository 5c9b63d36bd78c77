"""Large-x behavior of the cohort series and their exponential-sum kernels.

Two model sums dominate the analysis:

    R_{a,A}(v) = sum_{i>=1} i^A exp(-v i^{a+1})        as v -> 0+
    K_{a,b}(x) = sum_{i>=1} i^{b+1} prod_{j<=i} x/(x+j^a)   as x -> oo

K controls the equilibrium function of power-law families: with
d_j = j^a + j^b the series H(x) is sandwiched between K(x/2) and K(x),
so the growth exponent of K decides whether equilibria exist for every
inflow or only below a threshold.

R has a complete expansion in powers of v, read off its Mellin residues
(`_R_residues`): a leading v^{-theta} with theta = (A+1)/(a+1), plus
zeta-value corrections; when theta is, within 1e-12, a nonpositive
integer (`_pole_order`, the one pole test) the two residues merge into a
log(1/v) term.  K is expanded by writing the product as
exp(-v i^{a+1} - W_i) with v = 1/((a+1)x).  The log series of W_i needs
the power sums sum_{j<=i} j^{a ell}, which one Euler-Maclaurin generator
(`_em_terms`, also behind `power_sum`) writes as monomials i^A / x^B,
exact in rationals at integer a.  exp(-W_i) is expanded into such
monomials, and each monomial i^A x^{-B} summed against exp(-v i^{a+1})
is x^{-B} R_{a,A}(v): the same residues as `R_expansion`, mapped back
through v = 1/((a+1)x).  The refined K expansion is
hand-validated through depth 4 at a = 1, where it reproduces

    K_{1,-1}(x) = sqrt(pi/2) sqrt(x) - 2/3 + sqrt(2 pi)/24 x^{-1/2} + O(1/x).

Also here: exact/asymptotic power sums sum_{i<=n} i^a, the closed form
for H at (a,b) = (1,0), and a proven bound on the fraction of K sitting
beyond the cutoff index x^{3/(3a+2)}, which decays like
exp(-x^{1/(3a+2)}/(a+1)).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import ConvergenceError, DomainError
from .series import (DEFAULT_TERM_CAP, DEFAULT_TOL, BoundedValue, _geometric_tail,
                     blocked_sum, certified)
from .special import (
    EULER_GAMMA,
    bernoulli_fraction,
    gamma,
    harmonic,
    zeta,
)

__all__ = [
    "ExpansionTerm",
    "AsymptoticExpansion",
    "R_sum_direct",
    "R_expansion",
    "power_sum",
    "K_direct",
    "K_expansion_refined",
    "h10_closed_form",
    "cutoff_index",
    "relative_tail_beyond_cutoff",
    "tail_envelope",
]

_MAX_REFINED_DEPTH = 4  # coefficient bookkeeping hand-validated through here
_NUDGE = 2.0**-44  # tail_envelope's margin on each computed quantity
_ENVELOPE_TERMS = 2**16  # tail_envelope's cap on the terms summed one by one


@dataclass(frozen=True)
class ExpansionTerm:
    """coefficient * t^power * L^log_power, L = log t or log(1/t)."""

    coefficient: float
    power: float
    log_power: int = 0


@dataclass(frozen=True)
class AsymptoticExpansion:
    """A truncated expansion in x -> oo (L = log x) or v -> 0 (L = log 1/v).

    remainder_power is the growth order of the first omitted correction;
    the coefficient of that order may vanish, so it is an upper bound on
    the error order, not an estimate of its size.
    """

    variable: str  # "x->oo" | "v->0"
    terms: tuple[ExpansionTerm, ...]
    remainder_power: float

    def __post_init__(self):
        if self.variable not in ("x->oo", "v->0"):
            raise DomainError(f"unknown expansion variable {self.variable!r}")

    def evaluate(self, t: float) -> float:
        if not (math.isfinite(t) and t > 0.0):
            raise DomainError(f"expansion argument must be positive, got {t}")
        log_factor = math.log(t) if self.variable == "x->oo" else math.log(1.0 / t)
        return math.fsum(
            term.coefficient * t**term.power * log_factor**term.log_power
            for term in self.terms
        )

    def __str__(self) -> str:
        var = "x" if self.variable == "x->oo" else "v"
        log_sym = "log(x)" if self.variable == "x->oo" else "log(1/v)"
        parts = []
        for tm in sorted(self.terms, key=lambda tm: -tm.power):
            piece = f"{tm.coefficient:+.12g}*{var}^{tm.power:g}"
            if tm.log_power:
                piece += f"*{log_sym}" + (f"^{tm.log_power}" if tm.log_power > 1 else "")
            parts.append(piece)
        parts.append(f"O({var}^{self.remainder_power:g})")
        return " ".join(parts)


def _check_a(a: float) -> None:
    if not (math.isfinite(a) and a >= 0.0):
        raise DomainError(f"a must be finite and >= 0, got {a}")


def R_sum_direct(a: float, A: float, v: float) -> BoundedValue:
    """sum_{i>=1} i^A exp(-v i^{a+1}) with a certified truncation bound, to
    the default tol and term cap.

    exp(-v i^{a+1}) is walked as the running product of the factors
    exp(-v (j^{a+1} - (j-1)^{a+1})).  Past index n the term ratio is at most
    ((n+1)/n)^{max(A,0)} * exp(-v (a+1) n^a) (increments of i^{a+1} grow),
    giving a geometric tail bound once that ratio drops below 1.
    """
    _check_a(a)
    if not (math.isfinite(v) and v > 0.0):
        raise DomainError(f"v must be finite and positive, got {v}")
    p = a + 1.0

    def block(idx, n):
        # (j-1)^p - j^p without cancellation; log1p(-1) = -inf gives -1 at j = 1
        with np.errstate(divide="ignore"):
            neg_step = idx ** p * np.expm1(p * np.log1p(-1.0 / idx))
        return ((lambda v: np.exp(v * neg_step)), (idx ** float(A))[None],
                lambda v: ((n + 1.0) / n) ** max(A, 0.0) * math.exp(-v * p * n**a))

    walk = blocked_sum(block, [v], [DEFAULT_TOL], cap=DEFAULT_TERM_CAP, name="R_sum")[0]
    return certified(walk)


def _pole_order(theta: float) -> int | None:
    """k0 >= 0 if theta is, within 1e-12, the nonpositive integer -k0."""
    if theta > 0.5:
        return None
    k0 = round(-theta)
    if k0 >= 0 and abs(theta + k0) <= 1e-12:
        return k0
    return None


def _R_residues(a: float, A: float, cap: int) -> list[tuple[float, float, int]]:
    """Mellin residues of R_{a,A}(v) through v^cap, as (coefficient, power,
    log_power): the terms of R_expansion, with the merged pole kept only
    when its order k0 is at most cap."""
    theta = (A + 1.0) / (a + 1.0)
    k0 = _pole_order(theta)
    out = []
    if k0 is None:
        out.append((gamma(theta) / (a + 1.0), -theta, 0))
    elif k0 <= cap:
        base = (-1.0) ** k0 / ((a + 1.0) * math.factorial(k0))
        out.append((base, float(k0), 1))
        out.append((base * (harmonic(k0) + a * EULER_GAMMA), float(k0), 0))
    for k in range(cap + 1):
        if k != k0:
            coeff = (-1.0) ** k / math.factorial(k) * zeta(-A - k * (a + 1.0))
            if coeff != 0.0:
                out.append((coeff, float(k), 0))
    return out


def R_expansion(a: float, A: float, depth: int) -> AsymptoticExpansion:
    """Small-v expansion of R_{a,A} with depth zeta-correction orders.

    Non-resonant case (theta = (A+1)/(a+1) not a nonpositive integer):

        Gamma(theta)/(a+1) v^{-theta}
          + sum_{k<=depth} (-1)^k/k! zeta(-A - k(a+1)) v^k.

    When theta = -k0 the Gamma pole and the k0-th zeta pole merge into

        (-1)^{k0}/((a+1) k0!) * (log(1/v) + H_{k0} + a*gamma) * v^{k0}.
    """
    _check_a(a)
    if not (isinstance(depth, int) and 0 <= depth <= 12):
        raise DomainError(f"depth must be an integer in 0..12, got {depth}")
    terms = tuple(ExpansionTerm(*t) for t in _R_residues(a, A, depth))
    return AsymptoticExpansion("v->0", terms, depth + 0.5)


def _em_terms(s, depth: int) -> list:
    """Euler-Maclaurin terms (m, n, c) of sum_{j<=i} j^s, each c * i^(m s + n):

        zeta(-s) + i^{s+1}/(s+1) + i^s/2
          + sum_{k<=depth} B_{2k}/(2k)! * s(s-1)...(s-2k+2) * i^{s-2k+1},

    stopped where the falling factorial vanishes.  The error is
    O(i^{s-2 depth-1}) (Olver ch. 8; DLMF 2.10).  Exact Fractions for an
    int s >= 1, where zeta(-s) = -B_{s+1}/(s+1); floats otherwise.
    """
    exact = isinstance(s, int) and s >= 1
    one = Fraction(1) if exact else 1.0
    zeta_s = -bernoulli_fraction(s + 1) / (s + 1) if exact else zeta(-s)
    terms = [(0, 0, zeta_s), (1, 1, one / (s + 1)), (1, 0, one / 2)]
    ff = s  # the falling factorial s (s-1) ... (s-2k+2)
    for k in range(1, depth + 1):
        if ff == 0:
            break
        terms.append((1, 1 - 2 * k,
                      one * bernoulli_fraction(2 * k) / math.factorial(2 * k) * ff))
        ff = ff * (s - 2 * k + 1) * (s - 2 * k)
    return terms


def power_sum(a, n: int, *, depth: int = 6):
    """sum_{i=1..n} i^a, the Euler-Maclaurin terms evaluated at n.

    Integer a >= 1: exact (returned as int), with every Bernoulli term
    before the falling factorial vanishes.  Non-integer a > 0: the
    asymptotic series with depth Bernoulli terms and the zeta(-a)
    constant, accurate to O(n^{a-2 depth-1}).
    """
    if not (isinstance(n, int) and n >= 1):
        raise DomainError(f"n must be a positive integer, got {n!r}")
    if not (isinstance(depth, int) and 0 <= depth <= 25):
        raise DomainError(f"depth must be an integer in 0..25, got {depth}")
    if isinstance(a, int) and not isinstance(a, bool) and a >= 1:
        nf = Fraction(n)
        total = sum(c * nf ** (m * a + k) for m, k, c in _em_terms(a, (a + 1) // 2))
        if total.denominator != 1:
            raise ConvergenceError(
                f"exact power sum lost integrality for a={a}, n={n}",
                series="power_sum",
            )
        return int(total)
    a = float(a)
    if not (math.isfinite(a) and a > 0.0):
        raise DomainError(f"a must be positive, got {a}")
    return math.fsum(c * n ** (m * a + k) for m, k, c in _em_terms(a, depth))


def _check_bx(b: float, x: float) -> None:
    if not math.isfinite(b):
        raise DomainError(f"b must be finite, got {b}")
    if not (math.isfinite(x) and x > 0.0):
        raise DomainError(f"x must be finite and positive, got {x}")


def K_direct(a: float, b: float, x: float, *, tol: float = DEFAULT_TOL,
             term_cap: int = DEFAULT_TERM_CAP, start: int = 0) -> BoundedValue:
    """sum_{i>start} i^{b+1} prod_{j=1..i} x/(x+j^a), certified.

    This is H with d_j = j^a and rho_i = i^b.  With start > 0 it is the
    exact tail of K beyond the start index, summed in the same one walk:
    the weight is 0 up to start, and no ratio bound is claimed there.
    Such a tail can be far below 1, so the walk stops at tol times
    min(1, T), T its first term (start+1)^{b+1} prod_{j<=start+1} x/(x+j^a).
    term_cap counts the terms past start.
    """
    _check_a(a)
    _check_bx(b, x)
    if start < 0:
        raise DomainError(f"start must be >= 0, got {start}")
    if term_cap < 1:  # blocked_sum's own check sees start + term_cap
        raise DomainError(f"term_cap must be >= 1, got {term_cap}")

    def stop(n):
        if n <= start:  # the next weight may still jump from zero
            return lambda x: math.inf
        c, d = ((n + 1.0) / n) ** max(b + 1.0, 0.0), (n + 1.0) ** a
        return lambda x: c * x / (x + d)

    def block(idx, n):
        d, w = idx ** float(a), idx ** (b + 1.0)
        if idx[0] <= start:
            w[idx <= start] = 0.0
        return (lambda x: x / (x + d)), w[None], stop(n)

    if start:  # T only scales tol, so it is summed in logs without care for rounding
        log_q = float(np.log1p(np.arange(1.0, start + 2.0) ** a / x).sum())
        tol *= math.exp(min(0.0, (b + 1.0) * math.log(start + 1.0) - log_q))
    walk = blocked_sum(block, [x], [tol], cap=start + term_cap,
                       name="K_direct")[0]
    return certified(walk, start=start)


def _build_W(a, depth: int) -> dict:
    """Monomials of W_i: {(m, n, B): coeff} for coeff * i^(m a + n) * x^-B.

    W_i = sum_{j<=i} log(1 + j^a/x) - i^{a+1}/((a+1)x), expanded through
    x^{-depth}: the ell-th log-series term (-1)^{ell+1}/ell * x^-ell *
    sum_{j<=i} j^{a ell} takes the Euler-Maclaurin terms of that power sum.
    For an int a (>= 1) the coefficients are exact Fractions and equal
    exponents m a + n merge under the key (0, m a + n, B); otherwise they
    are floats.
    """
    exact = isinstance(a, int)
    W: dict[tuple[int, int, int], object] = {}
    for ell in range(1, depth + 1):
        sgn = (Fraction if exact else float)((-1) ** (ell + 1)) / ell
        for m, n, c in _em_terms(a * ell, depth + 2):
            coeff = sgn * c
            if coeff == 0 or (ell, m, n) == (1, 1, 1):  # v i^{a+1} is split off
                continue
            key = (0, m * ell * a + n, ell) if exact else (m * ell, n, ell)
            W[key] = W.get(key, 0) + coeff
    return W


def _exp_neg(W: dict, depth: int) -> dict:
    """exp(-W) truncated past x^{-depth}, keyed like W."""
    neg = sorted(((key, -c) for key, c in W.items()), key=lambda item: item[0][2])
    total = {(0, 0, 0): 1}
    running = dict(total)
    for m in range(1, depth + 1):
        product: dict = {}
        for (m1, n1, b1), c1 in running.items():
            for (m2, n2, b2), c2 in neg:
                if b1 + b2 > depth:
                    break
                key = (m1 + m2, n1 + n2, b1 + b2)
                product[key] = product.get(key, 0) + c1 * c2
        running = product
        for key, c in running.items():
            total[key] = total.get(key, 0) + c / math.factorial(m)
    return total


def K_expansion_refined(a: float, b: float, depth: int = 4) -> AsymptoticExpansion:
    """Multi-term large-x expansion of K_{a,b} via exp(-W) composition.

    The product prod_{j<=i} x/(x+j^a) is written exp(-v i^{a+1} - W_i)
    with v = 1/((a+1)x); exp(-W_i) is expanded into monomials i^A x^{-B},
    A = m a + n for integers m, n, and each monomial is summed by the
    residues of R (pole orders become log x terms).  The bookkeeping is
    exact in rationals when a is an integer, so that equal exponents merge
    and cancel exactly, and in floats otherwise.  Emitted terms stop at the
    certified remainder order

        (b+2)/(a+1) + (floor((depth+1)/2) - (depth+1)) / (a+1).

    Depth is capped at 4, the order through which the coefficient
    pipeline is hand-validated (at a = 1 it reproduces the known
    sqrt(pi/2) x^{1/2} - 2/3 + sqrt(2 pi)/24 x^{-1/2} for b = -1).
    """
    _check_a(a)
    if not math.isfinite(b) or b <= -2.0:
        raise DomainError(f"refined expansion requires finite b > -2, got {b}")
    if not (isinstance(depth, int) and 0 <= depth <= _MAX_REFINED_DEPTH):
        raise DomainError(
            f"depth must be an integer in 0..{_MAX_REFINED_DEPTH}, got {depth}"
        )
    a = int(a) if float(a).is_integer() and a >= 1 else float(a)
    b_frac = Fraction(*float(b).as_integer_ratio())
    ap1 = float(a) + 1.0
    log_ap1 = math.log(ap1)

    # monomials grouped by their i exponent (m, n): {B: coefficient}
    by_power: dict[tuple[int, int], dict[int, float]] = {}
    for (m, n, B), c in _exp_neg(_build_W(a, depth), depth).items():
        by_power.setdefault((m, n), {})[B] = c

    theta_K = float((b_frac + 2) / (Fraction(a) + 1))
    remainder = theta_K + ((depth + 1) // 2 - (depth + 1)) / ap1
    buckets: dict[tuple[float, int], list[float]] = {}

    def emit(power, log_power, value):
        # orders at or below the remainder are dropped, so never summed
        if value != 0.0 and power > remainder + 1e-9:
            key = (round(float(power), 12), log_power)
            buckets.setdefault(key, []).append(float(value))

    for (m, n), group in by_power.items():
        # c x^-B i^{A'} sums to c x^-B R_{a,A'}(v), A' = b + 1 + m a + n, and
        # v^p log(1/v) = ((a+1)x)^-p (log x + log(a+1)); a residue of order
        # p past depth - B would need monomials beyond x^-depth
        A_prime, B_min = float(b) + 1.0 + m * a + n, min(group)
        if max((A_prime + 1.0) / ap1, 0.0) - B_min <= remainder + 1e-9:
            continue  # no residue order of the group is above the remainder
        cap = min(depth - B_min, math.ceil(-B_min - remainder - 1e-9) - 1)
        residues = [(coeff * ap1 ** -p, p, log_power) for coeff, p, log_power
                    in _R_residues(float(a), A_prime, cap)]
        for B, c in group.items():
            ct = float(c)
            if ct == 0.0:
                continue
            for coeff, p, log_power in residues:
                if p <= depth - B:
                    emit(-B - p, log_power, ct * coeff)
                    if log_power:
                        emit(-B - p, 0, ct * coeff * log_ap1)

    terms = tuple(
        ExpansionTerm(math.fsum(vals), power, log_power)
        for (power, log_power), vals in sorted(buckets.items(), reverse=True)
        if abs(math.fsum(vals)) > 1e-300
    )
    return AsymptoticExpansion("x->oo", terms, remainder)


def h10_closed_form(x: float) -> float:
    """H at (a,b) = (1,0) in closed form.

    With d_j = j + 1 the product telescopes into Gamma ratios and

        H(x) = x - P(x+2, x) * exp(x + lgamma(x+2) - (x+1) log x),

    P the regularized lower incomplete gamma function, read from
    scipy.special.gammainc (imported here, so that importing quartzeq
    loads no scipy module).
    """
    from scipy.special import gammainc

    if not (math.isfinite(x) and x > 0.0):
        raise DomainError(f"x must be finite and positive, got {x}")
    p = float(gammainc(x + 2.0, x))
    return x - p * math.exp(x + math.lgamma(x + 2.0) - (x + 1.0) * math.log(x))


def cutoff_index(a: float, x: float) -> int:
    """Index i0 = ceil(x^{3/(3a+2)}) separating bulk from far tail."""
    _check_a(a)
    if not (math.isfinite(x) and x > 0.0):
        raise DomainError(f"x must be finite and positive, got {x}")
    return max(1, math.ceil(x ** (3.0 / (3.0 * a + 2.0))))


def relative_tail_beyond_cutoff(a: float, b: float, x: float) -> float:
    """Upper bound on (beyond-cutoff mass) / K, the fraction the cutoff drops.

    The absolute beyond-cutoff mass grows with x (K itself grows
    polynomially); exponential smallness is a statement about this
    fraction, which is what tail_envelope bounds.
    """
    t = K_direct(a, b, x, start=cutoff_index(a, x))
    k = K_direct(a, b, x)
    return (t.value + t.tail_bound) / k.value


def tail_envelope(a: float, b: float, x: float) -> float:
    """Proven upper bound on the exact ratio relative_tail_beyond_cutoff measures.

    With i0 = cutoff_index(a, x), c = b + 1 and Q_i = prod_{j<=i} x/(x+j^a),
    the beyond-cutoff mass is T = sum_{i>i0} i^c Q_i, and:

    - log(1+u) >= u - u^2/2 for u >= 0, so the integral of log(1 + t^a/x)
      over [0, i0] is at least Phi = i0^{a+1}/((a+1)x) -
      i0^{2a+1}/(2(2a+1)x^2); as the integrand rises, that integral is at
      most sum_{j<=i0} log(1 + j^a/x), and Q_{i0} <= exp(-max(0, Phi)).
    - Each later factor is at most r = x/(x + (i0+1)^a), so
      Q_i <= exp(-Phi) r^{i-i0} for i > i0.
    - The bounding terms i^c r^{i-i0} start at (i0+1)^c r, and the step
      from index i to i+1 is s_i = ((i+1)/i)^{max(c,0)} r, which falls as
      i grows.  They are summed one by one up to the first index m with
      s_m < 1, and the rest is at most the m-th term summed geometrically
      with step s_m, so T <= exp(-Phi) times that total.  m - i0 is at
      most about c x^{2/(3a+2)}; past _ENVELOPE_TERMS terms there is no
      claim and the result is inf.

    T is divided by the low end of K_direct(a, b, x)'s interval.  Every
    computed quantity is off by a few roundings, far below 2^-44 of its
    size: Phi's two parts, each s_i and the quotient are each moved by
    2^-44 in the direction that enlarges the bound (the nudge of Phi's
    first part, which is at least Phi, also covers the rounding of their
    difference, and the terms are summed with math.fsum).  The bound
    decays like exp(-x^{1/(3a+2)}/(a+1)).  See Olver, Asymptotics and
    Special Functions, ch. 8, for sums against integrals of monotone
    functions.
    """
    i0, c = cutoff_index(a, x), b + 1.0
    k = K_direct(a, b, x)
    u = i0**a / x  # the i0-th factor's j^a/x, so that no x^2 can overflow
    phi = max(0.0, i0 * u / (a + 1.0) * (1.0 - _NUDGE)
              - i0 * u * u / (2.0 * (2.0 * a + 1.0)) * (1.0 + _NUDGE))
    r = x / (x + (i0 + 1.0) ** a)
    terms, i = [(i0 + 1.0) ** c * r], i0 + 1.0
    while (s := ((i + 1.0) / i) ** max(c, 0.0) * r * (1.0 + _NUDGE)) >= 1.0:
        if len(terms) == _ENVELOPE_TERMS:
            return math.inf
        terms.append(terms[-1] * s)
        i += 1.0
    tail = math.exp(-phi) * (math.fsum(terms) + _geometric_tail(terms[-1], s))
    return tail / (k.value - k.tail_bound) * (1.0 + _NUDGE)
