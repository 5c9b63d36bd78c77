"""Large-x behavior of the cohort series and their exponential-sum kernels.

Two model sums dominate the analysis:

    R_{a,A}(v) = sum_{i>=1} i^A exp(-v i^{a+1})        as v -> 0+
    K_{a,b}(x) = sum_{i>=1} i^{b+1} prod_{j<=i} x/(x+j^a)   as x -> oo

K controls the equilibrium function of power-law families: with
d_j = j^a + j^b the series H(x) is sandwiched between K(x/2) and K(x),
so the growth exponent of K decides whether equilibria exist for every
inflow or only below a threshold.

R has a complete expansion in powers of v (Mellin residues): a leading
v^{-theta} with theta = (A+1)/(a+1), plus zeta-value corrections; when
theta collides with a nonpositive integer the two residues merge into a
log(1/v) term.  K is expanded by writing the product as
exp(-v i^{a+1} - W_i) with v = 1/((a+1)x), expanding exp(-W_i) into
monomials i^A / x^B by exact Euler-Maclaurin bookkeeping, and feeding
each monomial back through the R expansion.  The refined K expansion is
hand-validated through depth 4 at a = 1, where it reproduces

    K_{1,-1}(x) = sqrt(pi/2) sqrt(x) - 2/3 + sqrt(2 pi)/24 x^{-1/2} + O(1/x).

Also here: exact/asymptotic power sums sum_{i<=n} i^a, the closed form
for H at (a,b) = (1,0), and fitted super-polynomial envelopes for the
mass sitting beyond the cutoff index x^{3/(3a+2)}.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import ConsistencyError, ConvergenceError, DomainError
from .series import BoundedValue, blocked_sum, certified
from .special import DEFAULT_TABLE, EULER_GAMMA

__all__ = [
    "ExpansionTerm",
    "AsymptoticExpansion",
    "R_sum_direct",
    "R_expansion",
    "power_sum",
    "K_direct",
    "K_leading_asymptotics",
    "K_expansion_refined",
    "h10_closed_form",
    "cutoff_index",
    "tail_beyond_cutoff",
    "relative_tail_beyond_cutoff",
    "TailEnvelope",
    "fit_tail_envelope",
    "tail_cutoff_check",
]

_MAX_REFINED_DEPTH = 4  # coefficient bookkeeping hand-validated through here


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

    @property
    def leading(self) -> ExpansionTerm:
        """Dominant term in the expansion's own limit.

        Highest power as x -> oo, lowest as v -> 0; at equal power a log
        factor dominates in both limits.
        """
        if not self.terms:
            raise DomainError("empty expansion has no leading term")
        if self.variable == "x->oo":
            return max(self.terms, key=lambda tm: (tm.power, tm.log_power))
        return max(self.terms, key=lambda tm: (-tm.power, tm.log_power))

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


def R_sum_direct(a: float, A: float, v: float, *,
                 tol: float = 1e-12, term_cap: int = 10**6) -> BoundedValue:
    """sum_{i>=1} i^A exp(-v i^{a+1}) with a certified truncation bound.

    exp(-v i^{a+1}) is walked as the running product of the factors
    exp(-v (j^{a+1} - (j-1)^{a+1})).  Past index n the term ratio is at most
    ((n+1)/n)^{max(A,0)} * exp(-v (a+1) n^a) (increments of i^{a+1} grow),
    giving a geometric tail bound once that ratio drops below 1.
    """
    _check_a(a)
    if not (math.isfinite(v) and v > 0.0):
        raise DomainError(f"v must be finite and positive, got {v}")
    p = a + 1.0

    def factors(idx):
        # j^p - (j-1)^p without cancellation; log1p(-1) = -inf gives 1 at j = 1
        with np.errstate(divide="ignore"):
            step = -(idx ** p) * np.expm1(p * np.log1p(-1.0 / idx))
        return np.exp(-v * step)

    def stop(n):
        return ((n + 1.0) / n) ** max(A, 0.0) * math.exp(-v * p * n**a)

    walk = blocked_sum(factors, (lambda idx: idx ** float(A),), stop, cap=term_cap,
                       tol=tol, name="R_sum", x=v)
    return certified(walk)


def _pole_order(theta: float, *, tol: float = 1e-12) -> int | None:
    """k0 >= 0 if theta is (numerically) the nonpositive integer -k0."""
    if theta > 0.5:
        return None
    k0 = round(-theta)
    if k0 >= 0 and abs(theta + k0) <= tol:
        return k0
    return None


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
    theta = (A + 1.0) / (a + 1.0)
    k0 = _pole_order(theta)
    terms: list[ExpansionTerm] = []
    if k0 is None:
        terms.append(ExpansionTerm(DEFAULT_TABLE.gamma(theta) / (a + 1.0), -theta))
    elif k0 <= depth:
        base = (-1.0) ** k0 / ((a + 1.0) * math.factorial(k0))
        terms.append(ExpansionTerm(base, float(k0), log_power=1))
        terms.append(
            ExpansionTerm(base * (DEFAULT_TABLE.harmonic(k0) + a * EULER_GAMMA), float(k0))
        )
    for k in range(depth + 1):
        if k0 is not None and k == k0:
            continue
        coeff = (-1.0) ** k / math.factorial(k) * DEFAULT_TABLE.zeta(-A - k * (a + 1.0))
        if coeff != 0.0:
            terms.append(ExpansionTerm(coeff, float(k)))
    return AsymptoticExpansion("v->0", tuple(terms), depth + 0.5)


def _falling(a, m: int):
    """a (a-1) ... (a-m+1); exact for int/Fraction a, float otherwise."""
    out = a**0  # 1 of the right type
    for t in range(m):
        out = out * (a - t)
    return out


def power_sum(a, n: int, *, depth: int = 6):
    """sum_{i=1..n} i^a.

    Integer a >= 1: exact (returned as int) via the Bernoulli closed
    form.  Non-integer a > 0: Euler-Maclaurin asymptotic with the
    zeta(-a) constant,

        zeta(-a) + n^{a+1}/(a+1) + n^a/2
        + sum_{k<=depth} B_{2k}/(2k)! * a(a-1)...(a-2k+2) * n^{a-2k+1},

    accurate to O(n^{a-2 depth-1}).
    """
    if not (isinstance(n, int) and n >= 1):
        raise DomainError(f"n must be a positive integer, got {n!r}")
    if not (isinstance(depth, int) and 0 <= depth <= 25):
        raise DomainError(f"depth must be an integer in 0..25, got {depth}")
    if isinstance(a, int) and not isinstance(a, bool) and a >= 1:
        nf = Fraction(n)
        # zeta(-a) = -B_{a+1}/(a+1); finitely many correction terms
        total = -DEFAULT_TABLE.bernoulli_fraction(a + 1) / (a + 1)
        total += nf ** (a + 1) / (a + 1) + nf**a / Fraction(2)
        k = 1
        while 2 * k - 1 <= a:
            ff = _falling(Fraction(a), 2 * k - 1)
            total += (
                DEFAULT_TABLE.bernoulli_fraction(2 * k)
                / math.factorial(2 * k) * ff * nf ** (a - 2 * k + 1)
            )
            k += 1
        if total.denominator != 1:
            raise ConvergenceError(
                f"exact power sum lost integrality for a={a}, n={n}",
                series="power_sum",
            )
        return int(total)
    a = float(a)
    if not (math.isfinite(a) and a > 0.0):
        raise DomainError(f"a must be positive, got {a}")
    pieces = [
        DEFAULT_TABLE.zeta(-a),
        n ** (a + 1.0) / (a + 1.0),
        0.5 * n**a,
    ]
    for k in range(1, depth + 1):
        ff = _falling(a, 2 * k - 1)
        if ff == 0.0:
            break
        pieces.append(
            float(DEFAULT_TABLE.bernoulli_fraction(2 * k)) / math.factorial(2 * k)
            * ff * n ** (a - 2 * k + 1.0)
        )
    return math.fsum(pieces)


def _check_bx(b: float, x: float) -> None:
    if not math.isfinite(b):
        raise DomainError(f"b must be finite, got {b}")
    if not (math.isfinite(x) and x > 0.0):
        raise DomainError(f"x must be finite and positive, got {x}")


def K_direct(a: float, b: float, x: float, *, tol: float = 1e-12,
             term_cap: int = 10**6, start: int = 0) -> BoundedValue:
    """sum_{i>start} i^{b+1} prod_{j=1..i} x/(x+j^a), certified.

    This is H with d_j = j^a and rho_i = i^b.  With start > 0 the
    product prefix over j <= start is included, so the result is the
    exact tail of K beyond the start index.
    """
    _check_a(a)
    _check_bx(b, x)
    if start < 0:
        raise DomainError(f"start must be >= 0, got {start}")

    def factors(idx):
        return x / (x + idx ** float(a))

    def stop(n):
        return ((n + 1.0) / n) ** max(b + 1.0, 0.0) * x / (x + (n + 1.0) ** a)

    q = blocked_sum(factors, (), None, cap=start).q_n
    walk = blocked_sum(factors, (lambda idx: idx ** (b + 1.0),), stop,
                       cap=start + term_cap, tol=tol, name="K_direct", x=x,
                       start=start, q=q)
    return certified(walk, start=start)


def K_leading_asymptotics(a: float, b: float, *, allow_log: bool = False) -> AsymptoticExpansion:
    """Leading large-x order of K: Gamma(th) (a+1)^{th-1} x^th, th=(b+2)/(a+1).

    Requires b > -2 (positive growth order th > 0).  At b = -2 the order
    degenerates to log x / (a+1); pass allow_log=True to receive that
    single logarithmic term instead of an error.
    """
    _check_a(a)
    if not math.isfinite(b):
        raise DomainError(f"b must be finite, got {b}")
    if b <= -2.0:
        if b == -2.0 and allow_log:
            c = 1.0 / (a + 1.0)
            return AsymptoticExpansion(
                "x->oo",
                (ExpansionTerm(c, 0.0, log_power=1),
                 ExpansionTerm(c * math.log(a + 1.0), 0.0)),
                0.0,
            )
        raise DomainError(
            f"leading order requires b > -2 (got b={b}); "
            "b = -2 has log-order growth, available with allow_log=True"
        )
    theta = (b + 2.0) / (a + 1.0)
    coeff = DEFAULT_TABLE.gamma(theta) * (a + 1.0) ** (theta - 1.0)
    return AsymptoticExpansion(
        "x->oo", (ExpansionTerm(coeff, theta),), max(theta - a / (a + 1.0), 0.0)
    )


def _exact_zeta_neg(m: int) -> Fraction:
    """zeta(-m) for integer m >= 1, exact: -B_{m+1}/(m+1)."""
    return -DEFAULT_TABLE.bernoulli_fraction(m + 1) / (m + 1)


def _build_W(a, exact: bool, depth: int) -> dict:
    """Monomials of W_i: {(m, n, B): coeff} for coeff * i^(m a + n) * x^-B.

    W_i = sum_{j<=i} log(1 + j^a/x) - i^{a+1}/((a+1)x), expanded through
    x^{-depth} by the log series in j^a/x and Euler-Maclaurin power sums
    (with the zeta constant).  With exact (a an integer >= 1) a is an int
    and the coefficients are exact Fractions; otherwise they are floats.
    """
    W: dict[tuple[int, int, int], object] = {}

    def add(key, coeff):
        if coeff != 0:
            if exact:  # integer exponents m a + n merge exactly
                key = (0, key[0] * a + key[1], key[2])
            W[key] = W.get(key, 0) + coeff

    for ell in range(1, depth + 1):
        sgn = Fraction((-1) ** (ell + 1), ell)
        fsgn = sgn if exact else float(sgn)
        al = a * ell
        # constant (zeta) part of the power sum
        add((0, 0, ell), sgn * _exact_zeta_neg(al) if exact
            else fsgn * DEFAULT_TABLE.zeta(-al))
        # i^{al+1}/(al+1); the ell = 1 piece is the split-off v i^{a+1}
        if ell >= 2:
            add((ell, 1, ell), fsgn / (al + 1))
        # i^{al}/2
        add((ell, 0, ell), fsgn / 2)
        # Bernoulli corrections i^{al+1-2k}
        for k in range(1, depth + 3):
            ff = _falling(al, 2 * k - 1)
            if ff == 0:
                break
            bk = sgn * DEFAULT_TABLE.bernoulli_fraction(2 * k)
            add((ell, 1 - 2 * k, ell),
                (bk if exact else float(bk)) * ff / math.factorial(2 * k))
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
    A = m a + n for integers m, n, and each monomial is summed by the R
    expansion (pole orders become log x terms).  The bookkeeping is exact
    in rationals when a is an integer, whose pole test needs it, and in
    floats otherwise.  Emitted terms stop at the certified remainder order

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
    exact = float(a).is_integer() and a >= 1
    a = int(a) if exact else float(a)
    b_frac = Fraction(*float(b).as_integer_ratio())
    ap1 = float(a) + 1.0
    log_ap1 = math.log(ap1)

    # monomials grouped by their i exponent (m, n): {B: coefficient}
    by_power: dict[tuple[int, int], dict[int, float]] = {}
    for (m, n, B), c in _exp_neg(_build_W(a, exact, depth), depth).items():
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
        # weight exponent A' = b + 1 + m a + n of i, and theta = (A'+1)/(a+1)
        if exact:
            theta = (b_frac + 2 + n) / (a + 1)
            k0 = -int(theta) if theta.denominator == 1 and theta <= 0 else None
            A_prime = float(b_frac + 1 + n)
        else:
            A_prime = float(b) + 1.0 + m * a + n
            theta = (A_prime + 1.0) / ap1
            k0 = _pole_order(theta)
        theta_f = float(theta)
        if k0 is None:
            gamma_part = DEFAULT_TABLE.gamma(theta_f) * ap1 ** (theta_f - 1.0)
        for B, c in group.items():
            ct = float(c)
            if ct == 0.0:
                continue
            budget = depth - B
            if k0 is None:
                # Gamma residue: ct x^{-B} Gamma(th)/(a+1) ((a+1)x)^{th}
                emit(theta_f - B, 0, ct * gamma_part)
            elif k0 <= budget:
                base = ct * (-1.0) ** k0 / (ap1 * math.factorial(k0)) * ap1 ** (-k0)
                # log(1/v) = log x + log(a+1)
                emit(-B - k0, 1, base)
                emit(-B - k0, 0, base * (DEFAULT_TABLE.harmonic(k0)
                                         + float(a) * EULER_GAMMA + log_ap1))
            # larger k give orders -B - k at or below the remainder
            for k in range(min(budget, math.ceil(-B - remainder - 1e-9) - 1) + 1):
                if k == k0:
                    continue
                zv = DEFAULT_TABLE.zeta(-A_prime - k * ap1)
                emit(-B - k, 0, ct * (-1.0) ** k / math.factorial(k) * zv * ap1 ** (-k))

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

    P the regularized lower incomplete gamma function.
    """
    if not (math.isfinite(x) and x > 0.0):
        raise DomainError(f"x must be finite and positive, got {x}")
    p = DEFAULT_TABLE.reg_lower_gamma(x + 2.0, x)
    return x - p * math.exp(x + math.lgamma(x + 2.0) - (x + 1.0) * math.log(x))


def cutoff_index(a: float, x: float) -> int:
    """Index i0 = ceil(x^{3/(3a+2)}) separating bulk from far tail."""
    _check_a(a)
    if not (math.isfinite(x) and x > 0.0):
        raise DomainError(f"x must be finite and positive, got {x}")
    return max(1, math.ceil(x ** (3.0 / (3.0 * a + 2.0))))


def tail_beyond_cutoff(a: float, b: float, x: float, *,
                       tol: float = 1e-12, term_cap: int = 10**6) -> BoundedValue:
    """Mass of the K series beyond the cutoff index, certified."""
    return K_direct(a, b, x, tol=tol, term_cap=term_cap, start=cutoff_index(a, x))


def relative_tail_beyond_cutoff(a: float, b: float, x: float, *,
                                tol: float = 1e-12, term_cap: int = 10**6) -> float:
    """Upper bound on (beyond-cutoff mass) / K, the fraction the cutoff drops.

    The absolute beyond-cutoff mass grows with x (K itself grows
    polynomially); exponential smallness is a statement about this
    fraction, which is what the fitted envelopes bound.
    """
    t = tail_beyond_cutoff(a, b, x, tol=tol, term_cap=term_cap)
    k = K_direct(a, b, x, tol=tol, term_cap=term_cap)
    return (t.value + t.tail_bound) / k.value


@dataclass(frozen=True)
class TailEnvelope:
    """Fitted bound amplitude * exp(-rate * x^exponent) for the relative tail.

    exponent = 1/(3a+1); rate is the shallowest pairwise decay observed
    on the fitting grid, clamped at 0 (the decay often has not set in
    yet on small-x windows, in which case the envelope degenerates to a
    constant), and amplitude carries a factor-2 headroom.  Conservative
    by construction on the fitted range; validity beyond it is checked,
    not assumed.
    """

    amplitude: float
    rate: float
    exponent: float
    n_points: int

    def bound(self, x: float) -> float:
        if not (math.isfinite(x) and x > 0.0):
            raise DomainError(f"x must be finite and positive, got {x}")
        return self.amplitude * math.exp(-self.rate * x**self.exponent)


def fit_tail_envelope(a: float, b: float, xs, *,
                      tol: float = 1e-12, term_cap: int = 10**6) -> TailEnvelope:
    """Fit a TailEnvelope to measured relative beyond-cutoff tails."""
    _check_a(a)
    xs = sorted(float(x) for x in xs)
    if len(xs) < 3:
        raise DomainError("need at least 3 fitting points")
    s = 1.0 / (3.0 * a + 1.0)
    us, logs, tails = [], [], []
    for x in xs:
        ratio = relative_tail_beyond_cutoff(a, b, x, tol=tol, term_cap=term_cap)
        if not ratio > 0.0:
            raise DomainError(f"relative tail underflowed at x={x}")
        us.append(x**s)
        logs.append(math.log(ratio))
        tails.append(ratio)
    rate = max(
        0.0,
        min(
            (logs[i] - logs[j]) / (us[j] - us[i])
            for i in range(len(xs)) for j in range(i + 1, len(xs))
        ),
    )
    amplitude = 2.0 * max(t * math.exp(rate * u) for t, u in zip(tails, us))
    return TailEnvelope(amplitude, rate, s, len(xs))


def tail_cutoff_check(a: float, b: float, x: float, *,
                      envelope: TailEnvelope | None = None,
                      tol: float = 1e-12, term_cap: int = 10**6) -> tuple[int, float]:
    """(cutoff index, certified beyond-cutoff mass upper bound) at x.

    With an envelope, additionally asserts that the relative tail at x
    stays under envelope.bound(x), raising ConsistencyError when a fitted
    envelope fails to hold out of sample.
    """
    i0 = cutoff_index(a, x)
    t = tail_beyond_cutoff(a, b, x, tol=tol, term_cap=term_cap)
    t_hi = t.value + t.tail_bound
    if envelope is not None:
        k = K_direct(a, b, x, tol=tol, term_cap=term_cap)
        ratio = t_hi / k.value
        if ratio > envelope.bound(x):
            raise ConsistencyError(
                f"relative tail {ratio!r} at x={x} exceeds fitted envelope "
                f"bound {envelope.bound(x)!r}"
            )
    return i0, t_hi
