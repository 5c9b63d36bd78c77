"""Seeded inputs for the three benchmark workloads.

Each workload is a list of items; an item is one question put to one public
quartzeq function.  The drawn coordinates of a class of items come from
``design``: every coordinate takes one value in each of n equal strata (as
in a Latin hypercube), and which strata share an item follows a fixed
low-discrepancy sequence instead of independent shuffles.  The seed places
each item inside its cell.  Two seeds therefore give different items with
nearly the same spread over every range and over every joint region, such
as the piecewise kx beyond the cross-check's term cap, which keeps per-seed
totals close while each item stays a fresh draw.

Some inflows are drawn relative to a threshold (the peak of F, or the
supremum m).  Those items carry an ``anchor`` and a relative position; the
benchmark resolves the anchor from its own reference code (reference.py)
before any timing, so the program still receives only plain numbers.

``HOLDOUT_SEED`` is kept out of tuning: a claimed gain must also hold on it.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field

from quartzeq import (
    F_equilibrium,
    K_expansion_refined,
    PiecewiseConstantFamily,
    PowerLawFamily,
    existence_verdict,
    initial_state,
    integrate,
    solve_roots,
)

WORKLOADS = ("certify", "verdict", "relax")
HOLDOUT_SEED = 20190129

# The layer each item kind calls, used as the span name in traced runs.
LAYER_CALL = {
    "F": "series.F_equilibrium",
    "K": "asymptotics.K_expansion_refined",
    "verdict": "powerlaw.existence_verdict",
    "roots": "piecewise.solve_roots",
    "relax": "dynamics.integrate",
}


@dataclass
class Item:
    """One question: ``kind`` selects the public call, ``spec`` its inputs."""

    idx: int
    kind: str
    spec: dict
    family: object = None  # quartzeq family object, where the call takes one
    pool: int | None = None  # family-pool index in the verdict workload
    anchor: str | None = None  # threshold the inflow is drawn relative to
    extra: dict = field(default_factory=dict)  # reference values, filled later

    def call(self):
        s = self.spec
        if self.kind == "F":
            return F_equilibrium(self.family, s["x"])
        if self.kind == "K":
            return K_expansion_refined(s["a"], s["b"], 4)
        if self.kind == "verdict":
            return existence_verdict(self.family, s["alpha"], 1.0)
        if self.kind == "roots":
            return solve_roots(s["k"], s["N"], 1.0, s["alpha"])
        if self.kind == "relax":
            return integrate(self.family, s["alpha"], 1.0,
                             initial_state(s["i_max"]), s["t_end"])
        raise ValueError(self.kind)


def design(rng: random.Random, n: int, dims: int,
           jitter: float = 1.0) -> list[tuple[float, ...]]:
    """n points in [0, 1)^dims, stratified in every coordinate.

    Coordinate j of point i lies in stratum rank_j(i) of n equal strata,
    where rank_j orders the R_d sequence frac(0.5 + i / phi^(j+1)), phi the
    positive root of phi^(dims+1) = phi + 1.  The cells are the same for
    every seed; within its stratum a point sits at 0.5 +- jitter/2 of the
    width, drawn from ``rng``.  Jitter 1 fills the stratum; a small jitter
    keeps each of a few costly items near the same place every seed.
    """
    phi = 2.0
    for _ in range(64):
        phi = (1.0 + phi) ** (1.0 / (dims + 1))
    cols = []
    for j in range(dims):
        step = phi ** -(j + 1)
        order = sorted(range(n), key=lambda i: (0.5 + i * step) % 1.0)
        rank = [0] * n
        for r, i in enumerate(order):
            rank[i] = r
        cols.append([(rank[i] + 0.5 + jitter * (rng.random() - 0.5)) / n
                     for i in range(n)])
    return list(zip(*cols))


def _log_uniform(u: float, lo: float, hi: float) -> float:
    return math.exp(math.log(lo) + u * (math.log(hi) - math.log(lo)))


def _int_uniform(u: float, lo: int, hi: int) -> int:
    return lo + min(int(u * (hi - lo + 1)), hi - lo)


def _powerlaw_ab(ua: float, ub: float) -> tuple[float, float]:
    """a in [0.5, 3], b in (-1.5, a]: the full power-law range of the paper."""
    a = 0.5 + 2.5 * ua
    return a, a - (a + 1.5) * ub


# certify -----------------------------------------------------------------
#
# Why: one certified value per item, every item a fresh draw, so no two items
# share work and a per-family cache cannot help.  The series layer does
# nearly all the work.  Varies: x log-uniform over [1e-2, 1e6] (the term
# count grows like x^(1/(a+1)) for power laws and like kx for the piecewise
# cross-check), family kind (half piecewise, half power law), and the
# exponents (a, b) over the whole power-law range.  One item in ten is a
# four-term K expansion.  The piecewise kx >~ 3e4 corner, where the
# cross-check runs out of terms and raises ConvergenceError (ROADMAP item 3),
# stays in the draw on purpose.

def certify(seed: int, n: int) -> list[Item]:
    rng = random.Random(f"certify/{seed}")
    n_k = max(1, n // 10)
    n_pw = (n - n_k) // 2
    n_pl = n - n_k - n_pw
    items: list[Item] = []
    for ux, uk, un in design(rng, n_pw, 3):
        k, N = _log_uniform(uk, 0.3, 3.0), _int_uniform(un, 1, 20)
        spec = {"family": "piecewise", "k": k, "N": N,
                "x": _log_uniform(ux, 1e-2, 1e6)}
        items.append(Item(0, "F", spec, PiecewiseConstantFamily(k, N)))
    for ux, ua, ub in design(rng, n_pl, 3):
        a, b = _powerlaw_ab(ua, ub)
        spec = {"family": "power_law", "a": a, "b": b,
                "x": _log_uniform(ux, 1e-2, 1e6)}
        items.append(Item(0, "F", spec, PowerLawFamily.from_ab(a, b)))
    for ua, ub in design(rng, n_k, 2):
        a, b = _powerlaw_ab(ua, ub)
        items.append(Item(0, "K", {"a": a, "b": b}))
    return _numbered(rng, items)


# verdict -----------------------------------------------------------------
#
# Why: existence questions asked over and over of a small pool of families,
# so work shared across questions (m per family) is visible here and not in
# certify.  The power-law verdicts scan F densely on a log grid without the
# cross-check, a different use of the series kernel than certify's.  Varies:
# regime (four families each of AlwaysExists, ThresholdStrict and
# ThresholdWeak, a spread over [0.5, 3]), family kind (twelve piecewise
# families answered by solve_roots), how often a family repeats (every family
# is asked `reps` times, in shuffled order), and where alpha/r sits relative
# to the threshold.  A threshold verdict costs 8 ms at a = 3 and 90 ms at
# a = 0.5, so each power-law family keeps to the middle tenth of its
# a-stratum: with four families per regime a free draw would let one family
# set the workload's total.  ThresholdStrict draws cover the band between
# F(1e6) and the true supremum 1, where the grid-edge estimate answers
# wrongly (ROADMAP item 1).

VERDICT_POOL = 4  # families per power-law regime; the piecewise pool is 3x


def verdict(seed: int, reps: int) -> list[Item]:
    rng = random.Random(f"verdict/{seed}")
    pool: list[tuple[str, dict, object]] = []
    for regime in ("AlwaysExists", "ThresholdStrict", "ThresholdWeak"):
        for ua, ub in design(rng, VERDICT_POOL, 2, jitter=0.1):
            a = 0.5 + 2.5 * ua
            if regime == "AlwaysExists":
                b = a - 1.0 + 0.1 + 0.9 * ub  # b in [a - 0.9, a]
            elif regime == "ThresholdStrict":
                b = a - 1.0
            else:  # gap (a-1) - b in [0.3, 0.95], b > -1.5
                b = a - 1.0 - (0.3 + min(0.65, a - 0.05) * ub)
            spec = {"family": "power_law", "a": a, "b": b, "regime": regime}
            pool.append(("verdict", spec, PowerLawFamily.from_ab(a, b)))
    for uk, un in design(rng, 3 * VERDICT_POOL, 2):
        spec = {"family": "piecewise", "k": _log_uniform(uk, 0.3, 3.0),
                "N": _int_uniform(un, 1, 20)}
        pool.append(("roots", spec, None))

    items: list[Item] = []
    for p, (kind, fspec, fam) in enumerate(pool):
        regime = fspec.get("regime")
        for rep, (u,) in enumerate(design(rng, reps, 1)):
            spec = dict(fspec)
            anchor = None
            if regime == "AlwaysExists":
                spec["alpha"] = _log_uniform(u, 1e-2, 1e2)
            elif regime == "ThresholdStrict":
                # below F(1e4), inside (F(1e6), 1), above the supremum 1
                anchor = ("strict_below", "strict_band", "strict_above")[rep % 3]
            elif regime == "ThresholdWeak":
                anchor = ("weak_below", "weak_above")[rep % 2]
            else:
                anchor = "peak_below" if rep % 5 else "peak_above"
            spec["u"] = u
            items.append(Item(0, kind, spec, fam, pool=p, anchor=anchor))
    return _numbered(rng, items)


# relax -------------------------------------------------------------------
#
# Why: the dynamics layer does all the work.  Varies: stiffness at i_max.
# Non-stiff piecewise relaxations (k_i x + 1 stays O(1)) outnumber stiff
# power-law ones, where q_i = i^a at the truncation (b <= 0) bounds RK45's
# step, so the step count grows like t_end S with S = i_max^a.  The stiff
# items draw S over [20, 60] and take i_max = S^(1/a), which sizes each to
# under a second.  Eight items cost about three seconds a pass, enough passes
# for each item's 90th percentile to be steady, and every coordinate keeps to
# the middle quarter of its stratum: with so few items a free draw would
# move the total by more than the bound.  Six non-stiff items against two
# stiff ones put the median on a non-stiff item.

def relax(seed: int, n_nonstiff: int, n_stiff: int) -> list[Item]:
    rng = random.Random(f"relax/{seed}")
    items: list[Item] = []
    for uk, un, ua, ui, ut in design(rng, n_nonstiff, 5, jitter=0.25):
        k, N = _log_uniform(uk, 0.5, 2.0), _int_uniform(un, 1, 6)
        spec = {"family": "piecewise", "k": k, "N": N, "u": 0.3 + 0.5 * ua,
                "i_max": _int_uniform(ui, 40, 60), "t_end": 1000.0 + 1000.0 * ut}
        items.append(Item(0, "relax", spec, PiecewiseConstantFamily(k, N),
                          anchor="peak_fraction"))
    for ua, ub, ual, us in design(rng, n_stiff, 4, jitter=0.25):
        a = 1.0 + 0.5 * ua
        b = -0.5 * ub
        spec = {"family": "power_law", "a": a, "b": b,
                "alpha": 0.05 + 0.15 * ual,
                "i_max": round(_log_uniform(us, 20.0, 60.0) ** (1.0 / a)),
                "t_end": 200.0, "stiff": True}
        items.append(Item(0, "relax", spec, PowerLawFamily.from_ab(a, b)))
    return _numbered(rng, items)


def _numbered(rng: random.Random, items: list[Item]) -> list[Item]:
    rng.shuffle(items)
    for i, item in enumerate(items):
        item.idx = i
    return items


# Item counts per workload.  "full" is what the benchmark measures; "tiny"
# is the self-test size and the sample of other workloads in a traced run.
SIZES = {
    "full": {"certify": 600, "verdict": 12, "relax": (6, 2)},
    "tiny": {"certify": 20, "verdict": 1, "relax": (1, 1)},
}


def generate(name: str, seed: int, size: str = "full") -> list[Item]:
    """The workload's items for a seed; the same seed gives the same items."""
    n = SIZES[size][name]
    if name == "certify":
        return certify(seed, n)
    if name == "verdict":
        return verdict(seed, n)
    if name == "relax":
        return relax(seed, *n)
    raise KeyError(name)
