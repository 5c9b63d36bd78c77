"""Reference answers computed without quartzeq, and the checks that use them.

Everything here is re-derived from the model's definitions (rates k_i, p_i,
q_i and the series they define), so an answer is never judged by the code
that produced it.  Validation runs after the timed phase.

Tolerances (relative to the reference unless noted):

* piecewise F: exact rational value must lie in the certified interval
  [value - pad, value + tail_bound + pad], pad = 16 eps |value|;
* power-law F: direct sum (products in log space, math.fsum), interval as
  above widened by 1e-9 of the reference for its own rounding;
* K_expansion_refined(a, b, 4) at x = 1e5 against the direct K sum: 1e-5;
* roots: the exact closed form must give alpha/r at each root to 1e-9;
* relaxations: the truncated flux balance at the final x must give alpha
  to 1e-6.  The integrator's own converged flag is not judged (a trajectory
  can sit at the equilibrium while its last 100 steps include one above
  the flag's threshold); traced runs report it as dynamics.converged_frac.
"""

from __future__ import annotations

import math
import sys
from fractions import Fraction

import numpy as np

EPS = sys.float_info.epsilon
PAD_ULPS = 16.0
POWERLAW_F_TOL = 1e-9
K_TOL = 1e-5
K_AT = 1e5
ROOT_TOL = 1e-9
RELAX_TOL = 1e-6
PIECEWISE_KX_CAP = 1e4  # above this the F cross-check runs out of terms

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


# --- model definitions ----------------------------------------------------

def rates(spec: dict, i_max: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(k_i, p_i, q_i) for i = 0..i_max, from the family definitions.

    Piecewise: k_i = k, p_i = [i <= N], q_i = [i > N].  Power law with
    exponents (a, b): for i >= 1, k_i = i^-ke, p_i = i^-pe, q_i = i^qe with
    ke = max(b, 0), pe = ke - b, qe = a - ke; index 0 has k = p = 1, q = 0.
    """
    i = np.arange(i_max + 1, dtype=float)
    if spec["family"] == "piecewise":
        k = np.full(i.shape, spec["k"])
        p = np.where(i <= spec["N"], 1.0, 0.0)
        return k, p, 1.0 - p
    a, b = spec["a"], spec["b"]
    ke = max(b, 0.0)
    fi = np.maximum(i, 1.0)
    k, p, q = fi ** -ke, fi ** -(ke - b), fi ** (a - ke)
    k[0], p[0], q[0] = 1.0, 1.0, 0.0
    return k, p, q


def piecewise_F(k: float, N: int, x: float) -> float:
    """F of the piecewise family in exact rational arithmetic, rounded once.

    F = sum_{j=1..N} y^j - N y^{N+1}, y = kx / (kx + 1).
    """
    kx = Fraction(k) * Fraction(x)
    y = kx / (kx + 1)
    acc = Fraction(0)
    for _ in range(N):
        acc = y * (1 + acc)
    return float(acc - N * y ** (N + 1))


def piecewise_peak(N: int) -> float:
    """max over x of the piecewise F (it depends on N only), by golden section."""
    def f(y):
        acc = 0.0
        for _ in range(N):
            acc = y * (1.0 + acc)
        return acc - N * y ** (N + 1)
    return _golden_max(f, 0.0, (N + 1) / (N + 2), 200)[1]


def q_sum(x: float, a: float, b_d: float | None, w: float) -> tuple[float, float]:
    """(sum, tail bound) of sum_{i>=1} i^w prod_{j<=i} x / (x + d_j).

    d_j = j^a + j^b_d (or j^a when b_d is None).  Log-products are carried
    across blocks; each block is added with math.fsum.  Past index n >= 9,
    d_j increases for every a >= 0.5, b_d > -1.5, so the term ratio is at most
    ((n+1)/n)^max(w, 0) x / (x + d_{n+1}), which gives a geometric tail bound.
    """
    parts: list[float] = []
    log_q = 0.0
    n = 0
    block = 4096
    while True:
        j = np.arange(n + 1, n + block + 1, dtype=float)
        d = j ** a if b_d is None else j ** a + j ** b_d
        logs = log_q - np.cumsum(np.log1p(d / x))
        terms = np.exp(w * np.log(j) + logs)
        parts.append(math.fsum(terms))
        log_q = float(logs[-1])
        n += block
        d_next = (n + 1.0) ** a + (0.0 if b_d is None else (n + 1.0) ** b_d)
        s = ((n + 1.0) / n) ** max(w, 0.0) * x / (x + d_next)
        if s < 1.0:
            total = math.fsum(parts)
            tail = float(terms[-1]) * s / (1.0 - s)
            if tail <= 1e-17 * total or terms[-1] == 0.0:
                return total, tail


def powerlaw_F(a: float, b: float, x: float) -> float:
    """F = H / (x + d_0), H = sum i^{b+1} prod x / (x + j^a + j^b), d_0 = 1."""
    h, _ = q_sum(x, a, b, b + 1.0)
    return h / (x + 1.0)


def K_direct_ref(a: float, b: float, x: float) -> float:
    return q_sum(x, a, None, b + 1.0)[0]


def _golden_max(f, lo: float, hi: float, iters: int) -> tuple[float, float]:
    t1 = hi - _GOLDEN * (hi - lo)
    t2 = lo + _GOLDEN * (hi - lo)
    f1, f2 = f(t1), f(t2)
    for _ in range(iters):
        if f1 < f2:
            lo, t1, f1 = t1, t2, f2
            t2 = lo + _GOLDEN * (hi - lo)
            f2 = f(t2)
        else:
            hi, t2, f2 = t2, t1, f1
            t1 = hi - _GOLDEN * (hi - lo)
            f1 = f(t1)
    return (t1, f1) if f1 >= f2 else (t2, f2)


def powerlaw_m(a: float, b: float) -> float:
    """sup F for a ThresholdWeak family: log-grid scan plus golden section."""
    ts = np.linspace(math.log(1e-2), math.log(1e6), 81)
    vals = [powerlaw_F(a, b, math.exp(t)) for t in ts]
    j = int(np.argmax(vals))
    if j in (0, len(ts) - 1):
        raise ValueError(f"peak of F for (a, b) = ({a}, {b}) is not inside the scan")
    return _golden_max(lambda t: powerlaw_F(a, b, math.exp(t)),
                       float(ts[j - 1]), float(ts[j + 1]), 60)[1]


def truncated_balance(spec: dict, x: float, i_max: int, r: float = 1.0) -> float:
    """x sum_{i<=i_max} k_i M_i - sum_{i<=i_max} i q_i M_i at the truncated
    equilibrium profile for x, from the cohort recursion
    M_0 = r / (k_0 x + p_0 + q_0), M_i = M_{i-1} k_{i-1} x / (k_i x + p_i + q_i).
    """
    k, p, q = rates(spec, i_max)
    M = np.empty(i_max + 1)
    M[0] = r / (k[0] * x + p[0] + q[0])
    for i in range(1, i_max + 1):
        M[i] = M[i - 1] * k[i - 1] * x / (k[i] * x + p[i] + q[i])
    return x * math.fsum(k * M) - math.fsum(np.arange(i_max + 1) * q * M)


# --- anchors: inflows drawn relative to a reference threshold --------------

def resolve_anchors(items) -> None:
    """Turn each anchored item's relative position into alpha (r = 1)."""
    cache: dict = {}

    def once(key, fn):
        if key not in cache:
            cache[key] = fn()
        return cache[key]

    for item in items:
        s, u = item.spec, item.spec.get("u")
        if item.anchor is None:
            continue
        if item.anchor.startswith("peak"):
            peak = once(("peak", s["N"]), lambda: piecewise_peak(s["N"]))
            scale = {"peak_below": 0.1 + 0.85 * u, "peak_above": 1.05 + 0.45 * u,
                     "peak_fraction": u}[item.anchor]
            s["alpha"] = peak * scale
        elif item.anchor.startswith("strict"):
            ab = (s["a"], s["b"])
            if item.anchor == "strict_below":
                s["alpha"] = once(ab + (1e4,), lambda: powerlaw_F(*ab, 1e4)) * (0.5 + 0.48 * u)
            elif item.anchor == "strict_band":
                f6 = once(ab + (1e6,), lambda: powerlaw_F(*ab, 1e6))
                s["alpha"] = f6 + (0.02 + 0.96 * u) * (1.0 - f6)
            else:
                s["alpha"] = 1.02 + 0.48 * u
        elif item.anchor.startswith("weak"):
            ab = (s["a"], s["b"])
            m = once(ab, lambda: powerlaw_m(*ab))
            item.extra["m_ref"] = m
            s["alpha"] = m * (0.5 + 0.45 * u if item.anchor == "weak_below"
                              else 1.05 + 0.45 * u)
        else:
            raise ValueError(item.anchor)


# --- answers and their checks ---------------------------------------------

def answer_record(item, result) -> dict:
    """The parts of a public call's result that validation looks at."""
    if item.kind == "F":
        return {"value": result.value, "tail_bound": result.tail_bound,
                "terms": result.terms_used}
    if item.kind == "K":
        return {"at_x": result.evaluate(K_AT)}
    if item.kind == "verdict":
        return {"answer": result}
    if item.kind == "roots":
        return {"count": result.count, "roots": list(result.roots)}
    if item.kind == "relax":
        return {"converged": result.converged, "x": result.final.x,
                "steps": result.n_steps}
    raise ValueError(item.kind)


def expected(item) -> dict:
    """Reference for one item, computed from the definitions above."""
    s = item.spec
    if item.kind == "F":
        if s["family"] == "piecewise":
            return {"value": piecewise_F(s["k"], s["N"], s["x"]), "tol": 0.0}
        return {"value": powerlaw_F(s["a"], s["b"], s["x"]), "tol": POWERLAW_F_TOL}
    if item.kind == "K":
        return {"value": K_direct_ref(s["a"], s["b"], K_AT)}
    if item.kind == "verdict":
        phi = s["alpha"]
        regime = s["regime"]
        if regime == "AlwaysExists":
            exists = True
        elif regime == "ThresholdStrict":
            exists = phi < 1.0
        else:
            exists = phi <= item.extra["m_ref"]
        return {"answer": "exists" if exists else "not_exists"}
    if item.kind == "roots":
        return {"count": 2 if item.anchor == "peak_below" else 0}
    if item.kind == "relax":
        return {"alpha": s["alpha"]}
    raise ValueError(item.kind)


def judge(item, ans: dict, exp: dict) -> bool:
    """True when the answer agrees with the reference within its tolerance."""
    s = item.spec
    if item.kind == "F":
        ref, v = exp["value"], ans["value"]
        pad = PAD_ULPS * EPS * abs(v) + exp["tol"] * abs(ref)
        return v - pad <= ref <= v + ans["tail_bound"] + pad
    if item.kind == "K":
        return abs(ans["at_x"] - exp["value"]) <= K_TOL * abs(exp["value"])
    if item.kind == "verdict":
        return ans["answer"] == exp["answer"]
    if item.kind == "roots":
        if ans["count"] != exp["count"] or len(ans["roots"]) != exp["count"]:
            return False
        return all(abs(piecewise_F(s["k"], s["N"], x) - s["alpha"])
                   <= ROOT_TOL * s["alpha"] for x in ans["roots"])
    if item.kind == "relax":
        bal = truncated_balance(s, ans["x"], s["i_max"])
        return abs(bal - exp["alpha"]) <= RELAX_TOL * exp["alpha"]
    raise ValueError(item.kind)


def known_defect(item, error: str | None, ans: dict | None) -> str | None:
    """Name the open ROADMAP defect a failed item falls under, if any.

    Only two are recognised, each by its input region and failure mode:
    the F cross-check exhausting its term cap on piecewise families at large
    kx (item 3), and the ThresholdStrict grid-edge supremum answering
    not_exists or at_threshold for F(1e5) <= alpha/r < 1 (item 1).
    Any other failure is unexpected and makes the run incorrect.
    """
    s = item.spec
    if (item.kind == "F" and s["family"] == "piecewise"
            and error == "ConvergenceError"
            and s["k"] * s["x"] >= PIECEWISE_KX_CAP):
        return "cross-check term cap (ROADMAP 3)"
    if (item.kind == "verdict" and s.get("regime") == "ThresholdStrict"
            and error is None and ans["answer"] in ("not_exists", "at_threshold")
            and powerlaw_F(s["a"], s["b"], 1e5) <= s["alpha"] < 1.0):
        return "ThresholdStrict grid-edge supremum (ROADMAP 1)"
    return None
