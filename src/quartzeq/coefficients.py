"""Rate-coefficient families for the cohort model.

A family supplies, for each cohort index i >= 0, the uptake rate k_i > 0, the
removal-with-load rate p_i >= 0 and the death-with-release rate q_i >= 0.
Derived quantities used throughout the package:

    d_i   = (p_i + q_i) / k_i        (per-cohort decay-to-uptake ratio)
    rho_i = p_i / k_i
    g_i   = q_i / k_i

Standing hypothesis: z = inf_i d_i > 0.  Every certified series sums
terms T_i = w_i Q_i(x), Q_i = prod_{j=1..i} x/(x + d_j), for a weight w_i:
the unit weight, i rho_i, i g_i or 1/k_i (the cohort sizes).  A family
certifies their tails through two hooks: ``d_inf_beyond(n)``, the infimum
of d_i over i > n (so min(d0, d_inf_beyond(0)) is z), and
``step_sup(weight, n)``, the sup of w_{i+1}/w_i over i >= n for the weight
named "rho", "g" or "k".  ``step_bound(weight, n)`` forms from them the
one step ratio every tail bound reads,

    s(x) = step_sup(weight, n) * x / (x + d_inf_beyond(n)) >= T_{i+1}/T_i

for every i >= n, and a tail past T_n is at most T_n s / (1 - s) once
s < 1.

Accessor contract: ``rates(idx)`` returns the arrays (k, p, q) and
``ratios(idx)`` one float (3, len(idx)) array of the derived rows [d; rho; g]
in their per-kind exact form, both vectorised over index arrays with i >= 1;
``d_values(idx)`` is row 0.  A series block reads ``ratios`` once.
Cohort 0 is read from the attributes ``k0, p0, q0`` (with ``d0`` derived
from them); ``rates_through(n)`` joins the two over 0..n.

The concrete families are of two kinds:

* ``PowerLawFamily(p_exp, q_exp, k_exp, ...)``: for i >= 1,
  k_i = i^-k_exp, p_i = i^-p_exp, q_i = i^q_exp, giving d_i = i^a + i^b
  with a = q_exp + k_exp and b = k_exp - p_exp (note b <= a always).
* ``TabulatedFamily(k, p, q)``: explicit leading entries, constant
  extension beyond the stored range.  ``PiecewiseConstantFamily(k, N)`` is
  the table of N + 2 rows, (k, 1, 0) for cohorts 0..N and then (k, 0, 1):
  k_i = k, p_i = 1 for i <= N else 0, q_i = 0 for i <= N else 1, so
  d_i = 1/k identically.

Families are immutable and safe to share across threads.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DomainError, _check_kN

__all__ = [
    "CoefficientFamily",
    "PiecewiseConstantFamily",
    "PowerLawFamily",
    "TabulatedFamily",
    "family_from_config",
    "load_family",
]


class CoefficientFamily:
    """Shared interface; concrete families implement the per-kind pieces."""

    kind = "abstract"

    # every family also carries its cohort-0 rates as k0, p0, q0

    @property
    def d0(self) -> float:
        return (self.p0 + self.q0) / self.k0

    # -- vectorised accessors over index arrays (i >= 1) ------------------

    def rates(self, idx: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(k_i, p_i, q_i) at each index."""
        raise NotImplementedError

    def ratios(self, idx: np.ndarray) -> np.ndarray:
        """[d_i; rho_i; g_i] at each index as one (3, len(idx)) array, exact form."""
        raise NotImplementedError

    def d_values(self, idx: np.ndarray) -> np.ndarray:
        return self.ratios(idx)[0]

    def rates_through(self, n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(k, p, q) arrays over cohorts 0..n."""
        tail = self.rates(np.arange(1, n + 1))
        head = (self.k0, self.p0, self.q0)
        return tuple(np.concatenate(([h], t)) for h, t in zip(head, tail))

    # -- tail-certification hooks -----------------------------------------

    def d_inf_beyond(self, n: int) -> float:
        """inf of d_i over i > n (i >= 1)."""
        raise NotImplementedError

    def step_sup(self, weight: str, n: int) -> float:
        """sup over i >= n of w_{i+1}/w_i for w_i = i rho_i ("rho"), i g_i
        ("g") or 1/k_i ("k").

        Returns math.inf while the weight may still jump from zero to a
        positive value, and 0.0 once every later weight vanishes.
        """
        raise NotImplementedError

    def step_bound(self, weight: str | None, n: int):
        """x -> s(x) >= T_{i+1}/T_i for every i >= n, T_i = w_i Q_i(x).

        s(x) = step_sup(weight, n) * x / (x + d_inf_beyond(n)), with a sup
        of 1 for the unit weight (None); a sup of 0 or inf is returned as
        the constant it is, whatever x.
        """
        sup = 1.0 if weight is None else self.step_sup(weight, n)
        if not 0.0 < sup < math.inf:
            return lambda x: sup
        d = self.d_inf_beyond(n)
        return lambda x: sup * x / (x + d)

    def describe(self) -> dict:
        """Config-style mapping that reconstructs the family."""
        raise NotImplementedError


def _pow_sum(t: float, a: float, b: float) -> float:
    """t^a + t^b; past the doubles, the largest double still bounds it below."""
    try:
        return min(t ** a + t ** b, sys.float_info.max)
    except OverflowError:
        return sys.float_info.max


def _power_law_t_star(a: float, b: float) -> float:
    """Where t^a + t^b is least for a > 0 > b, (-b/a)^(1/(a-b)); inf past
    the doubles, and nan for other exponents, where it has no interior
    minimum."""
    if not b < 0.0 < a:
        return math.nan
    try:
        return (-b / a) ** (1.0 / (a - b))
    except OverflowError:
        return math.inf


def _power_law_inf_from(a: float, b: float, t_star: float, m: int) -> float:
    """inf over integer i >= m of i^a + i^b, by monotonicity analysis;
    t_star is _power_law_t_star(a, b)."""
    if b >= 0.0:
        # both exponents nonnegative: nondecreasing in i
        return _pow_sum(float(m), a, b)
    if a == 0.0:
        # 1 + i^b strictly decreasing; infimum is the limit
        return 1.0
    # interior minimum of t^a + t^b at t*
    if t_star <= m:
        return _pow_sum(float(m), a, b)
    if t_star == math.inf:
        # t* lies past the float range (a tiny): the real minimum, taken
        # through logs, bounds the infimum over integers from below
        log_ratio = math.log(-b) - math.log(a)
        return (math.exp(log_ratio * (a / (a - b)))
                + math.exp(log_ratio * (b / (a - b))))
    candidates = {m, int(math.floor(t_star)), int(math.ceil(t_star))}
    return min(_pow_sum(float(c), a, b) for c in candidates if c >= m)


@dataclass(frozen=True)
class PowerLawFamily(CoefficientFamily):
    """k_i = i^-k_exp, p_i = i^-p_exp, q_i = i^q_exp for i >= 1.

    Index 0 is set by (k0, p0, q0); the defaults keep d_0 = 1.
    """

    p_exp: float
    q_exp: float
    k_exp: float
    p0: float = 1.0
    q0: float = 0.0
    k0: float = 1.0

    kind = "power_law"

    def __post_init__(self):
        for name in ("p_exp", "q_exp", "k_exp"):
            v = getattr(self, name)
            if not (math.isfinite(v) and v >= 0.0):
                raise DomainError(f"{name} must be finite and >= 0, got {v}")
        if not (math.isfinite(self.k0) and self.k0 > 0.0):
            raise DomainError(f"k0 must be positive, got {self.k0}")
        if self.p0 < 0.0 or self.q0 < 0.0:
            raise DomainError("p0 and q0 must be nonnegative")
        if self.p0 + self.q0 <= 0.0:
            raise DomainError("p0 + q0 must be positive (d_0 > 0 required)")
        # a, b, t* and the exponent column (b, a) are read on every block;
        # set once, they are plain attributes
        object.__setattr__(self, "a", self.q_exp + self.k_exp)
        object.__setattr__(self, "b", self.k_exp - self.p_exp)
        object.__setattr__(self, "t_star", _power_law_t_star(self.a, self.b))
        object.__setattr__(self, "_ba", np.array(((self.b,), (self.a,))))

    @classmethod
    def from_ab(cls, a: float, b: float, **index0) -> "PowerLawFamily":
        """Family with d_i = i^a + i^b and rho_i = i^b.

        Requires a >= 0 and b <= a (forced by nonnegative exponents).
        """
        if not (math.isfinite(a) and a >= 0.0):
            raise DomainError(f"a must be finite and >= 0, got {a}")
        if not (math.isfinite(b) and b <= a):
            raise DomainError(f"b must satisfy b <= a, got a={a}, b={b}")
        k_exp = max(b, 0.0)
        return cls(p_exp=k_exp - b, q_exp=a - k_exp, k_exp=k_exp, **index0)

    def rates(self, idx):
        fi = idx.astype(float)
        return fi ** -self.k_exp, fi ** -self.p_exp, fi ** self.q_exp

    def ratios(self, idx):
        fi = idx.astype(float)
        out = np.empty((3,) + fi.shape)
        # rows 1 and 2, i^b and i^a, in one pow
        np.power(fi, self._ba, out=out[1:])
        np.add(out[2], out[1], out=out[0])
        return out

    def d_inf_beyond(self, n):
        # d_values raises i with numpy's pow and _power_law_inf_from with
        # Python's; they round up to 2 ulps apart, and 4 eps down covers that
        return (_power_law_inf_from(self.a, self.b, self.t_star, max(n + 1, 1))
                * (1.0 - 2.0**-50))

    def step_sup(self, weight, n):
        # w_i = i^e: the step ((i+1)/i)^e decreases toward 1, and is at most 1
        # for e <= 0; w_0 = 0 < w_1 = 1 for i rho and i g
        if weight == "k":
            if n == 0:
                return max(self.k0, 2.0 ** self.k_exp)
            e = self.k_exp
        elif n == 0:
            return math.inf
        else:
            e = 1.0 + (self.b if weight == "rho" else self.a)
        return ((n + 1.0) / n) ** max(e, 0.0)

    def describe(self):
        return {
            "kind": self.kind,
            "p_exp": self.p_exp,
            "q_exp": self.q_exp,
            "k_exp": self.k_exp,
            "p0": self.p0,
            "q0": self.q0,
            "k0": self.k0,
        }


class TabulatedFamily(CoefficientFamily):
    """Explicit (k_i, p_i, q_i) entries, constant beyond the stored range.

    The constant extension means the tail of d and rho (and g) equals the
    last stored value; tables therefore cannot represent unboundedly
    growing death rates q_i, and the infimum of d is taken over the stored
    entries (the tail never dips below the last one).
    """

    kind = "tabulated"

    def __init__(self, k, p, q):
        kpq = [np.array(v, dtype=float) for v in (k, p, q)]
        if any(v.ndim != 1 or len(v) != len(kpq[0]) for v in kpq) or len(kpq[0]) == 0:
            raise DomainError("k, p, q must be nonempty arrays of equal length")
        self._kpq = kpq = np.array(kpq)
        k, p, q = kpq
        # a nan is the min and the max of its array and fails every comparison
        if not (k.min() > 0.0 and k.max() < math.inf):
            raise DomainError("all k entries must be finite and positive")
        if not (kpq[1:].min() >= 0.0 and kpq[1:].max() < math.inf):
            raise DomainError("p and q entries must be finite and nonnegative")
        if not (p + q).min() > 0.0:
            raise DomainError("p_i + q_i must be positive for every stored i")
        self._drg = np.array([p + q, p, q]) / k
        self.k0, self.p0, self.q0 = kpq[:, 0].tolist()

    def __repr__(self):
        return f"TabulatedFamily(len={self._kpq.shape[1]})"

    def rates(self, idx):
        return tuple(self._kpq.take(idx, axis=1, mode="clip"))

    def ratios(self, idx):
        return self._drg.take(idx, axis=1, mode="clip")

    @cached_property
    def _suffix(self):
        """Over i >= n, for each n < L (the table length): inf d_i under
        "d", and step_sup's sup of w_{i+1}/w_i under each weight's name.

        Past the table the steps are 1 for 1/k and (i+1)/i for a positive
        weight, largest at i = L - 1, so entry L - 1 covers the whole tail.
        """
        d, rho, g = self._drg
        k = self._kpq[0]
        i = np.arange(len(k))
        steps = []
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            for v in (rho, g):
                v = np.append(v, v[-1])
                # w_0 = 0 whatever v_0 is, so a positive w_1 jumps from zero;
                # (i+1)/i times v_{i+1}/v_i is exactly (i+1)/i where v is flat
                steps.append(np.where((i == 0) | (v[:-1] == 0.0),
                                      np.where(v[1:] > 0.0, np.inf, 0.0),
                                      ((i + 1) / i) * (v[1:] / v[:-1])))
        steps.append(np.append(k[:-1] / k[1:], 1.0))
        return dict(zip(("d", "rho", "g", "k"),
                        (np.minimum.accumulate(d[::-1])[::-1],
                         *(np.maximum.accumulate(s[::-1])[::-1] for s in steps))))

    def d_inf_beyond(self, n):
        return self._suffix["d"].item(min(n + 1, self._kpq.shape[1] - 1))

    def step_sup(self, weight, n):
        sups = self._suffix[weight]
        if n < len(sups):
            return sups.item(n)
        if weight == "k":
            return 1.0
        return (n + 1.0) / n if self._drg.item(1 if weight == "rho" else 2, -1) > 0.0 else 0.0

    def describe(self):
        k, p, q = self._kpq.tolist()
        return {
            "kind": self.kind,
            "k": k,
            "p": p,
            "q": q,
            "tail": "constant",
        }


class PiecewiseConstantFamily(TabulatedFamily):
    """k_i = k; removal only up to load N, death with release beyond.

    The table of N + 2 rows: (k, 1, 0) for cohorts 0..N, then (k, 0, 1),
    which the constant tail repeats; d_i = 1/k identically.
    """

    kind = "piecewise_constant"

    def __init__(self, k_value: float, N: int):
        _check_kN(k_value, N)
        self.k_value, self.N = k_value, N
        super().__init__([k_value] * (N + 2), [1.0] * (N + 1) + [0.0], [0.0] * (N + 1) + [1.0])

    def __repr__(self):
        return f"PiecewiseConstantFamily(k_value={self.k_value!r}, N={self.N!r})"

    def describe(self):
        return {"kind": self.kind, "k": self.k_value, "N": self.N}


_REQUIRED_KEYS = {
    "piecewise_constant": {"k", "N"},
    "power_law": {"p_exp", "q_exp", "k_exp"},
    "tabulated": {"k", "p", "q"},
}


def family_from_config(config: dict) -> CoefficientFamily:
    """Build a family from a key-value document.

    Schema (also documented in the README):

    * ``{"kind": "piecewise_constant", "k": float, "N": int}``
    * ``{"kind": "power_law", "p_exp": f, "q_exp": f, "k_exp": f,
       "p0": f=1, "q0": f=0, "k0": f=1}``
    * ``{"kind": "tabulated", "k": [...], "p": [...], "q": [...],
       "tail": "constant"}``
    """
    if not isinstance(config, dict):
        raise DomainError(f"family config must be a mapping, got {type(config).__name__}")
    kind = config.get("kind")
    if kind not in _REQUIRED_KEYS:
        raise DomainError(
            f"unknown family kind {kind!r}; expected one of {sorted(_REQUIRED_KEYS)}"
        )
    missing = _REQUIRED_KEYS[kind] - config.keys()
    if missing:
        raise DomainError(f"family config for {kind!r} is missing keys {sorted(missing)}")
    try:
        if kind == "piecewise_constant":
            N = config["N"]
            if isinstance(N, float) and N.is_integer():  # the constructor rejects other floats
                N = int(N)
            return PiecewiseConstantFamily(k_value=float(config["k"]), N=N)
        if kind == "power_law":
            keys = ("p_exp", "q_exp", "k_exp", *(key for key in ("p0", "q0", "k0") if key in config))
            return PowerLawFamily(**{key: float(config[key]) for key in keys})
        tail = config.get("tail", "constant")
        if tail != "constant":
            raise DomainError(f"unsupported tabulated tail policy {tail!r}")
        return TabulatedFamily(k=config["k"], p=config["p"], q=config["q"])
    except DomainError:
        raise
    except (TypeError, ValueError) as exc:  # a value float() rejects
        raise DomainError(f"family config values must be numbers: {exc}") from None


def load_family(path) -> CoefficientFamily:
    """Read a JSON family config from disk."""
    with open(path) as fh:
        return family_from_config(json.load(fh))
