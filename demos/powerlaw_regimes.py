"""
Power-law families: three existence regimes
===========================================

With rates k_i ~ i^k_exp, p_i ~ i^p_exp, q_i ~ i^q_exp everything hangs
on two combinations: a = q_exp + k_exp and b = k_exp - p_exp.  The line
b = a - 1 separates families whose equilibrium function grows without
bound from families with a finite inflow threshold m = sup F.
"""

from quartzeq import (
    F_equilibrium,
    PowerLawFamily,
    classify_regime,
    count_equilibria_probe,
    estimate_m_with_error,
    existence_verdict,
)

# --- the trichotomy -------------------------------------------------------
print("a    b     regime")
for a, b in [(1.0, 0.4), (1.0, 0.0), (1.0, -0.4), (2.0, 1.4), (2.0, 1.0), (2.0, 0.0)]:
    verdict = classify_regime(PowerLawFamily.from_ab(a, b))
    print(f"{a:.1f}  {b:+.1f}  {verdict.regime.value}")

# --- a finite threshold, measured -----------------------------------------
# (a, b) = (2, 0) is strictly below the critical line: F attains its
# supremum m at a finite x, and inflows above m*r have no equilibrium.
fam = PowerLawFamily.from_ab(2.0, 0.0)
est, err, evals = estimate_m_with_error(fam)
print(f"\n(2, 0): m = {est.m:.12f} +/- {err:.1e}")
print(f"        attained near x = {est.attained_at:.6f} ({evals} evaluations)")

for alpha in (0.2, est.m, 0.35):
    print(f"alpha = {alpha:<22} -> {existence_verdict(fam, alpha, 1.0)}")

# Below the threshold the crossing count is two, like the piecewise case.
count, roots = count_equilibria_probe(fam, 0.2, 1.0)
print(f"\nalpha = 0.2 crossings: {count} at x = {roots[0]:.6f} and x = {roots[1]:.6f}")

# --- at the critical line the supremum moves to infinity ------------------
# On b = a - 1 the d-identity gives H(x) = x - sum_i i^(a-1) Q_i: F < 1 at
# every x, and the subtracted sum is o(x), so F -> 1.  m = 1 exactly, with
# no F evaluations, and it is never attained.
strict = PowerLawFamily.from_ab(2.0, 1.0)
est, err, evals = estimate_m_with_error(strict)
print(f"\n(2, 1): m = {est.m} +/- {err}, attained at: {est.attained_at} ({evals} evaluations)")
for x in (1e2, 1e4, 1e6):
    print(f"        F({x:.0e}) = {F_equilibrium(strict, x).value:.6f}")
for alpha in (0.995, 1.0):
    print(f"alpha = {alpha:<6} -> {existence_verdict(strict, alpha, 1.0)}")
