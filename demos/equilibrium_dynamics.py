"""
Truncated dynamics as an independent referee
============================================

The series machinery predicts equilibria without ever integrating
anything.  Here we integrate the truncated cohort system from scratch
and let time evolution confirm the static picture: subcritical inflow
settles on the predicted root, supercritical inflow never settles.
"""

from quartzeq import (
    PiecewiseConstantFamily,
    conservation_residual,
    initial_state,
    integrate,
    solve_roots,
)

fam = PiecewiseConstantFamily(1.0, 1)

# --- subcritical: the flow finds the analytic root -----------------------
alpha = 0.2
summary = integrate(fam, alpha, 1.0, initial_state(60), 2000.0)
roots = solve_roots(1.0, 1, 1.0, alpha).roots
print(f"alpha = {alpha}: converged = {summary.converged} over {summary.n_steps} samples")
print(f"final x        = {summary.final.x:.15f}")
print(f"analytic roots = {roots[0]:.15f}, {roots[1]:.15f}")
print(f"gap to stable branch: {abs(summary.final.x - roots[0]):.2e}")

# The integrator never saw the balance identity it is supposed to keep:
# d/dt (x + total load) = alpha - clearance - boundary flux.  Check it.
print(f"balance residual at the final state: {conservation_residual(fam, alpha, 1.0, summary.final):.2e}")
print(f"boundary flux absorbed by the truncation: {summary.final.flux_log:.2e}")

# --- supercritical: no equilibrium to find --------------------------------
# alpha > alpha* = 0.25: F never reaches alpha/r, so x just climbs.
# (On much longer horizons the finite truncation fakes an equilibrium by
# leaking load through the top cohort; 300 time units stays honest.)
alpha = 0.3
summary = integrate(fam, alpha, 1.0, initial_state(200), 300.0)
print(f"\nalpha = {alpha}: converged = {summary.converged}")
checkpoints = [0, len(summary.t) // 3, 2 * len(summary.t) // 3, -1]
print("t        x(t)")
for i in checkpoints:
    print(f"{summary.t[i]:7.1f}  {summary.x_series[i]:.4f}")
print(f"rhs norm at t_end: {summary.rhs_norm_final:.3e} (not an equilibrium)")

# --- the invariant subspace x = 0 -----------------------------------------
# With no quartz inflow the x axis is invariant: cohort 0 fills to
# r/(p_0+q_0) and nothing above it ever populates.
summary = integrate(fam, 0.0, 1.0, initial_state(20), 200.0)
print(f"\nalpha = 0: x stays {summary.final.x}, M_0 -> {summary.final.M[0]:.9f}")
print(f"occupied cohorts above 0: {(abs(summary.final.M[1:]) > 1e-12).sum()}")
