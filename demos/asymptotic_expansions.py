"""
Large-argument expansions with checked remainders
=================================================

Two expansion machines: R(v) = sum i^A exp(-v i^{a+1}) as v -> 0
(Mellin residues, with a log term when a residue collides with a Gamma
pole), and K(x) = sum i^{b+1} prod x/(x+j^a) as x -> oo.  Every claim
is compared against the certified direct sum.
"""

from quartzeq import (
    K_direct,
    K_expansion_refined,
    R_expansion,
    R_sum_direct,
    cutoff_index,
    relative_tail_beyond_cutoff,
    tail_envelope,
)

# --- R(v): the residue expansion converges fast -------------------------
exp_r = R_expansion(1.0, 1.0, 2)
print("R_{1,1} expansion:", exp_r)
print("\nv        direct          expansion       residual")
for v in (1e-1, 1e-2, 1e-3):
    direct = R_sum_direct(1.0, 1.0, v)
    res = direct.value - exp_r.evaluate(v)
    print(f"{v:.0e}  {direct.value:.8e}  {exp_r.evaluate(v):.8e}  {res:+.2e}")
print("residuals fall like v^2.5, the first omitted order")

# --- a pole brings a log --------------------------------------------------
# For (a, A) = (1, -3) the k = 1 residue meets a Gamma pole; the v^1
# coefficient picks up log(1/v) with weight -1/2.
exp_pole = R_expansion(1.0, -3.0, 1)
print("\nR_{1,-3} expansion:", exp_pole)

# --- K(x): three explicit terms ------------------------------------------
exp_k = K_expansion_refined(1.0, -1.0, 4)
print("\nK_{1,-1} expansion:", exp_k)
print("\nx        scaled residual x*(K - expansion)")
for x in (1e3, 1e4, 1e5):
    direct = K_direct(1.0, -1.0, x)
    print(f"{x:.0e}  {x * (direct.value - exp_k.evaluate(x)):+.4f}")
print("a stable constant: the next order is exactly 1/x")

# --- how many terms does the direct sum really need? ----------------------
# Beyond i0 = ceil(x^{3/(3a+2)}) the summand decays fast; the dropped
# fraction of K shrinks roughly exponentially in x^{1/(3a+2)}, and
# tail_envelope proves a bound on it.
print("\nx      cutoff  proven bound  dropped fraction  margin")
for x in (1e2, 1e3, 1e4):
    bound, frac = tail_envelope(1.0, -1.0, x), relative_tail_beyond_cutoff(1.0, -1.0, x)
    print(f"{x:.0e}  {cutoff_index(1.0, x):6d}  {bound:.3e}     {frac:.3e}         {bound / frac:.2f}x")
