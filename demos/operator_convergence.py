"""Convergence study of the discrete fractional operators.

Two diagnostics: the closed-form derivative identity for the function
tau^(beta-1) E^sigma_{alpha,beta}(-lam tau^alpha) at the kernel rate
lam = alpha/(1-alpha), and the integral/derivative roundtrip
that should reproduce omega - omega(0).
"""

from abcfde import (
    Grid,
    OperatorConfig,
    fundamental_theorem_check,
    golden_identity_check,
    ml_one,
)

alpha = 0.5
cfg = OperatorConfig(alpha)
grids = [Grid(1.0, N) for N in (64, 128, 256, 512)]

print("derivative identity, (alpha, beta, sigma) = (0.5, 1.5, 1), kernel rate lam = 1")
print("N      sup error     order")
res = golden_identity_check(1.5, 1.0, cfg, grids)
for i, (grid, err) in enumerate(zip(res.grids, res.errors)):
    order = f"{res.orders[i - 1]:.3f}" if i else "  -  "
    print(f"{grid.N:<6d} {err:.4e}   {order}")

print()
print("roundtrip defect sup |I[D omega] - (omega - omega_0)|")
print("N      linear        ml-profile")
for grid in grids:
    lin = fundamental_theorem_check(grid.nodes, grid, cfg)
    prof = ml_one(alpha, grid.nodes**alpha)
    ml = fundamental_theorem_check(prof, grid, cfg)
    print(f"{grid.N:<6d} {lin:.4e}    {ml:.4e}")

print()
print("both columns shrink under refinement; the identity column at")
print("first order, the roundtrip at roughly second order for smooth data.")
