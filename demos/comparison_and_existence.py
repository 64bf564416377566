"""Differential-inequality checks and the existence condition.

Builds a strict lower/upper solution pair by shifting a computed
solution down and up by eps E_alpha(tau^alpha), verifies the comparison
inequalities on the grid, and prints the contraction-style existence
report under both kernel conventions.
"""

import numpy as np

from abcfde import (
    Grid,
    OperatorConfig,
    ProblemSpec,
    Strictness,
    estimate_h_norm,
    estimate_lipschitz_f,
    existence_conditions,
    ml_one,
    picard_solve,
    sample_box,
    verify_comparison,
)

spec = ProblemSpec(
    T=1.0,
    omega0=1.0,
    f=lambda tau, omega: 1.0 + 0.1 * omega,
    g=lambda tau, omega: 0.2 * tau,
    cfg=OperatorConfig(0.5),
)
grid = Grid(1.0, 64)
trace = picard_solve(spec, grid)

eps = 0.3
shift = eps * ml_one(0.5, grid.nodes**0.5)
v_vals = trace.omega - shift
w_vals = trace.omega + shift

report = verify_comparison(
    spec,
    lambda t: float(np.interp(t, grid.nodes, v_vals)),
    lambda t: float(np.interp(t, grid.nodes, w_vals)),
    grid,
    mode=Strictness.STRICT,
)
print("strict comparison on the eps-shifted pair")
print(f"  hypothesis v(0) < w(0): {report.hypothesis_ok}")
print(f"  inequalities hold:      {report.lower_ineq_ok and report.upper_ineq_ok}")
print(f"  conclusion v < w:       {report.conclusion_ok}")
print(f"  nested-grid slack:      {report.slack:.3e}")

print()
print("existence condition under both kernel conventions")
sample = sample_box(spec, (0.0, 2.0))
L_f = estimate_lipschitz_f(sample)
h_norm = estimate_h_norm(sample)
for conv, rep in existence_conditions(spec, L_f, h_norm).items():
    print(f"  [{conv.value}] lhs = {rep.lhs:.4f}  satisfied = {rep.satisfied}  "
          f"R = {rep.R:.4f}")
