"""Manufactured-solution verification of the hybrid solver.

The forcing g(tau) = 2 tau^(1/2) E^2_{1/2,3/2}(-tau^(1/2)) is chosen so
that omega(tau) = 1 + tau^(1/2) E_{1/2,3/2}(-tau^(1/2)) solves the
problem exactly with f == 1 and omega(0) = 1.  Picard iteration on the
equivalent integral equation should then converge to that profile up to
quadrature error only.
"""

import numpy as np

from abcfde import Grid, load_problem, ml_two, picard_solve

PROBLEM = """
alpha = 0.5
T = 1
omega0 = 1
f = 1
g = 2 * tau^0.5 * mlf3(0.5, 1.5, 2, -tau^0.5)
"""

spec = load_problem(PROBLEM)


def exact(t):
    return 1.0 + t**0.5 * ml_two(0.5, 1.5, -(t**0.5))


print("N      sweeps  residual     sup error")
prev = None
for N in (64, 128, 256, 512):
    grid = Grid(1.0, N)
    trace = picard_solve(spec, grid)
    err = np.max(np.abs(trace.omega - exact(grid.nodes)))
    tag = "" if prev is None else f"  (x{prev / err:.2f} better)"
    print(f"{N:<6d} {trace.iterations:<7d} {trace.residual_sup:.1e}    "
          f"{err:.4e}{tag}")
    prev = err

grid = Grid(1.0, 256)
trace = picard_solve(spec, grid)
ex = exact(grid.nodes)
print()
print("solution profile on the coarse print grid")
for i in range(0, 257, 32):
    t = grid.nodes[i]
    print(f"  tau = {t:.3f}   omega = {trace.omega[i]:.6f}   "
          f"exact = {ex[i]:.6f}")
