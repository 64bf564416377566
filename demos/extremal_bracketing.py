"""Bracketing the maximal and minimal solutions.

Solves a family of eps-shifted problems along a geometric schedule and
watches the traces close in on the unperturbed solution from above and
below.  For the f == 1, g == 0 instance every shifted solve has a
closed form linear in eps, so the gaps halve exactly with the schedule.
"""

from abcfde import (
    Grid,
    OperatorConfig,
    ProblemSpec,
    bracket_maximal,
    bracket_minimal,
    check_enclosure,
    picard_solve,
)

spec = ProblemSpec(
    T=1.0,
    omega0=1.0,
    f=lambda tau, omega: 1.0,
    g=lambda tau, omega: 0.0,
    cfg=OperatorConfig(0.5),
)
grid = Grid(1.0, 64)

mx = bracket_maximal(spec, eps0=0.1, ratio=0.5, levels=8, grid=grid)
mn = bracket_minimal(spec, eps0=0.1, ratio=0.5, levels=8, grid=grid)

print("level  eps        sup gap (from above)")
for n, eps in enumerate(mx.eps_levels):
    gap = f"{mx.sup_gaps[n - 1]:.3e}" if n else "    -"
    print(f"{n:<6d} {eps:.3e}  {gap}")
print(f"ordering preserved above: {mx.ordering_ok}, below: {mn.ordering_ok}")

solution = picard_solve(spec, grid)
report = check_enclosure(solution, mx, mn)  # raises if the solution escapes
print()
print("solution enclosed")
print(f"slack used: {report.slack:.3e}")
print(f"worst margins: low {report.worst_low_margin:.3e}, "
      f"high {report.worst_high_margin:.3e}")

print()
print("endpoint values, showing the squeeze at tau = T")
print(f"  minimal  {mn.limit[-1]:.6f}")
print(f"  solution {solution.omega[-1]:.6f}")
print(f"  maximal  {mx.limit[-1]:.6f}")
