import math
import os

import numpy as np
import pytest
from hypothesis import settings

from abcfde import Grid, OperatorConfig, ProblemSpec, ml_two

# CI sets HYPOTHESIS_PROFILE=ci: the same examples on every run, and a
# failing one printed with the blob that reproduces it
settings.register_profile("ci", derandomize=True, print_blob=True)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))

# Hybrid instance with a known exact solution:
#   alpha = 1/2, f == 1, omega0 = 1,
#   g(tau) = 2 tau^(1/2) E^2_{1/2,3/2}(-tau^(1/2)),
#   omega(tau) = 1 + tau^(1/2) E_{1/2,3/2}(-tau^(1/2)).
MANUFACTURED_TEXT = """\
# manufactured instance, exact solution known in closed form
alpha = 0.5
T = 1
omega0 = 1
f = 1
g = 2 * tau^0.5 * mlf3(0.5, 1.5, 2, -tau^0.5)
B = UNIT
kernel = GAMMA
"""

# no closed form; Picard takes about 45 sweeps
NONLINEAR_TEXT = """\
alpha = 0.6
T = 2
omega0 = 0.5
f = 1 + 0.1 * sin(omega)
g = tau * cos(omega) + 0.5 * omega * tau
"""


def manufactured_exact_nodes(grid: Grid) -> np.ndarray:
    root = np.sqrt(grid.nodes)
    return 1.0 + root * ml_two(0.5, 1.5, -root)


@pytest.fixture
def manufactured_spec():
    from abcfde import load_problem

    return load_problem(MANUFACTURED_TEXT)


def constant_forcing_spec(omega0=0.0, alpha=0.5):
    """f == 1, g == 0: the solution is identically omega0 and every
    eps-perturbed solve has a closed form linear in eps."""
    return ProblemSpec(
        T=1.0,
        omega0=omega0,
        f=lambda tau, omega: 1.0,
        g=lambda tau, omega: 0.0,
        cfg=OperatorConfig(alpha),
    )


def perturbed_closed_form(grid: Grid, cfg: OperatorConfig, omega0, eps, sign):
    """Exact solution of the g == 0 family shifted by eps (GAMMA kernel)."""
    a, B = cfg.alpha, cfg.b
    t = grid.nodes
    return (omega0 + sign * eps) + sign * eps * (
        (1.0 - a) / B + t**a / (B * math.gamma(a))
    )
