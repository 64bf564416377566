"""Maximal and minimal solutions via vanishing perturbations.

The maximal solution is approached from above by solving the shifted
problems (g + eps, omega0 + eps) along a geometric schedule
eps_n = eps0 * ratio^n; the minimal solution mirrors this with -eps.
All levels are solved as one stack (:func:`~abcfde.solver.picard_stack`),
march block by march block, each level bitwise as :func:`solve_perturbed`
solves it alone.
The deliverable is the last trace together with the final sup-norm gap
as an error bar; no extrapolation is attempted.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import EnclosureViolation
from .operators import Grid
from .solver import (
    DEFAULT_MAX_SWEEPS,
    DEFAULT_TOL,
    ProblemSpec,
    SolutionTrace,
    perturbed,
    picard_solve,
    picard_stack,
)


@dataclass
class BracketResult:
    eps_levels: list[float]
    traces: list[SolutionTrace]
    ordering_ok: bool
    sup_gaps: list[float]
    first_violation_node: Optional[int] = None
    sign: int = +1

    @property
    def limit(self) -> np.ndarray:
        """The last trace; a plain limit, no extrapolation."""
        return self.traces[-1].omega


@dataclass
class EnclosureReport:
    slack: float
    worst_low_margin: float
    worst_high_margin: float


def solve_perturbed(
    spec: ProblemSpec,
    eps: float,
    sign: int,
    grid: Grid,
    tol: float = DEFAULT_TOL,
    max_sweeps: int = DEFAULT_MAX_SWEEPS,
) -> SolutionTrace:
    """Solve the eps-shifted problem; sign=+1 above, sign=-1 below."""
    if not 0.0 <= eps < math.inf:
        raise ValueError(f"eps must be finite and >= 0, got {eps}")
    return picard_solve(perturbed(spec, eps, sign), grid, tol=tol, max_sweeps=max_sweeps)


def _bracket(spec, eps0, ratio, levels, grid, tol, max_sweeps, sign):
    if not 0.0 < eps0 < math.inf:
        raise ValueError(f"eps0 must be finite and > 0, got {eps0}")
    if not 0.0 < ratio < 1.0:
        raise ValueError("ratio must lie in (0, 1)")
    if not isinstance(levels, (int, np.integer)) or levels < 2:
        raise ValueError(f"levels must be an integer >= 2, got {levels}")

    def step(n):  # between the last two of n levels
        return eps0 * (1 - ratio) * ratio ** (n - 2)

    # levels solved to about tol cannot be ordered closer than tol
    if tol > 0 and step(levels) < tol:
        usable = 1  # the most levels whose last step is at least tol
        if step(2) >= tol:
            usable = 2 + int(math.log(tol / step(2)) / math.log(ratio))
            usable += step(usable + 1) >= tol
            usable -= step(usable) < tol
        raise ValueError(
            f"the step between the last two of {levels} eps levels, {step(levels):.3g}, "
            f"is below tol={tol:.3g}; "
            + (f"use {usable} levels or fewer" if usable >= 2 else "raise eps0 or lower tol")
        )
    eps_levels = [eps0 * ratio**n for n in range(levels)]
    traces = picard_stack(
        spec, grid, [sign * eps for eps in eps_levels], tol=tol, max_sweeps=max_sweeps
    )
    ordering_ok = True
    violation_node = None
    sup_gaps = []
    for prev, cur in zip(traces, traces[1:]):
        gap = sign * (prev.omega - cur.omega)  # expected > 0 at interior nodes
        sup_gaps.append(float(np.max(np.abs(prev.omega - cur.omega))))
        bad = np.nonzero(gap[1:] <= 0.0)[0]
        if ordering_ok and bad.size:
            ordering_ok = False
            violation_node = int(bad[0]) + 1
    return BracketResult(
        eps_levels=eps_levels,
        traces=traces,
        ordering_ok=ordering_ok,
        sup_gaps=sup_gaps,
        first_violation_node=violation_node,
        sign=sign,
    )


def bracket_maximal(
    spec: ProblemSpec,
    grid: Grid,
    eps0: float = 0.1,
    ratio: float = 0.5,
    levels: int = 8,
    tol: float = DEFAULT_TOL,
    max_sweeps: int = DEFAULT_MAX_SWEEPS,
) -> BracketResult:
    """Approach the maximal solution from above; traces must decrease.

    Raises ValueError, before any sweep, when eps0 is not finite and > 0,
    when levels is not an integer >= 2, or when the last step of the eps
    schedule, eps0 (1 - ratio) ratio^(levels - 2), is below tol; it names
    the most levels tol allows.
    A level ends in NonFiniteIterate where its shift overflows g, and in
    ValidationError where its start zeroes f(0, .)."""
    return _bracket(spec, eps0, ratio, levels, grid, tol, max_sweeps, sign=+1)


def bracket_minimal(
    spec: ProblemSpec,
    grid: Grid,
    eps0: float = 0.1,
    ratio: float = 0.5,
    levels: int = 8,
    tol: float = DEFAULT_TOL,
    max_sweeps: int = DEFAULT_MAX_SWEEPS,
) -> BracketResult:
    """Approach the minimal solution from below; traces must increase.

    Refuses the eps schedules, and ends the levels, as :func:`bracket_maximal` does."""
    return _bracket(spec, eps0, ratio, levels, grid, tol, max_sweeps, sign=-1)


def check_enclosure(
    solution: SolutionTrace,
    maximal: BracketResult,
    minimal: BracketResult,
    slack_constant: float = 1.0,
) -> EnclosureReport:
    """Assert minimal - slack <= solution <= maximal + slack nodewise.

    slack = slack_constant * h + eps_last covers discretization error
    plus the unvanished perturbation of the final bracket level.
    """
    grid = solution.grid
    eps_last = max(maximal.eps_levels[-1], minimal.eps_levels[-1])
    slack = slack_constant * grid.h + eps_last
    hi = maximal.limit + slack
    lo = minimal.limit - slack
    low_margin = solution.omega - lo
    high_margin = hi - solution.omega
    bad_low = np.nonzero(low_margin < 0.0)[0]
    bad_high = np.nonzero(high_margin < 0.0)[0]
    if bad_low.size or bad_high.size:
        if bad_low.size:
            node = int(bad_low[0])
            amount = float(low_margin[node])
        else:
            node = int(bad_high[0])
            amount = float(high_margin[node])
        raise EnclosureViolation(
            f"solution escapes bracket at node {node} by {-amount:.3e} "
            f"(slack {slack:.3e})",
            node=node,
        )
    return EnclosureReport(
        slack=slack,
        worst_low_margin=float(np.min(low_margin)),
        worst_high_margin=float(np.min(high_margin)),
    )
