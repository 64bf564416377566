"""Numerical checks of the differential-inequality and comparison theory.

Everything here is a grid diagnostic, not a proof: inequality verdicts
carry an explicit discretization slack.  By default it is estimated from
the checked data itself, by comparing its derivative on the grid with
the derivatives on the nested sub-grids of every 2nd and every 4th node
(:func:`nested_grid_slack`); an explicit constant C gives the slack C*h.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import DegenerateF, HypothesisViolation, MonotonicityViolation, ValidationError
from .expression import sample
from .mittag_leffler import ml_prabhakar
from .operators import Grid, OperatorConfig, abc_derivative, ab_integral, discretization
from .solver import BoxSample, ProblemSpec, check_monotone_quotient, max_pair_slope, sample_box


class Strictness(enum.Enum):
    STRICT = "STRICT"
    NONSTRICT = "NONSTRICT"


@dataclass
class GoldenResult:
    """Sup-norm errors of the closed-form derivative identity per grid."""

    grids: list[Grid]
    errors: list[float]
    orders: list[float]


@dataclass
class ComparisonReport:
    """Verdicts and margins of :func:`verify_comparison`.  ``slack`` is the
    discretization slack the margins were held to: the nested-grid
    estimate of :func:`nested_grid_slack` by default, C*h for an explicit
    constant C."""

    lower_ineq_ok: bool
    upper_ineq_ok: bool
    conclusion_ok: bool
    hypothesis_ok: bool
    strictness: Strictness
    Lg: float | None
    Lg_bound: float
    lower_margins: np.ndarray
    upper_margins: np.ndarray
    slack: float


@dataclass
class ExtremumReport:
    node: int
    tau: float
    derivative: float
    slack: float
    nonnegative_within_slack: bool


def golden_identity_check(
    beta: float,
    sigma: float,
    cfg: OperatorConfig,
    grids: Sequence[Grid],
) -> GoldenResult:
    """Compare the numerical derivative of tau^(beta-1) E^sigma_{alpha,beta}(z)
    against B/(1-alpha) * tau^(beta-1) E^(1+sigma)_{alpha,beta}(z) at
    z = -lam tau^alpha, with alpha = cfg.alpha and lam = cfg.lam: the
    identity holds only at the kernel rate.

    Each grid takes one engine call per function, on the grid's
    :attr:`Discretization.kernel_argument`, and the kernel's own call
    while the grid has none.

    beta <= 1 is rejected: the sampled function is unbounded (or has an
    unbounded derivative model) at 0 and the piecewise-linear slope
    construction breaks.  Each grid must be finer than the one before.
    """
    if beta <= 1.0:
        raise ValueError(f"beta must be > 1, got {beta}")
    if any(g1.N <= g0.N for g0, g1 in zip(grids, grids[1:])):
        raise ValidationError("grids", "each N must be larger than the one before")
    a, B = cfg.alpha, cfg.b
    errors = []
    for grid in grids:
        z = discretization(grid, a).kernel_argument
        power = grid.nodes ** (beta - 1.0)
        f = power * ml_prabhakar(a, beta, sigma, z)
        exact = B / (1.0 - a) * power * ml_prabhakar(a, beta, sigma + 1.0, z)
        num = abc_derivative(f, grid, cfg)
        errors.append(float(np.max(np.abs(num - exact))))
    orders = [
        math.log(e0 / e1) / math.log(g1.N / g0.N)
        for (e0, e1, g0, g1) in zip(errors, errors[1:], grids, grids[1:])
    ]
    return GoldenResult(grids=list(grids), errors=errors, orders=orders)


def estimate_discretization_constant(cfg: OperatorConfig, grid: Grid) -> float:
    """Calibration constant C with observed operator error ~= C * h.

    Taken from the closed-form derivative identity at (beta, sigma) =
    (1.5, 1) on the same grid.  That data's slope behaves like
    tau^(-1/2) near 0.  Data whose slope is steeper, such as
    E_alpha(tau^alpha) with alpha < 1/2, has operator error
    O(h^(2 alpha)), which exceeds C * h: at alpha = 0.3 it is 4.2x C * h
    at N = 64 and 6.7x at N = 1024.  The checks of this module take
    their default slack from :func:`nested_grid_slack` instead.
    """
    res = golden_identity_check(1.5, 1.0, cfg, [grid])
    return res.errors[0] / grid.h


def fundamental_theorem_check(samples, grid: Grid, cfg: OperatorConfig) -> float:
    """Sup-norm defect of the integral/derivative roundtrip.

    sup_n | (AB integral of ABC derivative)(tau_n) - (omega_n - omega_0) |.
    """
    arr = np.asarray(samples, dtype=float)
    roundtrip = ab_integral(abc_derivative(arr, grid, cfg), grid, cfg)
    return float(np.max(np.abs(roundtrip - (arr - arr[0]))))


#: Least N with a default slack: the sub-grid of every 4th node then has
#: at least 2 steps.
NESTED_MIN_N = 8


def nested_grid_slack(q: np.ndarray, d: np.ndarray, grid: Grid, cfg: OperatorConfig) -> float:
    """Default discretization slack of the derivatives d =
    ``abc_derivative(q, grid, cfg)`` of node samples q, one path or a
    stack of paths along the last axis, from nested sub-grids.

    D_N is d, and D_N/2 and D_N/4 are the derivatives of q on the
    sub-grids of every 2nd and every 4th node, whose kernel increments
    :meth:`Discretization.coarse_abc` takes from the grid's own F, with
    each sub-grid's convolution built on first use.  For each path,
    e1 = sup |D_N - D_N/2| and e2 = sup |D_N/2 - D_N/4|, each over the
    nodes the two grids share, estimate the error of D_N as
    e1 / (r - 1) with r = e2 / e1, the ratio 2^p of an order-p error.
    The slack is 2 e1 / (r - 1), a safety factor of 2, with r floored
    at 2^(1/4) (order 1/4), so a path whose sub-grids disagree without
    converging still gets at most 2 e1 / (2^(1/4) - 1), about 10.6 e1.
    It is the largest over the paths, and at least 4 eps sup |D_N|, a
    roundoff floor that gives exact data (constants, linear paths) a
    slack near 0 that rounding cannot flip a verdict across.

    Raises :class:`ValidationError` when N < :data:`NESTED_MIN_N`.
    """
    if grid.N < NESTED_MIN_N:
        raise ValidationError(
            "N", f"the default slack needs N >= {NESTED_MIN_N} for its sub-grids of N/2 and N/4 "
            f"steps, got {grid.N}"
        )
    d2 = abc_derivative(q, grid, cfg, step=2)
    d4 = abc_derivative(q, grid, cfg, step=4)
    e1 = np.max(np.abs(d[..., : 2 * d2.shape[-1] - 1 : 2] - d2), axis=-1)
    e2 = np.max(np.abs(d2[..., : 2 * d4.shape[-1] - 1 : 2] - d4), axis=-1)
    # e1 = 0 (sub-grids agree) gives r = inf and no slack
    r = np.divide(e2, e1, out=np.full_like(e1, math.inf), where=e1 > 0.0)
    estimate = 2.0 * e1 / (np.maximum(r, 2.0**0.25) - 1.0)
    floor = 4.0 * np.finfo(float).eps * np.max(np.abs(d))
    return float(max(np.max(estimate), floor))


def verify_comparison(
    spec: ProblemSpec,
    v: Callable[[float], float],
    w: Callable[[float], float],
    grid: Grid,
    mode: Strictness = Strictness.STRICT,
    slack_constant: float | None = None,
) -> ComparisonReport:
    """Check the lower/upper solution inequalities and the conclusion v < w.

    Lower margin: g(tau, v) - D[v/f(., v)] >= -slack.
    Upper margin: D[w/f(., w)] - g(tau, w) >= -slack.
    STRICT also demands at least one margin strictly above +slack at
    every interior node; conclusion is v < w (STRICT) or v <= w
    (NONSTRICT) at all nodes.  NONSTRICT additionally estimates the
    one-sided Lipschitz constant of g and compares it to B/(1-alpha).

    The slack is :func:`nested_grid_slack` of the two paths v/f(., v)
    and w/f(., w), which needs N >= :data:`NESTED_MIN_N` (else
    :class:`ValidationError`), or slack_constant * h when given.
    """
    cfg = spec.cfg
    t = grid.nodes
    v_vals = sample(v, t)
    w_vals = sample(w, t)
    fv = spec.f_samples(t, v_vals)
    fw = spec.f_samples(t, w_vals)
    if np.any(fv == 0.0) or np.any(fw == 0.0):
        raise DegenerateF("f vanishes along a candidate path")
    q = np.stack((v_vals / fv, w_vals / fw))
    d = abc_derivative(q, grid, cfg)
    if slack_constant is None:
        slack = nested_grid_slack(q, d, grid, cfg)
    else:
        slack = slack_constant * grid.h

    d_v, d_w = d
    g_v = spec.g_samples(t, v_vals)
    g_w = spec.g_samples(t, w_vals)
    lower_margins = g_v - d_v
    upper_margins = d_w - g_w

    lower_ok = bool(np.all(lower_margins[1:] >= -slack))
    upper_ok = bool(np.all(upper_margins[1:] >= -slack))
    Lg = None
    if mode is Strictness.STRICT:
        # one of the two inequalities must be strict at interior nodes
        strict_somewhere = np.maximum(lower_margins[1:], upper_margins[1:]) > slack
        lower_ok = lower_ok and upper_ok and bool(np.all(strict_somewhere))
        upper_ok = lower_ok
        hypothesis_ok = v_vals[0] < w_vals[0]
        conclusion_ok = bool(np.all(v_vals[1:] < w_vals[1:])) and hypothesis_ok
    else:
        hypothesis_ok = v_vals[0] <= w_vals[0]
        conclusion_ok = bool(np.all(v_vals <= w_vals))
        lo = float(min(v_vals.min(), w_vals.min()))
        hi = float(max(v_vals.max(), w_vals.max()))
        box = (lo, hi) if hi > lo else (lo - 0.5, hi + 0.5)
        Lg = estimate_g_onesided_lipschitz(sample_box(spec, box, 11, 31))
    return ComparisonReport(
        lower_ineq_ok=lower_ok,
        upper_ineq_ok=upper_ok,
        conclusion_ok=conclusion_ok,
        hypothesis_ok=hypothesis_ok,
        strictness=mode,
        Lg=Lg,
        Lg_bound=cfg.b / (1.0 - cfg.alpha),
        lower_margins=lower_margins,
        upper_margins=upper_margins,
        slack=slack,
    )


def estimate_g_onesided_lipschitz(sample: BoxSample) -> float:
    """Sampled one-sided constant L with
    g(tau, w) - g(tau, e) <= L * (w/f(tau, w) - e/f(tau, e)) for w > e.

    Requires the quotient map to be increasing on the box; a nonpositive
    slope of it on the lattice raises :class:`MonotonicityViolation`
    before g is sampled.  Clipped below at 0.
    """
    quotient = check_monotone_quotient(sample)
    if not quotient.passed:
        raise MonotonicityViolation(
            f"quotient map slope {quotient.min_slope} <= 0 at "
            f"(tau, omega) = ({quotient.tau_at_min}, {quotient.omega_at_min})"
        )
    # q = omega/f increases along each row, so q[i] > q[j] for i > j
    return max_pair_slope(sample.g, sample.omegas / sample.f)


def extremum_sign_check(
    m_samples,
    grid: Grid,
    cfg: OperatorConfig,
    zero_tol: float = 1e-8,
    slack_constant: float | None = None,
) -> ExtremumReport:
    """At a first touching point of zero from below, D^alpha m >= 0.

    Locates the largest node n0 > 0 with m(tau_n0) ~= 0 and m <= 0 on
    all earlier nodes, then reports the numerical derivative there with
    the slack :func:`nested_grid_slack` of m, or slack_constant * h when
    given.  No such node raises :class:`HypothesisViolation`; then, with
    no slack_constant, N < :data:`NESTED_MIN_N` raises
    :class:`ValidationError`.
    """
    arr = np.asarray(m_samples, dtype=float)
    if arr.shape != (grid.N + 1,):
        raise HypothesisViolation(
            f"expected {grid.N + 1} samples, got shape {arr.shape}"
        )
    # touching[n]: m ~= 0 at node n and m <= zero_tol on nodes 0 .. n
    touching = np.logical_and.accumulate(arr <= zero_tol) & (np.abs(arr) <= zero_tol)
    nodes = np.flatnonzero(touching[1:])
    if nodes.size == 0:
        raise HypothesisViolation(
            "no node touches zero from below (m(tau_n) ~= 0 with m <= 0 before)"
        )
    n0 = int(nodes[-1]) + 1
    d = abc_derivative(arr, grid, cfg)
    if slack_constant is None:
        slack = nested_grid_slack(arr, d, grid, cfg)
    else:
        slack = slack_constant * grid.h
    deriv = float(d[n0])
    return ExtremumReport(
        node=n0,
        tau=float(grid.nodes[n0]),
        derivative=deriv,
        slack=slack,
        nonnegative_within_slack=deriv >= -slack,
    )
