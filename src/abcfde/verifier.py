"""Numerical checks of the differential-inequality and comparison theory.

Everything here is a grid diagnostic, not a proof: inequality verdicts
carry an explicit discretization slack C*h, with C calibrated from the
observed accuracy of the operator stack on the same grid.
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
from .operators import Grid, OperatorConfig, abc_derivative, ab_integral
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
        t = grid.nodes
        z = -cfg.lam * t**a
        power = t ** (beta - 1.0)
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
    at N = 64 and 6.7x at N = 1024.
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
    """
    cfg = spec.cfg
    t = grid.nodes
    v_vals = sample(v, t)
    w_vals = sample(w, t)
    fv = spec.f_samples(t, v_vals)
    fw = spec.f_samples(t, w_vals)
    if np.any(fv == 0.0) or np.any(fw == 0.0):
        raise DegenerateF("f vanishes along a candidate path")
    if slack_constant is None:
        slack_constant = estimate_discretization_constant(cfg, grid)
    slack = slack_constant * grid.h

    d_v = abc_derivative(v_vals / fv, grid, cfg)
    d_w = abc_derivative(w_vals / fw, grid, cfg)
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
    a C*h slack.  No such node raises :class:`HypothesisViolation`.
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
    if slack_constant is None:
        slack_constant = estimate_discretization_constant(cfg, grid)
    slack = slack_constant * grid.h
    deriv = float(abc_derivative(arr, grid, cfg)[n0])
    return ExtremumReport(
        node=n0,
        tau=float(grid.nodes[n0]),
        derivative=deriv,
        slack=slack,
        nonnegative_within_slack=deriv >= -slack,
    )
