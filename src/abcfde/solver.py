"""Hybrid fractional problem instances and the Picard fixed-point solver.

A problem is the tuple (alpha, T, omega0, f, g, conventions) for

    D^alpha [ omega / f(tau, omega) ] = g(tau, omega),   omega(0) = omega0,

with D the Atangana-Baleanu derivative of Caputo type.  The solver
iterates the equivalent integral equation

    omega = f(tau, omega) * [ omega0/f(0, omega0)
                              + (1-alpha)/B * g(tau, omega)
                              + c_alpha * int_0^tau (tau-s)^(alpha-1) g ds ]

where c_alpha is alpha/(B Gamma(alpha)) under the GAMMA kernel
convention or alpha/(B (1-alpha)) under PAPER_HYBRID.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace
from typing import Callable, Optional

import numpy as np

from .errors import EvalError, MaxSweepsExceeded, NonFiniteIterate, ValidationError
from .expression import Expression, sample, takes_arrays
from .operators import (
    BConvention,
    Grid,
    KernelConvention,
    OperatorConfig,
    rl_integral,
)

DEFAULT_TOL = 1e-10
DEFAULT_MAX_SWEEPS = 200
G0_TOL = 1e-10
LATTICE_NEED = "need NTAU,NOMEGA >= 2"  # what sample_box asks of n_tau, n_omega
PROBLEM_KEYS = ("alpha", "T", "omega0", "f", "g", "B", "kernel", "omega_min", "omega_max")


@dataclass(frozen=True)
class ProblemSpec:
    """One hybrid problem instance.

    f and g are callables of (tau, omega).  f_samples and g_samples call
    them on whole arrays when they are marked by
    :func:`~abcfde.expression.takes_arrays`, as the expression callables
    of :func:`load_problem` and :func:`perturbed`'s shifts of them are;
    any other callable (a ``math.sin`` lambda, say) is called
    once per sample by :func:`~abcfde.expression.sample`.
    """

    T: float
    omega0: float
    f: Callable[[float, float], float]
    g: Callable[[float, float], float]
    cfg: OperatorConfig
    omega_box: Optional[tuple[float, float]] = None

    @property
    def alpha(self) -> float:
        return self.cfg.alpha

    @functools.cached_property
    def f00(self) -> float:
        """f(0, omega0), evaluated once per spec."""
        return self.f(0.0, self.omega0)

    def validate(self) -> None:
        if not 0 < self.T < math.inf:
            raise ValidationError("T", f"must be finite and > 0, got {self.T}")
        if abs(self.f00) == 0.0:
            raise ValidationError("f", f"f(0, omega0) = 0 (omega0 = {self.omega0})")
        g00 = self.g(0.0, self.omega0)
        if abs(g00) > G0_TOL:
            raise ValidationError(
                "g", f"g(0, omega0) = {g00}, must vanish (tol {G0_TOL})"
            )

    def f_samples(self, taus, omegas) -> np.ndarray:
        """f at the broadcast (tau, omega) samples."""
        return sample(self.f, taus, omegas)

    def g_samples(self, taus, omegas) -> np.ndarray:
        """g at the broadcast (tau, omega) samples."""
        return sample(self.g, taus, omegas)


@dataclass
class SolutionTrace:
    """A Picard solve: the last iterate, the sweep history (one diff per
    sweep) and the residuals |omega - rhs_operator(omega)| at the nodes."""

    grid: Grid
    omega: np.ndarray
    iterate_diffs: list[float]
    residuals: np.ndarray
    converged: bool = True

    @property
    def iterations(self) -> int:
        return len(self.iterate_diffs)

    @property
    def residual_sup(self) -> float:
        return float(np.max(self.residuals))


@dataclass
class ConditionReport:
    """Everything entering the existence condition, plus the ball radius.

    lhs = L_f * ( |omega0/f(0,omega0)| + bracket * h_norm ) where
    bracket = (1-alpha)/B + c T^alpha/Gamma(alpha+1), with c the
    :func:`singular_integral_coefficient`, bounds the g-terms of
    :func:`rhs_operator` per unit of sup |g|.  R is the literal radius
    M_f * lhs / (1 - lhs); R_alt drops the extra Lipschitz factor from
    the numerator.
    """

    L_f: float
    h_norm: float
    M_f: float
    lhs: float
    satisfied: bool
    R: float
    R_alt: float
    convention: KernelConvention


@dataclass
class QuotientReport:
    min_slope: float
    passed: bool
    tau_at_min: float
    omega_at_min: float


def load_problem(text: str) -> ProblemSpec:
    """Parse a plain-text problem file into a validated ProblemSpec.

    Format: one ``key = value`` pair per line, ``#`` comments.  Keys, each
    at most once: alpha, T, omega0, f, g, B (UNIT|AB), kernel
    (GAMMA|PAPER_HYBRID), and optional omega_min / omega_max.
    """
    entries: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValidationError("file", f"line {lineno}: expected 'key = value'")
        key, _, value = line.partition("=")
        key = key.strip()
        if key in entries or key not in PROBLEM_KEYS:
            fault = "repeated" if key in entries else "unknown"
            raise ValidationError(key, f"line {lineno}: {fault} key")
        entries[key] = value.strip()

    def need(key):
        if key not in entries:
            raise ValidationError(key, "missing required key")
        return entries[key]

    def number(key, raw_value):
        try:
            value = float(raw_value)
        except ValueError:
            raise ValidationError(key, f"not a number: {raw_value!r}") from None
        if not math.isfinite(value):
            raise ValidationError(key, f"must be finite, got {raw_value!r}")
        return value

    def choice(key, kind, default):
        name = entries.get(key, default)
        try:
            return kind(name)
        except ValueError:
            names = " or ".join(member.value for member in kind)
            raise ValidationError(key, f"must be {names}, got {name!r}") from None

    alpha = number("alpha", need("alpha"))
    if not 0.0 < alpha < 1.0:
        raise ValidationError("alpha", f"must lie in (0, 1), got {alpha}")
    T = number("T", need("T"))
    omega0 = number("omega0", need("omega0"))

    b_conv = choice("B", BConvention, "UNIT")
    k_conv = choice("kernel", KernelConvention, "GAMMA")

    f_expr = Expression(need("f"), {"tau", "omega"})
    g_expr = Expression(need("g"), {"tau", "omega"})

    box = None
    if "omega_min" in entries or "omega_max" in entries:
        lo = number("omega_min", need("omega_min"))
        hi = number("omega_max", need("omega_max"))
        if not lo < hi:
            raise ValidationError("omega_box", f"need omega_min < omega_max, got [{lo}, {hi}]")
        box = (lo, hi)

    spec = ProblemSpec(
        T=T,
        omega0=omega0,
        f=takes_arrays(lambda tau, omega: f_expr(tau=tau, omega=omega)),
        g=takes_arrays(lambda tau, omega: g_expr(tau=tau, omega=omega)),
        cfg=OperatorConfig(alpha, b_conv, k_conv),
        omega_box=box,
    )
    spec.validate()
    return spec


@dataclass(frozen=True, eq=False)
class BoxSample:
    """f, and g on first use, on taus over [0, T] (a column) by omegas (a row)."""

    spec: ProblemSpec
    taus: np.ndarray
    omegas: np.ndarray
    f: np.ndarray

    @functools.cached_property
    def g(self) -> np.ndarray:
        return self.spec.g_samples(self.taus, self.omegas)


def sample_box(spec: ProblemSpec, omega_box, n_tau: int = 21, n_omega: int = 41) -> BoxSample:
    """f on n_tau taus over [0, T] by n_omega omegas across omega_box =
    (lo, hi), which must be finite with lo < hi."""
    lo, hi = omega_box
    if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
        raise ValidationError("omega_box", f"need finite lo < hi, got ({lo}, {hi})")
    if n_tau < 2 or n_omega < 2:
        raise ValidationError("lattice", f"{LATTICE_NEED}, got {n_tau},{n_omega}")
    taus = np.linspace(0.0, spec.T, n_tau)[:, None]
    omegas = np.linspace(lo, hi, n_omega)
    return BoxSample(spec, taus, omegas, spec.f_samples(taus, omegas))


def max_pair_slope(num: np.ndarray, den: np.ndarray, absolute: bool = False) -> float:
    """max(0, largest (num[i] - num[j]) / (den[i] - den[j]), or |that|, over
    pairs i > j with den[i] != den[j]) in each row; den is one row for all
    rows of num, or one per row.  A row with a NaN slope is left out."""
    i, j = np.tril_indices(num.shape[1], -1)
    best = 0.0
    rows = max(1, 2**20 // max(i.size, 1))  # keeps each pair table near 2^20 entries
    for lo in range(0, num.shape[0], rows):
        n = num[lo : lo + rows]
        d = den[lo : lo + rows] if den.ndim > 1 else den
        with np.errstate(divide="ignore", invalid="ignore"):
            slopes = (n[:, i] - n[:, j]) / (d[..., i] - d[..., j])
        slopes = np.where(d[..., i] != d[..., j], np.abs(slopes) if absolute else slopes, 0.0)
        best = max(best, float(np.fmax.reduce(np.max(slopes, axis=1), initial=0.0)))
    return best


def check_monotone_quotient(sample: BoxSample) -> QuotientReport:
    """Report the minimal slope of omega -> omega/f(tau, omega) on the lattice.

    The map must be increasing for the integral-equation equivalence to
    hold; a nonpositive slope anywhere on the lattice fails the check, and
    so does an undefined one (NaN, from 0/0 where f and omega vanish).
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        q = sample.omegas / sample.f
        slopes = np.diff(q, axis=1) / np.diff(sample.omegas)
    # the first least slope; argmin puts a NaN (0/0 where f vanishes) first
    r, c = np.unravel_index(np.argmin(slopes), slopes.shape)
    best = float(slopes[r, c])
    return QuotientReport(
        min_slope=best,
        passed=best > 0.0,
        tau_at_min=float(sample.taus[r, 0]),
        omega_at_min=float(sample.omegas[c]),
    )


def singular_integral_coefficient(cfg: OperatorConfig) -> float:
    """Multiplier turning the normalized RL integral into the g-term.

    rl_integral already carries 1/Gamma(alpha), so GAMMA needs
    alpha/B while PAPER_HYBRID needs alpha Gamma(alpha) / (B (1-alpha)).
    """
    a, B = cfg.alpha, cfg.b
    if cfg.kernel_convention is KernelConvention.GAMMA:
        return a / B
    return a * math.gamma(a) / (B * (1.0 - a))


def rhs_operator(spec: ProblemSpec, omega: np.ndarray, grid: Grid) -> np.ndarray:
    """One application of the fixed-point operator to a node vector."""
    omega = np.asarray(omega, dtype=float)
    taus = grid.nodes
    cfg = spec.cfg
    a, B = cfg.alpha, cfg.b
    f_vals = spec.f_samples(taus, omega)
    g_vals = spec.g_samples(taus, omega)
    integral = singular_integral_coefficient(cfg) * rl_integral(g_vals, grid, a)
    head = spec.omega0 / spec.f00
    return f_vals * (head + (1.0 - a) / B * g_vals + integral)


def picard_solve(
    spec: ProblemSpec,
    grid: Grid,
    tol: float = DEFAULT_TOL,
    max_sweeps: int = DEFAULT_MAX_SWEEPS,
) -> SolutionTrace:
    """Iterate the integral-equation operator from omega == omega0.

    Stops when the sup-norm iterate difference drops to tol; raises
    :class:`MaxSweepsExceeded` (carrying the best trace) otherwise, and
    its subclass :class:`NonFiniteIterate` at the first sweep whose
    iterate is not finite.  That trace keeps the iterate before it, and
    its last diff and its residuals are those of the sweep that failed.
    """
    if not tol > 0:
        raise ValueError("tol must be > 0")
    if not max_sweeps >= 1:
        raise ValueError("max_sweeps must be >= 1")
    omega = np.full(grid.N + 1, spec.omega0, dtype=float)
    diffs: list[float] = []
    for _ in range(max_sweeps):
        new = rhs_operator(spec, omega, grid)
        diff = float(np.max(np.abs(new - omega)))
        diffs.append(diff)
        # a finite diff needs a finite new; the converse can fail to overflow
        if not math.isfinite(diff) and not np.isfinite(new).all():
            trace = SolutionTrace(grid, omega, diffs, np.abs(omega - new), converged=False)
            raise NonFiniteIterate(
                f"sweep {len(diffs)} gave a non-finite iterate (diff {diff})", trace=trace
            )
        omega = new
        if diff <= tol:
            res = np.abs(omega - rhs_operator(spec, omega, grid))
            return SolutionTrace(grid, omega, diffs, res)
    res = np.abs(omega - rhs_operator(spec, omega, grid))
    trace = SolutionTrace(grid, omega, diffs, res, converged=False)
    raise MaxSweepsExceeded(
        f"no convergence in {max_sweeps} sweeps (last diff {diffs[-1]:.3e})",
        trace=trace,
    )


def existence_condition(
    spec: ProblemSpec, L_f: float, h_norm: float
) -> ConditionReport:
    """Evaluate the contraction-style existence condition and ball radius.

    M_f = sup |f(tau, 0)| over [0, T]; where f(., 0) is undefined, M_f is
    NaN and the radii are infinite.
    """
    if L_f < 0 or h_norm < 0:
        raise ValueError("L_f and h_norm must be >= 0")
    cfg = spec.cfg
    a = cfg.alpha
    c = singular_integral_coefficient(cfg)
    # c T^a / Gamma(a + 1), written with Gamma(a + 1) = a Gamma(a)
    bracket = (1.0 - a) / cfg.b + c / a * spec.T**a / math.gamma(a)
    inner = abs(spec.omega0 / spec.f00) + bracket * h_norm
    lhs = L_f * inner
    satisfied = lhs < 1.0
    taus = np.linspace(0.0, spec.T, 1001)
    try:
        M_f = float(np.max(np.abs(spec.f_samples(taus, 0.0))))
    except EvalError:
        # f(., 0) is undefined (log(omega) on a box away from 0, say), so
        # the ball radius is unknown
        M_f = math.nan
    finite = satisfied and not math.isnan(M_f)
    R = M_f * lhs / (1.0 - lhs) if finite else math.inf
    R_alt = M_f * inner / (1.0 - lhs) if finite else math.inf
    return ConditionReport(
        L_f=L_f,
        h_norm=h_norm,
        M_f=M_f,
        lhs=lhs,
        satisfied=satisfied,
        R=R,
        R_alt=R_alt,
        convention=cfg.kernel_convention,
    )


def estimate_lipschitz_f(sample: BoxSample) -> float:
    """Sampled lower bound on the Lipschitz constant of f in omega."""
    return max_pair_slope(sample.f, sample.omegas, absolute=True)


def estimate_h_norm(sample: BoxSample) -> float:
    """Sampled sup of |g| over the (tau, omega) box."""
    return float(np.max(np.abs(sample.g)))


def solve_majorant(
    G: Callable[[float, float], float],
    cfg: OperatorConfig,
    grid: Grid,
    tol: float = DEFAULT_TOL,
    max_sweeps: int = DEFAULT_MAX_SWEEPS,
) -> np.ndarray:
    """Solve D^alpha m = G(tau, m), m(0) = 0 by Picard iteration.

    The f == 1 instance of the integral equation, started from m == 0.
    A sup-norm at or below tol supports (does not prove) the uniqueness
    criterion that zero is the only solution.
    """
    g00 = G(0.0, 0.0)
    if abs(g00) > G0_TOL:
        raise ValidationError("G", f"G(0, 0) = {g00}, must vanish")
    spec = ProblemSpec(
        T=grid.T,
        omega0=0.0,
        f=takes_arrays(lambda tau, omega: 1.0),
        g=G,
        cfg=cfg,
    )
    trace = picard_solve(spec, grid, tol=tol, max_sweeps=max_sweeps)
    return trace.omega


def perturbed(spec: ProblemSpec, eps: float, sign: int) -> ProblemSpec:
    """Shifted instance: g + sign*eps with omega(0) = omega0 + sign*eps.

    The g(0, omega0) = 0 validation is deliberately skipped; a fixed g
    cannot vanish at every shifted initial value, so the perturbed
    residual g(0, omega0 + sign*eps) + sign*eps is left to the caller
    to report.
    """
    if sign not in (+1, -1):
        raise ValueError("sign must be +1 or -1")
    g = spec.g

    def shifted(tau, omega):
        return g(tau, omega) + sign * eps

    shifted.takes_arrays = getattr(g, "takes_arrays", False)
    return replace(spec, omega0=spec.omega0 + sign * eps, g=shifted)
