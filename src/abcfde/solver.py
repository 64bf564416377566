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
    FFT_MIN_LENGTH,
    BConvention,
    Grid,
    KernelConvention,
    OperatorConfig,
    rl_integral,
)

DEFAULT_TOL = 1e-10
DEFAULT_MAX_SWEEPS = 200
#: Picard gives up on a row after this many sweeps in a row whose diff grew.
#: Rows that converge grow at most 3 in a row on the benchmark problems (the
#: long horizon at alpha = 0.5, T = 9), and a diverging test problem grows
#: 9 in a row; a blow-up grows on every sweep.
MAX_GROWING_SWEEPS = 30
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

    @functools.cached_property
    def _sweep_constants(self) -> tuple:
        """(omega0 / f00, (1 - alpha) / B, :func:`singular_integral_coefficient`):
        the constants of :func:`rhs_operator`, formed once per spec."""
        cfg = self.cfg
        return self.omega0 / self.f00, (1.0 - cfg.alpha) / cfg.b, singular_integral_coefficient(cfg)

    def validate(self) -> None:
        if not 0 < self.T < math.inf:
            raise ValidationError("T", f"must be finite and > 0, got {self.T}")
        if not 0.0 < abs(self.f00) < math.inf:
            raise ValidationError(
                "f", f"f(0, omega0) = {self.f00}, must be finite and nonzero "
                f"(omega0 = {self.omega0})"
            )
        g00 = self.g(0.0, self.omega0)
        if not abs(g00) <= G0_TOL:
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
    pairs i > j) in each row, for den increasing along each row; den is
    one row for all rows of num, or one per row.  A chord's slope is a
    weighted mean of the neighbour slopes it spans, so only neighbours are
    compared.  A row with a NaN slope is left out."""
    with np.errstate(invalid="ignore"):  # inf - inf in num
        slopes = np.diff(num, axis=1) / np.diff(den)
    if absolute:
        slopes = np.abs(slopes)
    return float(np.fmax.reduce(np.max(slopes, axis=1), initial=0.0))


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
    """One application of the fixed-point operator to a node vector, or
    to each row of a stack of them (along the last axis)."""
    omega = np.asarray(omega, dtype=float)
    f_vals = spec.f_samples(grid.nodes, omega)
    g_vals = spec.g_samples(grid.nodes, omega)
    head, g_weight, c = spec._sweep_constants
    # an overflow leaves a non-finite iterate, which picard_stack reports
    with np.errstate(over="ignore", invalid="ignore"):
        integral = c * rl_integral(g_vals, grid, spec.alpha)
        return f_vals * (head + g_weight * g_vals + integral)


#: Iterate elements that one stack of :func:`picard_stack` holds, one row
#: at least; more rows go in blocks of :func:`stack_rows`.  N = 65536
#: takes one row at a time, as a level solved alone, so many levels on a
#: long grid never hold all their FFT rows at once.
STACK_ELEMENTS = 2**16


def stack_rows(grid: Grid) -> int:
    """Rows of N + 1 nodes that fit STACK_ELEMENTS, and at least one."""
    return max(1, STACK_ELEMENTS // (grid.N + 1))


#: A slow row on a grid of N nodes restarts from a solve on N // COARSEN,
#: when that coarse grid still convolves by FFT (N >= 4096).
COARSEN = 8
#: Further sweeps a row must be predicted to need after its second, at
#: its observed ratio, to restart.  Nonlinear benchmark rows predict 31-40
#: and long-horizon ones about 5; such a long-horizon row at N = 4096
#: sweeps 7 times in 3.7 ms, and restarted took 6 sweeps and 4.8 ms.
RESTART_MIN_SWEEPS = 16
#: The coarse solve of a restart on Nc nodes stops at the diff
#: COARSE_TOL (FFT_MIN_LENGTH / Nc)^2, or at tol when that is looser.  The
#: fine sweeps go on from the gap between the two grids' solutions, which
#: is about 1e-5 on the nonlinear benchmark problems at Nc = 512 and
#: shrinks like Nc^-2 there; a coarse solve far below it saves no fine
#: sweep.
COARSE_TOL = 1e-6


def _predicted_sweeps(diffs: list[float], tol: float) -> float:
    """The further sweeps that a row with these first two diffs would need
    to reach tol at their ratio, or 0 when its diffs do not shrink."""
    ratio = diffs[1] / diffs[0]
    if not 0.0 < ratio < 1.0:
        return 0.0
    # log(tol / d2) / log(d2 / d1), free of the underflow of tol / d2
    return (math.log(tol) - math.log(diffs[1])) / math.log(ratio)


@dataclass(frozen=True, eq=False)
class _Stack(ProblemSpec):
    """Rows of :func:`picard_stack` as one spec for :func:`rhs_operator`:
    omega0 is the column of the rows' starts, g_samples adds the column of
    their shifts to g, and f00 is the column of the rows' own f00."""

    rows: tuple = ()
    shifts: Optional[np.ndarray] = None

    @functools.cached_property
    def f00(self) -> np.ndarray:
        return np.array([[row.f00] for row in self.rows])

    def g_samples(self, taus, omegas) -> np.ndarray:
        return super().g_samples(taus, omegas) + self.shifts


def picard_stack(
    spec: ProblemSpec,
    grid: Grid,
    shifts=None,
    tol: float = DEFAULT_TOL,
    max_sweeps: int = DEFAULT_MAX_SWEEPS,
) -> list[SolutionTrace]:
    """Picard-iterate the problems (g + s, omega0 + s) of spec, one per
    shift s, as one stack of iterates; with shifts None, spec alone.

    Row r gives bitwise the trace of :func:`picard_solve` on its own
    problem, ``perturbed(spec, |s|, sign of s)``: it starts from its own
    omega0, restarts on its own diffs, keeps its own diffs, stops at its
    own sweep and then stops changing, and its residuals ride on the next
    sweep of the stack.  The rows that restart after their second sweep
    are solved as one stack on the coarse grid.  f,
    g and the operator are called once per sweep on all rows still in the
    stack, in blocks of :func:`stack_rows` rows.  Raises what that
    per-row loop would raise first: the error of the first row that
    fails, naming a sample of that row.  For that, a block whose stacked
    sweep raises is solved again row by row: at most one more solve of
    the block, and only when a sweep raises.
    """
    if not tol > 0:
        raise ValueError("tol must be > 0")
    if not max_sweeps >= 1:
        raise ValueError("max_sweeps must be >= 1")
    if shifts is None:
        rows, shifts = [spec], [0.0]  # one row never reads its shift
    else:
        shifts = [float(s) for s in shifts]
        rows = [perturbed(spec, abs(s), int(math.copysign(1.0, s))) for s in shifts]
    caps = [max_sweeps] * len(rows)
    traces: list[SolutionTrace] = []
    size = stack_rows(grid)
    for lo in range(0, len(rows), size):
        block = slice(lo, lo + size)
        for outcome in _solve_rows(spec, rows[block], shifts[block], grid, tol, caps[block]):
            if isinstance(outcome, Exception):
                raise outcome
            traces.append(outcome)
    return traces


def _solve_rows(spec, rows, shifts, grid, tol, caps):
    """Yield the outcome of each row of one block, in row order: its trace,
    or the error that ends it; caps holds each row's max_sweeps.  A block
    whose stacked sweep raises is solved again row by row, each row only
    once the one before it is taken."""
    if len(rows) > 1:
        outcomes = _solve_block(spec, rows, shifts, grid, tol, caps)
        if outcomes is not None:
            yield from outcomes
            return
    for row, shift, cap in zip(rows, shifts, caps):
        try:
            yield _solve_block(spec, [row], [shift], grid, tol, [cap])[0]
        except Exception as exc:  # f and g are the caller's: a row may raise anything
            yield exc


def _coarse_starts(spec, rows, shifts, grid, tol, caps) -> list:
    """For each row, the interpolated iterate of its solve on a grid
    COARSEN times coarser, to the tol that COARSE_TOL sets and in at most
    its cap of sweeps, or None where that solve fails."""
    coarse = Grid(grid.T, grid.N // COARSEN)
    coarse_tol = max(tol, COARSE_TOL * (FFT_MIN_LENGTH / coarse.N) ** 2)
    return [
        None if isinstance(outcome, Exception)
        else np.interp(grid.nodes, coarse.nodes, outcome.omega)
        for outcome in _solve_rows(spec, rows, shifts, coarse, coarse_tol, caps)
    ]


def _solve_block(spec, rows, shifts, grid, tol, caps) -> Optional[list]:
    """The trace of each row of one block of :func:`picard_stack`, or the
    MaxSweepsExceeded or NonFiniteIterate that ends it, in row order;
    caps holds each row's max_sweeps.  None when a sweep of several rows
    raises; a sweep of one row raises.  A row whose first two diffs
    predict more than RESTART_MIN_SWEEPS further sweeps
    (:func:`_predicted_sweeps`) goes on from :func:`_coarse_starts`, where
    it has a start for it, capped at COARSEN times that many."""
    live = list(range(len(rows)))
    omega = np.full((len(rows), grid.N + 1), [[row.omega0] for row in rows])
    diffs: list[list[float]] = [[] for _ in rows]
    growing = [0] * len(rows)  # sweeps in a row whose diff grew, per row
    due: dict[int, bool] = {}  # row -> converged, for rows whose residuals are next
    outcomes: list = [None] * len(rows)
    stack = None
    may_restart = grid.N // COARSEN >= FFT_MIN_LENGTH
    while live:
        if stack is None:  # the first sweep, or rows left
            stack = rows[live[0]] if len(live) == 1 else _Stack(
                spec.T, np.array([[rows[r].omega0] for r in live]), spec.f, spec.g, spec.cfg,
                spec.omega_box, rows=tuple(rows[r] for r in live),
                shifts=np.array([[shifts[r]] for r in live]),
            )
        try:
            new = rhs_operator(stack, omega[0] if len(live) == 1 else omega, grid)
        except Exception:  # f and g are the caller's: a row may raise anything
            if len(rows) == 1:
                raise
            return None
        new = new.reshape(omega.shape)
        gap = np.abs(omega - new)
        keep = []
        for i, (r, diff) in enumerate(zip(live, gap.max(axis=1).tolist())):
            if r not in due:
                diffs[r].append(diff)
                # a finite diff needs a finite new; the converse can fail to overflow
                if math.isfinite(diff) or np.isfinite(new[i]).all():
                    grew = len(diffs[r]) > 1 and diff > diffs[r][-2]
                    growing[r] = growing[r] + 1 if grew else 0
                    stuck = len(diffs[r]) == caps[r] or growing[r] == MAX_GROWING_SWEEPS
                    if diff <= tol or stuck:
                        due[r] = diff <= tol
                    keep.append(i)
                    continue
            # row r is done: gap holds its residuals, or its sweep was not finite
            trace = SolutionTrace(grid, omega[i].copy(), diffs[r], gap[i].copy(), due.get(r, False))
            if trace.converged:
                outcomes[r] = trace
            elif r in due:
                blowing_up = growing[r] == MAX_GROWING_SWEEPS
                last = f"last diff {diffs[r][-1]:.3e}"
                if len(diffs[r]) > 1:  # the observed ratio; diffs[r][-2] > tol kept the row going
                    last += f", last ratio {diffs[r][-1] / diffs[r][-2]:.3g}"
                outcomes[r] = MaxSweepsExceeded(
                    f"no convergence in {len(diffs[r])} sweeps"
                    + (f", the diff growing over the last {MAX_GROWING_SWEEPS}" if blowing_up else "")
                    + f" ({last})",
                    trace=trace,
                )
            else:
                outcomes[r] = NonFiniteIterate(
                    f"sweep {len(diffs[r])} gave a non-finite iterate (diff {diff})", trace=trace
                )
        omega = new
        if len(keep) < len(live):
            live = [live[i] for i in keep]
            omega, stack = omega[keep], None
        predicted = [_predicted_sweeps(diffs[r], tol) if may_restart and r not in due
                     and len(diffs[r]) == 2 else 0.0 for r in live]
        slow = [i for i, sweeps in enumerate(predicted) if sweeps > RESTART_MIN_SWEEPS]
        if slow:
            picked = [live[i] for i in slow]
            starts = _coarse_starts(
                spec, [rows[r] for r in picked], [shifts[r] for r in picked], grid, tol,
                [min(caps[live[i]], math.ceil(COARSEN * predicted[i])) for i in slow],
            )
            for i, start in zip(slow, starts):
                if start is not None:
                    omega[i] = start
    return outcomes


def picard_solve(
    spec: ProblemSpec,
    grid: Grid,
    tol: float = DEFAULT_TOL,
    max_sweeps: int = DEFAULT_MAX_SWEEPS,
) -> SolutionTrace:
    """Iterate the integral-equation operator from omega == omega0.

    On N >= 4096 nodes (N // COARSEN >= FFT_MIN_LENGTH), a slow solve
    restarts after its second sweep: when its diffs d1, d2 shrink and
    log(tol / d2) / log(d2 / d1) predicts more than RESTART_MIN_SWEEPS
    further sweeps, the same problem is solved on Nc = N // COARSEN nodes
    (restarting there in turn) and, if that solve converges, its iterate
    interpolated to the nodes replaces the current one.  The coarse solve
    stops at the looser of tol and COARSE_TOL (FFT_MIN_LENGTH / Nc)^2,
    near the gap between the two grids' solutions from which the sweeps
    here go on, and fails after min(max_sweeps, ceil(COARSEN * the
    predicted further sweeps)) sweeps: at about 1/COARSEN of the cost of
    a sweep here, that is about the cost of the sweeps it was to save.
    The fixed point and the stop rules here are the same either way.  The
    trace keeps one diff per sweep on this grid, so ``iterations`` counts
    the sweeps on this grid only.  A solve whose coarse solve fails sweeps
    on as if it had none.

    Stops when the sup-norm iterate difference drops to tol; raises
    :class:`MaxSweepsExceeded` (carrying the best trace, and stating the
    last diff and the last ratio diffs[-1] / diffs[-2]) after max_sweeps
    sweeps, or after MAX_GROWING_SWEEPS sweeps in a row whose diff grew, and
    its subclass :class:`NonFiniteIterate` at the first sweep whose
    iterate is not finite.  That trace keeps the iterate before it, and
    its last diff and its residuals are those of the sweep that failed.
    The one-row case of :func:`picard_stack`.
    """
    return picard_stack(spec, grid, tol=tol, max_sweeps=max_sweeps)[0]


def existence_condition(spec: ProblemSpec, L_f: float, h_norm: float) -> ConditionReport:
    """Evaluate the contraction-style existence condition and ball radius
    under spec's kernel convention."""
    return existence_conditions(spec, L_f, h_norm)[spec.cfg.kernel_convention]


def existence_conditions(
    spec: ProblemSpec, L_f: float, h_norm: float
) -> dict[KernelConvention, ConditionReport]:
    """The existence condition and ball radius under each kernel
    convention, GAMMA first.

    M_f = sup |f(tau, 0)| over [0, T], which depends on neither, is
    sampled once; where f(., 0) is undefined, M_f is NaN and the radii are
    infinite.
    """
    if L_f < 0 or h_norm < 0:
        raise ValueError("L_f and h_norm must be >= 0")
    taus = np.linspace(0.0, spec.T, 1001)
    try:
        M_f = float(np.max(np.abs(spec.f_samples(taus, 0.0))))
    except EvalError:
        # f(., 0) is undefined (log(omega) on a box away from 0, say), so
        # the ball radius is unknown
        M_f = math.nan
    reports = {}
    for convention in KernelConvention:
        cfg = spec.cfg
        if convention is not cfg.kernel_convention:
            cfg = replace(cfg, kernel_convention=convention)
        a = cfg.alpha
        c = singular_integral_coefficient(cfg)
        # c T^a / Gamma(a + 1), written with Gamma(a + 1) = a Gamma(a)
        bracket = (1.0 - a) / cfg.b + c / a * spec.T**a / math.gamma(a)
        inner = abs(spec.omega0 / spec.f00) + bracket * h_norm
        lhs = L_f * inner
        satisfied = lhs < 1.0
        finite = satisfied and not math.isnan(M_f)
        reports[convention] = ConditionReport(
            L_f=L_f,
            h_norm=h_norm,
            M_f=M_f,
            lhs=lhs,
            satisfied=satisfied,
            R=M_f * lhs / (1.0 - lhs) if finite else math.inf,
            R_alt=M_f * inner / (1.0 - lhs) if finite else math.inf,
            convention=convention,
        )
    return reports


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
