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

Every solve marches: the grid is cut into a few blocks (one below 2048
steps), solved in turn, each from the integral over the blocks before it
(Hairer, Lubich and Schlichte's block structure) with a per-node step on
the instantaneous term f (1-alpha)/B g, which is what holds Picard back:
on a grid of several blocks, a Newton step from a probe of f and g on
each block's first sweep, and a secant step after it.  Each later block
starts from the cubic through four solved nodes 16 steps apart (Diethelm,
Ford and Freed's predictor, to third order).  A block stops at the first
sweep whose residual max |omega - T(omega)| there is at most tol.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace
from typing import Callable, Optional

import numpy as np

from .errors import EvalError, MaxSweepsExceeded, NonFiniteIterate, ValidationError
from . import operators
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
#: A march block gives up on a row after this many sweeps in a row whose
#: diff grew.  Rows that converge grow at most once in a row (seed-301
#: benchmark draws of each family, and the long horizon at alpha = 0.5,
#: T = 9); a blow-up grows on every sweep.
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
        """((1 - alpha) / B, :func:`singular_integral_coefficient`): the
        weights of g's two terms in :func:`rhs_operator`, formed once per spec."""
        cfg = self.cfg
        return (1.0 - cfg.alpha) / cfg.b, singular_integral_coefficient(cfg)

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
    sweep: the largest residual of the nodes it swept) and the residuals
    |omega - rhs_operator(omega)| at the nodes."""

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
    g_weight, c = spec._sweep_constants
    # an overflow leaves a non-finite image, for the caller to see
    with np.errstate(over="ignore", invalid="ignore"):
        integral = c * rl_integral(g_vals, grid, spec.alpha)
        return f_vals * (spec.omega0 / spec.f00 + g_weight * g_vals + integral)


#: Iterate elements that one stack of :func:`picard_stack` holds, one row
#: at least; more rows go in blocks of :func:`stack_rows`.  N = 65536
#: takes one row at a time, as a level solved alone, so many levels on a
#: long grid never hold all their FFT rows at once.
STACK_ELEMENTS = 2**16


def stack_rows(grid: Grid) -> int:
    """Rows of N + 1 nodes that fit STACK_ELEMENTS, and at least one."""
    return max(1, STACK_ELEMENTS // (grid.N + 1))


#: A march splits the grid into at most MARCH_BLOCKS blocks of at least
#: MARCH_BLOCK_STEPS steps each, and a shorter grid into one.
MARCH_BLOCKS = 4
MARCH_BLOCK_STEPS = 1024
#: A march takes a node's secant step only where its slope J exceeds this.
SECANT_MIN_SLOPE = 0.2


def march_blocks(N: int) -> list[tuple[int, int]]:
    """The blocks (lo, hi) of nodes lo .. hi - 1 that a march on N + 1 nodes
    solves in turn: node 0 and the first N // count steps, then about as
    many steps each, count = min(MARCH_BLOCKS, N // MARCH_BLOCK_STEPS) or
    1.  The same for every row of a stack."""
    count = max(1, min(MARCH_BLOCKS, N // MARCH_BLOCK_STEPS))
    edges = [0] + [k * N // count + 1 for k in range(1, count + 1)]
    return list(zip(edges, edges[1:]))


def picard_stack(
    spec: ProblemSpec,
    grid: Grid,
    shifts=None,
    tol: float = DEFAULT_TOL,
    max_sweeps: int = DEFAULT_MAX_SWEEPS,
) -> list[SolutionTrace]:
    """Picard-iterate the problems (g + s, omega0 + s) of spec, one per
    shift s, as one stack of iterates; with shifts None, spec alone.

    A stack is spec and the column of its shifts.  Level s gives bitwise
    the trace of :func:`picard_solve` on ``perturbed(spec, |s|, sign of
    s)``: it starts from omega0 + s, marches on its own diffs, keeps them,
    and stops at its own sweep, with that sweep's residuals, and then
    stops changing.  The levels march as one stack, f, g and the
    convolutions called once per sweep on all levels still in the march
    block, in stacks of :func:`stack_rows` levels.  Raises what that
    per-level loop would raise first: the error of the first level that
    fails, naming a sample of that level.  For that, a stack whose sweep
    or probe raises is solved again by that very loop, level by level: at
    most one more solve of the stack, and only when a sweep or a probe
    raises.  Stacking pays: 6 seed-301 benchmark ``extremal`` draws per
    family (4 levels), medians of 9 on a 2-core VM, took 0.6 against 1.0
    ms manufactured, 11.9 against 19.2 ms nonlinear and 1.2 against 2.2
    ms long-horizon, against a loop over the levels.
    """
    if not tol > 0:
        raise ValueError("tol must be > 0")
    if not max_sweeps >= 1:
        raise ValueError("max_sweeps must be >= 1")
    stacks = [None]  # spec alone
    if shifts is not None:
        shifts, size = [float(s) for s in shifts], stack_rows(grid)
        stacks = [shifts[lo : lo + size] for lo in range(0, len(shifts), size)]
    traces: list[SolutionTrace] = []
    for stack in stacks:
        outcomes = _march(spec, stack, grid, tol, max_sweeps)
        if outcomes is None:  # level by level, each only once the one before it is taken
            outcomes = (picard_solve(perturbed(spec, abs(s), int(math.copysign(1.0, s))),
                                     grid, tol, max_sweeps) for s in stack)
        for outcome in outcomes:
            if isinstance(outcome, Exception):
                raise outcome
            traces.append(outcome)
    return traces


def _march(spec, shifts, grid, tol, max_sweeps) -> Optional[list]:
    """The trace of spec alone (shifts None) or of each level of one stack
    of :func:`picard_stack`, or the MaxSweepsExceeded or NonFiniteIterate
    that ends it, in level order.  Every array holds one row per level.
    A stack samples spec's f and g on its 2-D iterate and adds the shifts
    of its levels to g; level s starts from omega0 + s with the head
    (omega0 + s) / f(0, omega0 + s), taken after the first sample.  spec
    alone is sampled as one 1-D row, so that an EvalError names its
    sample k; its sweep raises, and its probe gives no slope.  A stack
    gives None when a sweep or a probe raises.

    The rows march block by block of :func:`march_blocks`: the first
    block from omega0, each later one from the cubic through the row's
    solved nodes lo - 1, lo - 17, lo - 33 and lo - 49 (spaced so that a
    node error of tol moves the start by about 1e-5 at most), with the
    integral from the nodes before it brought in once
    (:meth:`~abcfde.operators.Discretization.history`).  A sweep takes
    the image y of the iterate w; a row's diff is its largest residual
    |w - y| in the block.  A row that goes on takes each node's step
    w - (w - y) / J, or y where J is undefined or at most
    SECANT_MIN_SLOPE.  J = 1 - D: on the first sweep of each block of a
    march of several blocks, D is dy/dw through the node's own f and g,
    from a probe of both at w + d, d = (w + 2^-26 max(1, |w|)) - w,

        D = [(f(w + d) - f(w)) y / f + f ((1-alpha)/B + c h^alpha / Gamma(alpha+2))
             (g(w + d) - g(w))] / d;

    on a later sweep, D = (y - y') / (w - w') from the previous iterate
    w' and image y'.  At a diff of at most tol the row stops (in
    that block) with w, its residuals and the g at w that later blocks'
    history reads; after max_sweeps sweeps in the block, or
    MAX_GROWING_SWEEPS in a row whose diff grew, it fails, and at once
    where y is not finite, with NaN residuals after the block."""
    disc = operators.discretization(grid, spec.alpha)  # the one rl_integral shares
    alone = shifts is None
    starts = [spec.omega0] if alone else [spec.omega0 + s for s in shifts]
    shift = None if alone else np.array([[s] for s in shifts])
    g_weight, c = spec._sweep_constants
    head = None  # the column of the rows' omega0 / f(0, omega0)

    def sample(taus, w, rows):  # f and g at the iterate w of the given rows
        if alone:
            return spec.f_samples(taus, w[0])[None], spec.g_samples(taus, w[0])[None]
        return spec.f_samples(taus, w), spec.g_samples(taus, w) + shift[rows]

    omega = np.full((len(starts), grid.N + 1), [[x] for x in starts])
    known = np.empty_like(omega)  # g at each row's solved nodes
    residuals = np.empty_like(omega)
    diffs: list[list[float]] = [[] for _ in starts]
    outcomes: list = [None] * len(starts)
    live = list(range(len(starts)))
    for lo, hi in march_blocks(grid.N):
        whole = hi - lo == grid.N + 1  # one block: the nodes the tau-only memo of f and g keeps
        taus = grid.nodes if whole else grid.nodes[lo:hi]
        # the block's rows' heads, and the parts of the integral that it keeps
        heads = history = steps = integral = None
        if lo:
            heads = head[live]
            history = disc.history(known[live], lo, hi)
            steps = known[live, lo - 1 : hi]  # the g before the block, then the block's
            # the cubic through solved nodes lo - 49, lo - 33, lo - 17 and lo - 1,
            # in Newton's backward form in units s of 16 steps from node lo - 1
            p = omega[live, lo - 49 : lo : 16]
            d1, d2, d3 = (np.diff(p, k)[:, -1:] for k in (1, 2, 3))
            s = np.arange(1.0, hi - lo + 1) / 16
            w = p[:, 3:] + s * (d1 + (s + 1) / 2 * (d2 + (s + 2) / 3 * d3))
        else:
            w = omega[live, :hi]
            integral = np.zeros(w.shape)  # node 0's stays 0
        sweeping = list(live)
        block_diffs = {r: [] for r in live}
        growing = dict.fromkeys(live, 0)  # sweeps in a row whose diff grew
        w_prev = y_prev = slope = None
        while True:
            try:
                f, g = sample(taus, w, sweeping)
                if head is None:  # the first sweep, of every row
                    heads = head = np.array([[x / (spec.f00 if alone else spec.f(0.0, x))]
                                     for x in starts])
            except Exception:  # f and g are the caller's: a row may raise anything
                if alone:
                    raise
                return None
            probe = None
            # f and g a step d up, for Newton's slope on a block's first sweep; one
            # block takes none, since there the probe saves about what it costs
            if w_prev is None and not whole:
                with np.errstate(over="ignore", invalid="ignore"):
                    up = w + 2.0**-26 * np.maximum(1.0, np.abs(w))
                    d = up - w
                try:
                    probe = sample(taus, up, sweeping)
                except Exception:  # like the sweep's, but spec alone takes the Picard step
                    if not alone:
                        return None
            # an overflow leaves a non-finite image, which ends the row, and a
            # 0/0 secant an undefined J
            with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
                if lo:
                    steps[:, 1:] = g
                    y = f * (heads + g_weight * g + c * (history + disc.block(steps)))
                else:
                    integral[:, 1:] = disc.history(g, 1, hi) + disc.block(g)
                    y = f * (heads + g_weight * g + c * integral)
                if probe is not None:  # J = 1 - dy/dw of the node's own f and g
                    instant = g_weight + c * disc.rl[1]
                    slope = 1.0 - ((probe[0] - f) * y / f + f * instant * (probe[1] - g)) / d
                res = np.abs(w - y)
                keep = []
                for i, (r, diff) in enumerate(zip(sweeping, res.max(axis=1).tolist())):
                    done = block_diffs[r]
                    diffs[r].append(diff)
                    done.append(diff)
                    growing[r] = growing[r] + 1 if len(done) > 1 and diff > done[-2] else 0
                    # a finite diff needs a finite image; the converse can fail to overflow
                    finite = math.isfinite(diff) or np.isfinite(y[i]).all()
                    if finite and not (diff <= tol or len(done) == max_sweeps
                                       or growing[r] == MAX_GROWING_SWEEPS):
                        keep.append(i)
                        continue
                    # row r stops here, at w, whose image is y
                    omega[r, lo:hi], residuals[r, lo:hi] = w[i], res[i]
                    if diff <= tol:
                        known[r, lo:hi] = g[i]
                        continue
                    live.remove(r)
                    residuals[r, hi:] = np.nan  # the nodes after the block were not reached
                    trace = SolutionTrace(
                        grid, omega[r].copy(), diffs[r], residuals[r].copy(), False
                    )
                    n = lo + int(np.argmax(~(residuals[r, lo:hi] <= tol)))
                    at = f" at node {n} (tau = {grid.nodes[n]:.6g})"
                    of = "" if whole else f" of the march block of nodes {lo}..{hi - 1}"
                    if not finite:
                        text = f"sweep {len(done)}{of} gave a non-finite iterate{at} (diff {diff})"
                        outcomes[r] = NonFiniteIterate(text, trace=trace)
                        continue
                    last = f"last diff {diff:.3e}"
                    if len(done) > 1:  # the observed ratio; done[-2] > tol kept the row going
                        last += f", last ratio {diff / done[-2]:.3g}"
                    if growing[r] == MAX_GROWING_SWEEPS:
                        of += f", the diff growing over the last {MAX_GROWING_SWEEPS}"
                    text = f"no convergence{at} in {len(done)} sweeps{of} ({last})"
                    outcomes[r] = MaxSweepsExceeded(text, trace=trace)
                if not keep:
                    break
                if len(keep) < len(sweeping):  # rows left: the rest go on
                    sweeping = [sweeping[i] for i in keep]
                    w, y, w_prev, y_prev, slope, heads, history, steps, integral = (
                        a if a is None else a[keep]
                        for a in (w, y, w_prev, y_prev, slope, heads, history, steps, integral)
                    )
                if w_prev is not None:
                    slope = 1.0 - (y - y_prev) / (w - w_prev)
                step = y if slope is None else np.where(
                    np.isfinite(slope) & (slope > SECANT_MIN_SLOPE), w - (w - y) / slope, y
                )
            w_prev, y_prev, w = w, y, step
        if not live:
            break
    for r in live:
        outcomes[r] = SolutionTrace(grid, omega[r], diffs[r], residuals[r])
    return outcomes


def picard_solve(
    spec: ProblemSpec,
    grid: Grid,
    tol: float = DEFAULT_TOL,
    max_sweeps: int = DEFAULT_MAX_SWEEPS,
) -> SolutionTrace:
    """Iterate the integral-equation operator from omega == omega0, march
    block by march block (:func:`_march`), and return the iterate.

    Raises :class:`MaxSweepsExceeded` (carrying the best trace, and
    stating the last diff and the last ratio diffs[-1] / diffs[-2]) after
    max_sweeps sweeps in one block or MAX_GROWING_SWEEPS sweeps in a row
    whose diff grew, and its subclass :class:`NonFiniteIterate` at the
    first sweep whose image is not finite, naming the first node of the
    block whose residual exceeds tol, and its tau.  ``iterations`` counts
    every sweep of every block: max_sweeps caps each block, so a solve
    takes at most ``len(march_blocks(grid.N)) * max_sweeps`` sweeps.
    :func:`picard_stack` with shifts None.
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
