"""Seeded problem streams, oracles and output checks for the benchmark.

Every instance is drawn from a stratified stream: the k-th task of a
command falls in cell ``CELL_ORDER[k % CELLS]`` of each parameter range
and the seed places it inside that cell.  Any prefix of the cell order
has its median at the centre of the range, so the per-run median task
sees the same difficulty whichever seed is used and however many tasks
fit in the run.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

CELLS = 16
# Symmetric pairs around the centre, the lower member first.
CELL_ORDER = (7, 8, 3, 12, 5, 10, 1, 14, 6, 9, 2, 13, 4, 11, 0, 15)

STRICT, NONSTRICT = "STRICT", "NONSTRICT"
PI = "3.141592653589793"

# Acceptance bounds of the output checks.
RESIDUAL_MAX = 1e-8


@dataclass(frozen=True)
class Instance:
    """One generated problem and everything needed to check its outputs."""

    family: str
    alpha: float
    T: float
    n: int
    f_src: str
    g_src: str
    f: Callable | None = None  # numpy f(tau, omega) for the reference solver
    g: Callable | None = None
    exact_src: str | None = None  # closed-form solution in the expression language
    omega0: float = 1.0

    def text(self) -> str:
        return (
            f"alpha = {self.alpha!r}\nT = {self.T!r}\nomega0 = {self.omega0!r}\n"
            f"f = {self.f_src}\ng = {self.g_src}\n"
        )

    @property
    def key(self) -> tuple:
        return (self.alpha, self.T, self.n)


@dataclass(frozen=True)
class ComparePair:
    lower: str
    upper: str
    mode: str
    # (exit code, hypothesis_ok, lower_ineq_ok, upper_ineq_ok, conclusion_ok)
    verdict: tuple


@dataclass(frozen=True)
class Family:
    why: str
    shares: dict[str, float]  # share of the run's time per command
    n: int
    err_bound: Callable  # Instance -> max abs error against the oracle a solve may have
    draw: Callable  # (u, v, command, n) -> Instance, u and v in [0, 1)
    pairs: Callable  # Instance -> (ordered pair, swapped pair)


def _ml_series(alpha: float, beta: float, z: np.ndarray) -> np.ndarray:
    """E_{alpha,beta}(z) by its power series; exact to rounding for |z| <= 3."""
    out = np.zeros_like(z)
    zk = np.ones_like(z)
    for k in range(120):
        out += zk / math.gamma(alpha * k + beta)
        zk = zk * z
    return out


def exact_manufactured(alpha: float, tau: np.ndarray) -> np.ndarray:
    """1 + tau^a E_{a,1+a}(-a/(1-a) tau^a), the manufactured solution."""
    x = tau**alpha
    return 1.0 + x * _ml_series(alpha, 1.0 + alpha, -alpha / (1.0 - alpha) * x)


def reference_solution(inst: Instance, refine: int = 4) -> np.ndarray:
    """Picard solution on a grid ``refine`` times finer, at the task's nodes.

    A separate numpy implementation of the integral equation with
    product-trapezoidal Riemann-Liouville weights, convolved by FFT.
    B = 1 and the GAMMA kernel convention, as in the generated files.
    """
    a, n = inst.alpha, inst.n * refine
    tau = np.linspace(0.0, inst.T, n + 1)
    h = inst.T / n
    coef = a * h**a / math.gamma(a + 2.0)
    k = np.arange(n + 1, dtype=float)
    c0 = np.zeros(n + 1)
    c0[1:] = (k[1:] - 1.0) ** (a + 1.0) - k[1:] ** (a + 1.0) + (a + 1.0) * k[1:] ** a
    m = np.arange(1, n, dtype=float)
    b = (m + 1.0) ** (a + 1.0) - 2.0 * m ** (a + 1.0) + (m - 1.0) ** (a + 1.0)
    size = 1 << (2 * n).bit_length()
    b_hat = np.fft.rfft(b, size)
    head = inst.omega0 / inst.f(0.0, inst.omega0)

    def integral(gv):
        out = np.zeros(n + 1)
        out[1:] = c0[1:] * gv[0] + gv[1:]
        conv = np.fft.irfft(np.fft.rfft(gv[1:n], size) * b_hat, size)
        out[2:] += conv[: n - 1]
        return coef * out

    omega = np.full(n + 1, inst.omega0)
    for _ in range(1000):
        gv = inst.g(tau, omega)
        new = inst.f(tau, omega) * (head + (1.0 - a) * gv + integral(gv))
        diff = float(np.max(np.abs(new - omega)))
        omega = new
        if diff <= 1e-12:
            return omega[::refine]
    raise RuntimeError(f"reference Picard did not converge for {inst}")


def oracle(inst: Instance) -> np.ndarray:
    """Solution at the task's nodes from code independent of abcfde."""
    if inst.family == "manufactured":
        return exact_manufactured(inst.alpha, np.linspace(0.0, inst.T, inst.n + 1))
    return reference_solution(inst)


# ---------------------------------------------------------------------------
# families


def _cell(rng: random.Random, k: int) -> float:
    return (CELL_ORDER[k % CELLS] + rng.random()) / CELLS


def _h(inst: Instance) -> float:
    return inst.T / inst.n


# The error bounds are fits to the errors of abcfde's solves at the
# corners of each family's range, at N = 32 up to the family's N, with a
# margin of 2x to 4.7x over the error they were fitted to.  The order
# is the observed one: the tau^a start of the manufactured solution
# gives h^(2a), the smooth families give h^2.


def _manufactured_bound(inst):
    # err / h^(2a) is 0.146 to 0.227 over alpha in [0.5, 0.65]
    return 0.6 * _h(inst) ** (2.0 * inst.alpha)


def _nonlinear_bound(inst):
    # err / h^2 is 0.0197 to 0.038 over alpha in [0.5, 0.8]
    return 0.08 * _h(inst) ** 2


def _long_horizon_bound(inst):
    # err / (min(T, 1) h^2) is 4.4e-4 to 9.9e-4 over the solve range
    return 2e-3 * min(inst.T, 1.0) * _h(inst) ** 2


def _manufactured(u, v, command, n):
    a = 0.5 + 0.15 * u
    lam = a / (1.0 - a)
    return Instance(
        family="manufactured",
        alpha=a,
        T=1.0,
        n=n,
        f_src="1",
        g_src=f"tau^{a!r} / {1.0 - a!r} * mlf3({a!r}, {1.0 + a!r}, 2, -{lam!r} * tau^{a!r})",
        exact_src=f"1 + tau^{a!r} * mlf2({a!r}, {1.0 + a!r}, -{lam!r} * tau^{a!r})",
    )


def _manufactured_pairs(inst):
    # exact -/+ (1/2 + tau): D of the offset is B/(1-a) F(tau) > 0, which
    # puts both margins 5-10 slacks clear of zero over the alpha range.
    lo = f"{inst.exact_src} - 0.5 - tau"
    hi = f"{inst.exact_src} + 0.5 + tau"
    return (
        ComparePair(lo, hi, STRICT, (0, True, True, True, True)),
        ComparePair(hi, lo, STRICT, (3, False, False, False, False)),
    )


def _nonlinear(u, v, command, n):
    return Instance(
        family="nonlinear",
        alpha=0.5 + 0.3 * u,
        T=2.0,
        n=n,
        f_src="1 + 0.1*sin(omega)",
        g_src="tau*cos(omega) + 0.5*omega*tau",
        f=lambda t, w: 1.0 + 0.1 * np.sin(w),
        g=lambda t, w: t * np.cos(w) + 0.5 * w * t,
    )


def _nonlinear_pairs(inst):
    # v = 0 has lower margin g(tau, 0) = tau exactly; w = 1.5 + tau keeps
    # w/f(w) increasing and its upper margin >= 3 slacks for alpha in [0.5, 0.8].
    return (
        ComparePair("0", "1.5 + tau", STRICT, (0, True, True, True, True)),
        ComparePair("1.5 + tau", "0", STRICT, (3, False, False, False, False)),
    )


def _long_horizon(u, v, command, n):
    # compare: lam T^a in [4, 10]; solve and extremal use [1, 3], where
    # Picard over the whole interval still converges at alpha = 0.5.
    # alpha and the horizon share a cell, so cost stays in a 4x band.
    a = 0.5 + 0.2 * u
    lo, hi = (4.0, 10.0) if command == "compare" else (1.0, 3.0)
    s = lo + (hi - lo) * v
    T = (s * (1.0 - a) / a) ** (1.0 / a)
    return Instance(
        family="long-horizon",
        alpha=a,
        T=T,
        n=n,
        f_src="1 + 0.1*sin(omega)",
        g_src="0.1*tau*cos(omega)",
        f=lambda t, w: 1.0 + 0.1 * np.sin(w),
        g=lambda t, w: 0.1 * t * np.cos(w),
    )


def _long_horizon_pairs(inst):
    # Constant paths have D[w/f(w)] = 0 exactly, so the margins are
    # +-0.1 tau cos(w): exact signs with no discretization in them.
    return (
        ComparePair("0", PI, NONSTRICT, (0, True, True, True, True)),
        ComparePair(PI, "0", NONSTRICT, (3, False, False, False, False)),
    )


FAMILIES = {
    "manufactured": Family(
        why="closed-form solution; Mittag-Leffler builtins in g dominate, Picard takes 2 sweeps",
        shares={"solve": 1.0, "extremal": 1.0, "compare": 1.0},
        n=1024,
        err_bound=_manufactured_bound,
        draw=_manufactured,
        pairs=_manufactured_pairs,
    ),
    "nonlinear": Family(
        why="no Mittag-Leffler in f or g; expression evaluation, Picard sweeps and O(N^2) rl_integral at N=4096",
        shares={"solve": 2.0, "extremal": 2.0, "compare": 1.0},
        n=4096,
        err_bound=_nonlinear_bound,
        draw=_nonlinear,
        pairs=_nonlinear_pairs,
    ),
    "long-horizon": Family(
        why="compare at lam*T^a in [4, 10] hits the mpmath Mittag-Leffler fallback; solve and extremal are small-N (256) Picard",
        shares={"solve": 1.0, "extremal": 1.0, "compare": 8.0},
        n=256,
        err_bound=_long_horizon_bound,
        draw=_long_horizon,
        pairs=_long_horizon_pairs,
    ),
}


class Stream:
    """Seeded instances per command; no two share (alpha, T, N)."""

    def __init__(self, family: Family, seed: int, n: int | None = None):
        self.family = family
        self.seed = seed
        self.n = n or family.n
        self.used: set[tuple] = set()

    def draw(self, command: str, k: int, twin: int = 0) -> Instance:
        for retry in range(100):
            rng = random.Random(f"{self.seed}:{command}:{k}:{twin}:{retry}")
            inst = self.family.draw(_cell(rng, k), _cell(rng, k), command, self.n)
            if inst.key not in self.used:
                self.used.add(inst.key)
                return inst
        raise RuntimeError("could not draw a fresh instance")


# ---------------------------------------------------------------------------
# output checks: each returns a list of problems, empty when the output is right


def read_csv(path: Path) -> np.ndarray:
    lines = path.read_text().splitlines()
    if len(lines) < 3 or not lines[0].startswith("# manifest=") or lines[1] != "tau,omega,residual":
        raise ValueError(f"{path.name}: missing manifest or header")
    return np.array([[float(x) for x in row.split(",")] for row in lines[2:]])


def read_summary(path: Path) -> dict[str, str]:
    out = {}
    for line in path.read_text().splitlines():
        key, _, value = line.partition("=")
        out[key] = value
    return out


def _check_nodes(inst: Instance, data: np.ndarray, name: str) -> list[str]:
    if data.shape != (inst.n + 1, 3):
        return [f"{name}: {data.shape[0]} rows, expected {inst.n + 1}"]
    nodes = np.linspace(0.0, inst.T, inst.n + 1)
    if np.max(np.abs(data[:, 0] - nodes)) > 1e-12 * max(1.0, inst.T):
        return [f"{name}: tau column is not the uniform grid"]
    if not np.all(np.isfinite(data)):
        return [f"{name}: non-finite values"]
    return []


def check_solve(inst: Instance, family: Family, csv: Path, rc: int) -> tuple[list[str], float]:
    """Exit 0, converged, small residual, error against the oracle within bound."""
    if rc != 0:
        return [f"solve exit code {rc}"], math.nan
    data = read_csv(csv)
    problems = _check_nodes(inst, data, csv.name)
    if problems:
        return problems, math.nan
    summary = read_summary(csv.with_suffix(csv.suffix + ".summary.txt"))
    if summary.get("converged") != "True":
        problems.append("solve did not converge")
    if not float(summary.get("residual_sup", "inf")) <= RESIDUAL_MAX:
        problems.append(f"residual_sup {summary.get('residual_sup')} > {RESIDUAL_MAX}")
    err = float(np.max(np.abs(data[:, 1] - oracle(inst))))
    bound = family.err_bound(inst)
    if not err <= bound:
        problems.append(f"solve_err {err:.3e} > {bound:.3e}")
    return problems, err


def check_extremal(inst: Instance, prefix: Path, levels: int, rc: int) -> list[str]:
    """Exit 0, ordering_ok reported, and the level CSVs really decrease.

    The residual column of a level is taken against the unperturbed
    operator, so it measures the perturbation, not convergence.
    """
    if rc != 0:
        return [f"extremal exit code {rc}"]
    report = read_summary(prefix.parent / f"{prefix.name}_report.txt")
    problems = []
    if report.get("ordering_ok") != "True":
        problems.append("extremal reported ordering_ok != True")
    prev = None
    for level in range(levels):
        path = prefix.parent / f"{prefix.name}_level{level}.csv"
        data = read_csv(path)
        problems += _check_nodes(inst, data, path.name)
        if problems:
            return problems
        if prev is not None and not np.all(prev[1:] > data[1:, 1]):
            problems.append(f"{path.name}: level not below the previous one")
        prev = data[:, 1]
    return problems


def parse_compare(stdout: str) -> dict[str, str]:
    return dict(
        line.split("=", 1) for line in stdout.split() if "=" in line
    )


def check_compare(pair: ComparePair, stdout: str, rc: int) -> list[str]:
    """The verdict equals the one the pair was built to give."""
    out = parse_compare(stdout)
    got = (
        rc,
        out.get("hypothesis_ok") == "True",
        out.get("lower_ineq_ok") == "True",
        out.get("upper_ineq_ok") == "True",
        out.get("conclusion_ok") == "True",
    )
    if got != pair.verdict or out.get("mode") != pair.mode:
        return [f"compare verdict {got} (mode {out.get('mode')}), expected {pair.verdict}"]
    return []
