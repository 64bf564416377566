"""Discrete fractional operators on a uniform grid.

Riemann-Liouville integral, Atangana-Baleanu integral and the
Atangana-Baleanu derivative of Caputo type, all by product integration:
the weakly singular kernel is integrated exactly against the piecewise
constant slopes of the samples, so no naive quadrature ever touches the
singularity.

Both operators convolve the slopes with the increments of an
antiderivative: of tau^(alpha+1) / Gamma(alpha+2) for the RL integral,
which also adds the start value times tau^alpha / Gamma(alpha+1), and of
the Mittag-Leffler kernel for the derivative.  One
:class:`Discretization` per (grid, alpha) owns those increments and, on
long grids, their spectra; :func:`discretization` shares it between
calls, so a call costs one convolution: direct below ``FFT_MIN_LENGTH``
weights, by FFT (O(N log N)) from there on.  It also splits the RL
integral at a block of nodes into the part that the nodes before the
block make (by a cyclic FFT half as long) and the part of the block's
own steps, for the march of :mod:`abcfde.solver`.  Each operator takes
one vector of node samples or a stack of them, and acts along the last axis.
"""

from __future__ import annotations

import enum
import functools
import math
import types
from collections.abc import Mapping
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch
from .mittag_leffler import ml_two


@dataclass(frozen=True)
class Grid:
    """Uniform mesh tau_j = j T / N on [0, T]."""

    T: float
    N: int

    def __post_init__(self):
        if not 0 < self.T < math.inf:
            raise ValueError(f"T must be finite and > 0, got {self.T}")
        if self.N < 1:
            raise ValueError(f"N must be >= 1, got {self.N}")

    @property
    def h(self) -> float:
        return self.T / self.N

    @functools.cached_property
    def nodes(self) -> np.ndarray:
        """tau_0 .. tau_N, built once per Grid and read-only, since every
        caller on the grid shares it."""
        # a copy owns its data, so no writeable base can change it
        nodes = np.linspace(0.0, self.T, self.N + 1).copy()
        nodes.flags.writeable = False
        return nodes


class BConvention(enum.Enum):
    """Normalization function B(alpha); both satisfy B(0) = B(1) = 1."""

    UNIT = "UNIT"  # B(alpha) = 1
    AB = "AB"  # B(alpha) = 1 - alpha + alpha / Gamma(alpha)


class KernelConvention(enum.Enum):
    """Coefficient of the singular integral in the integral equation.

    GAMMA uses alpha / (B Gamma(alpha)), the form implied by the
    operator definitions; PAPER_HYBRID uses alpha / (B (1 - alpha)).
    """

    GAMMA = "GAMMA"
    PAPER_HYBRID = "PAPER_HYBRID"


@dataclass(frozen=True)
class OperatorConfig:
    alpha: float
    b_convention: BConvention = BConvention.UNIT
    kernel_convention: KernelConvention = KernelConvention.GAMMA

    def __post_init__(self):
        if not 0.0 < self.alpha < 1.0:
            raise ValueError(f"alpha must lie in (0, 1), got {self.alpha}")

    @property
    def b(self) -> float:
        """Value of the normalization function B(alpha)."""
        a = self.alpha
        if self.b_convention is BConvention.UNIT:
            return 1.0
        return 1.0 - a + a / math.gamma(a)

    @property
    def lam(self) -> float:
        """Kernel rate alpha / (1 - alpha)."""
        return self.alpha / (1.0 - self.alpha)


def _check_samples(samples, grid: Grid) -> np.ndarray:
    """samples as a float array of N + 1 nodes along its last axis."""
    arr = np.asarray(samples, dtype=float)
    if arr.ndim == 0 or arr.shape[-1] != grid.N + 1:
        raise DimensionMismatch(
            f"expected {grid.N + 1} samples, got shape {arr.shape}"
        )
    return arr


#: Weight count from which a convolution runs by FFT; shorter weight
#: vectors are convolved directly, where that is faster.
FFT_MIN_LENGTH = 512


class _Convolution:
    """Causal convolution with fixed read-only weights and, from
    FFT_MIN_LENGTH weights on, their real FFT of length nfft, by default
    the least power of two >= 2 len(weights) - 1; a shorter one, at least
    len(weights), is cyclic, exact at entries len(x) - 1 .. nfft - 1.
    Called with x no longer than the weights, it returns the entries
    lo .. hi - 1 (by default the first len(weights)) of x * weights, along
    the last axis of a stack of rows; each row gets bitwise what it gets alone."""

    def __init__(self, weights: np.ndarray, nfft: int | None = None):
        weights.flags.writeable = False
        self.weights = weights
        self.spectrum = None
        if weights.size >= FFT_MIN_LENGTH:
            self.nfft = nfft or 1 << (2 * weights.size - 2).bit_length()
            self.spectrum = np.fft.rfft(weights, self.nfft)
            self.spectrum.flags.writeable = False

    def __call__(self, x: np.ndarray, lo: int = 0, hi: int | None = None) -> np.ndarray:
        hi = self.weights.size if hi is None else hi
        if self.spectrum is not None:
            return np.fft.irfft(np.fft.rfft(x, self.nfft) * self.spectrum, self.nfft)[..., lo:hi]
        if x.ndim == 1:
            return np.convolve(x, self.weights)[lo:hi]
        # np.convolve is 1-D only, and no stacked form sums in its order
        rows = [np.convolve(row, self.weights)[lo:hi] for row in x.reshape(-1, x.shape[-1])]
        return np.reshape(rows, x.shape[:-1] + (hi - lo,))


#: (beta, rho) of E_{alpha,2} = E^1_{alpha,2}, the Mittag-Leffler function in
#: :attr:`Discretization.kernel`
KERNEL_PAIR = (2.0, 1.0)


@dataclass(frozen=True)
class Discretization:
    """Product-integration weights of both operators on one grid, for one
    order alpha.

    Each member is built on first use and then kept, so a caller that
    never needs one (a solve never needs F) never pays for it.  Every
    array is read-only, since all callers on the grid share it.  So is
    the table of Mittag-Leffler values on the kernel argument
    (:attr:`ml_values`), which the kernel and the calibration of
    :mod:`abcfde.verifier` fill and read.
    """

    grid: Grid
    alpha: float

    def __post_init__(self):
        if not 0.0 < self.alpha < 1.0:
            raise ValueError(f"alpha must lie in (0, 1), got {self.alpha}")

    @functools.cached_property
    def rl(self) -> tuple[np.ndarray, float, _Convolution]:
        """The RL integral tau_n^alpha / Gamma(alpha+1) of the constant 1,
        n = 1 .. N, which weights the start value; the unit
        h^alpha / Gamma(alpha+2) of the steps' term; and the convolution of
        the steps with the increments W[m] = (m+1)^(alpha+1) - m^(alpha+1),
        m = 0 .. N-1, of the antiderivative in units of h^(alpha+1) / Gamma(alpha+2)."""
        a = self.alpha
        start = self.grid.nodes[1:] ** a / math.gamma(a + 1.0)
        start.flags.writeable = False
        m = np.arange(self.grid.N, dtype=float)
        W = np.ones_like(m)
        # m^(a+1) ((1 + 1/m)^(a+1) - 1), free of the cancellation of the difference
        W[1:] = m[1:] ** (a + 1.0) * np.expm1((a + 1.0) * np.log1p(1.0 / m[1:]))
        return start, self.grid.h**a / math.gamma(a + 2.0), _Convolution(W)

    def history(self, x: np.ndarray, lo: int, hi: int) -> np.ndarray:
        """The part of :func:`rl_integral` of x at nodes lo .. hi - 1
        (1 <= lo < hi <= N + 1) that the samples before node lo make: the
        start value's term and the steps up to node lo - 1, by one cyclic
        convolution of the least power-of-two length n >= hi - 1, exact as
        each output lies after all its inputs (at most 4096 at N = 4096, where
        :func:`rl_integral` takes 8192).  :meth:`block` adds the steps from
        node lo - 1 on; x holds node samples along its last axis, and only
        those before node lo are read."""
        out = x[..., :1] * self.rl[0][lo - 1 : hi - 1]
        if lo > 1:
            n = 1 << (hi - 2).bit_length()
            conv = self._convolution(n, n)
            out += self.rl[1] * conv(x[..., 1:lo] - x[..., : lo - 1], lo - 1, hi - 1)
        return out

    def block(self, x: np.ndarray) -> np.ndarray:
        """The rest of :func:`rl_integral` at the m nodes of a block, from
        x, the samples at the node before the block and at the block's
        nodes: the term of their m steps, by a convolution with the first
        m weights."""
        return self.rl[1] * self._convolution(x.shape[-1] - 1)(x[..., 1:] - x[..., :-1])

    def _convolution(self, m: int, nfft: int | None = None) -> _Convolution:
        """The convolution with the first m weights of :attr:`rl`, built
        once per (m, nfft)."""
        conv = self._convolutions.get((m, nfft))
        if conv is None:
            conv = self._convolutions[m, nfft] = _Convolution(self.rl[2].weights[:m], nfft)
        return conv

    @functools.cached_property
    def _convolutions(self) -> dict:
        return {}

    @functools.cached_property
    def kernel_argument(self) -> np.ndarray:
        """z_k = -lam (k h)^alpha, k = 0 .. N, lam = alpha / (1 - alpha): the
        argument of every Mittag-Leffler value kept in :attr:`ml_values`."""
        a = self.alpha
        z = -(a / (1.0 - a)) * self.grid.nodes**a
        z.flags.writeable = False
        return z

    @functools.cached_property
    def _ml_rows(self) -> dict:
        return {}

    @property
    def ml_values(self) -> Mapping[tuple[float, float], np.ndarray]:
        """E^rho_{alpha,beta}(kernel_argument) of each (beta, rho) evaluated
        so far, keyed by (beta, rho): a read-only view of read-only rows.
        :data:`KERNEL_PAIR` is there once :attr:`kernel` is built, or once
        a caller has kept it."""
        return types.MappingProxyType(self._ml_rows)

    def keep_ml_values(self, pairs, rows) -> None:
        """Add the row of each (beta, rho) in pairs to :attr:`ml_values`;
        each row must be E^rho_{alpha,beta}(kernel_argument)."""
        for pair, row in zip(pairs, rows, strict=True):
            row.flags.writeable = False
            self._ml_rows[pair] = row

    @functools.cached_property
    def kernel(self) -> np.ndarray:
        """Values F(k h) of the kernel antiderivative, k = 0 .. N.

        F(x) = int_0^x E_alpha(-lam u^alpha) du = x E_{alpha,2}(-lam x^alpha)
        with lam = alpha / (1 - alpha).  E_{alpha,2} is the
        :data:`KERNEL_PAIR` row of :attr:`ml_values`, evaluated here if no
        caller has kept it.
        """
        row = self._ml_rows.get(KERNEL_PAIR)
        if row is None:
            row = ml_two(self.alpha, 2.0, self.kernel_argument)
            self.keep_ml_values([KERNEL_PAIR], [row])
        out = self.grid.nodes * row
        out.flags.writeable = False
        return out

    @functools.cached_property
    def abc(self) -> _Convolution:
        """Convolution by the kernel increments dF[m-1] = F(m h) - F((m-1) h)."""
        return _Convolution(np.diff(self.kernel))


#: The shared Discretization of (grid, alpha).  Callers work on one grid
#: at a time, and a march's blocks take their grid's weights and block
#: convolutions from it, so one stays; at N = 65536 one spectrum alone is
#: 1 MB.
discretization = functools.lru_cache(maxsize=1)(Discretization)


def rl_integral(samples, grid: Grid, alpha: float) -> np.ndarray:
    """Riemann-Liouville fractional integral of order alpha at the nodes.

    (1/Gamma(alpha)) int_0^tau (tau - s)^(alpha-1) omega(s) ds with omega
    piecewise linear; exact kernel moments, output[0] = 0.  Along the
    last axis of a stack, each row as it would be alone.
    """
    start, unit, W = discretization(grid, alpha).rl
    arr = _check_samples(samples, grid)
    out = np.zeros(arr.shape)
    # out[n] = arr[0] start[n-1] + h^a / Gamma(a+2) sum_{j<n} (arr[j+1] - arr[j]) W[n-1-j]
    steps = arr[..., 1:] - arr[..., :-1]  # np.diff(arr), without its Python overhead
    out[..., 1:] = arr[..., :1] * start + unit * W(steps)
    return out


def ab_integral(samples, grid: Grid, cfg: OperatorConfig) -> np.ndarray:
    """Atangana-Baleanu fractional integral at the nodes.

    (1 - alpha)/B(alpha) * omega + alpha/B(alpha) * (RL integral).
    """
    arr = _check_samples(samples, grid)
    a, B = cfg.alpha, cfg.b
    return (1.0 - a) / B * arr + a / B * rl_integral(arr, grid, a)


def ml_kernel_antiderivative(grid: Grid, cfg: OperatorConfig) -> np.ndarray:
    """Values F(k h) of the kernel antiderivative, k = 0 .. N: the
    read-only :attr:`Discretization.kernel` shared by every caller."""
    return discretization(grid, cfg.alpha).kernel


def abc_derivative(samples, grid: Grid, cfg: OperatorConfig) -> np.ndarray:
    """Atangana-Baleanu-Caputo derivative at the nodes.

    B(alpha)/(1-alpha) int_0^tau E_alpha[-lam (tau-s)^alpha] omega'(s) ds
    with omega' replaced by the piecewise constant slopes of the samples
    and the Mittag-Leffler kernel integrated exactly on each subinterval.
    output[0] = 0.
    """
    arr = _check_samples(samples, grid)
    a, B = cfg.alpha, cfg.b
    slopes = np.diff(arr) / grid.h
    out = np.zeros(arr.shape)
    # out[n] = B/(1-a) * sum_{j=0}^{n-1} slopes[j] * dF[n-j-1]
    out[..., 1:] = B / (1.0 - a) * discretization(grid, a).abc(slopes)
    return out
