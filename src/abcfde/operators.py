"""Discrete fractional operators on a uniform grid.

Riemann-Liouville integral, Atangana-Baleanu integral and the
Atangana-Baleanu derivative of Caputo type, all by product integration:
the weakly singular kernel is integrated exactly against a piecewise
linear interpolant (for the integrals) or piecewise constant slopes (for
the derivative), so no naive quadrature ever touches the singularity.

Each operator is a causal convolution of the samples with fixed weights.
The weights, and on long grids their spectrum, are built once per grid
and cached, so a call costs one convolution: direct below
``FFT_MIN_LENGTH`` weights, by FFT (O(N log N)) from there on.
"""

from __future__ import annotations

import enum
import functools
import math
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
        if not self.T > 0:
            raise ValueError(f"T must be > 0, got {self.T}")
        if self.N < 1:
            raise ValueError(f"N must be >= 1, got {self.N}")

    @property
    def h(self) -> float:
        return self.T / self.N

    @property
    def nodes(self) -> np.ndarray:
        return np.linspace(0.0, self.T, self.N + 1)


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
    arr = np.asarray(samples, dtype=float)
    if arr.shape != (grid.N + 1,):
        raise DimensionMismatch(
            f"expected {grid.N + 1} samples, got shape {arr.shape}"
        )
    return arr


#: Stencil length from which :func:`_causal_convolve` uses the FFT; shorter
#: stencils are convolved directly, where that is faster.
FFT_MIN_LENGTH = 512


@dataclass(frozen=True)
class _Stencil:
    """Read-only convolution weights and, from FFT_MIN_LENGTH on, their
    real FFT of length nfft >= 2 len(weights) - 1."""

    weights: np.ndarray
    spectrum: np.ndarray | None
    nfft: int


def _stencil(weights: np.ndarray) -> _Stencil:
    weights.flags.writeable = False
    if weights.size < FFT_MIN_LENGTH:
        return _Stencil(weights, None, 0)
    nfft = 1 << (2 * weights.size - 2).bit_length()
    spectrum = np.fft.rfft(weights, nfft)
    spectrum.flags.writeable = False
    return _Stencil(weights, spectrum, nfft)


def _causal_convolve(x: np.ndarray, stencil: _Stencil) -> np.ndarray:
    """First len(stencil.weights) entries of the convolution of x with the
    weights; x is no longer than the weights."""
    k = stencil.weights.size
    if stencil.spectrum is None:
        return np.convolve(x, stencil.weights)[:k]
    return np.fft.irfft(np.fft.rfft(x, stencil.nfft) * stencil.spectrum, stencil.nfft)[:k]


# The stencil caches stay small: callers work on one grid at a time, and
# at N = 65536 a spectrum alone is 1 MB.
@functools.lru_cache(maxsize=2)
def _rl_stencil(N: int, alpha: float) -> tuple[np.ndarray, _Stencil | None]:
    """Boundary weights c0 and the stencil of the second differences b of
    the product-trapezoidal RL rule (None for N < 2)."""
    # boundary weight for j = 0 at each n >= 1
    n = np.arange(1, N + 1, dtype=float)
    c0 = np.zeros(N + 1)
    c0[1:] = (n - 1.0) ** (alpha + 1.0) - n ** (alpha + 1.0) + (alpha + 1.0) * n**alpha
    c0.flags.writeable = False
    if N < 2:
        return c0, None
    # interior second-difference weights b[m] = (m+1)^(a+1) - 2 m^(a+1) + (m-1)^(a+1)
    m = np.arange(1, N, dtype=float)
    b = (m + 1.0) ** (alpha + 1.0) - 2.0 * m ** (alpha + 1.0) + (m - 1.0) ** (alpha + 1.0)
    return c0, _stencil(b)


def rl_integral(samples, grid: Grid, alpha: float) -> np.ndarray:
    """Riemann-Liouville fractional integral of order alpha at the nodes.

    (1/Gamma(alpha)) int_0^tau (tau - s)^(alpha-1) omega(s) ds with omega
    piecewise linear; exact kernel moments, output[0] = 0.
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must lie in (0, 1), got {alpha}")
    arr = _check_samples(samples, grid)
    N = grid.N
    coef = grid.h**alpha / math.gamma(alpha + 2.0)
    c0, b = _rl_stencil(N, alpha)
    out = np.zeros(N + 1)
    out[1:] = coef * (c0[1:] * arr[0] + arr[1:])
    if b is not None:
        # out[n] += coef * sum_{j=1}^{n-1} b[n-j] arr[j]
        out[2:] += coef * _causal_convolve(arr[1:N], b)
    return out


def ab_integral(samples, grid: Grid, cfg: OperatorConfig) -> np.ndarray:
    """Atangana-Baleanu fractional integral at the nodes.

    (1 - alpha)/B(alpha) * omega + alpha/B(alpha) * (RL integral).
    """
    arr = _check_samples(samples, grid)
    a, B = cfg.alpha, cfg.b
    return (1.0 - a) / B * arr + a / B * rl_integral(arr, grid, a)


@functools.lru_cache(maxsize=4)
def ml_kernel_antiderivative(grid: Grid, cfg: OperatorConfig) -> np.ndarray:
    """Values F(k h) of the kernel antiderivative, k = 0 .. N.

    F(x) = int_0^x E_alpha(-lam u^alpha) du = x E_{alpha,2}(-lam x^alpha)
    with lam = alpha / (1 - alpha).  Built once per (grid, cfg) and shared
    by every caller, so the array is read-only.
    """
    x = grid.nodes
    out = x * ml_two(cfg.alpha, 2.0, -cfg.lam * x**cfg.alpha)
    out.flags.writeable = False
    return out


@functools.lru_cache(maxsize=2)
def _abc_stencil(grid: Grid, cfg: OperatorConfig) -> _Stencil:
    """Stencil of the kernel increments dF[m-1] = F(m h) - F((m-1) h)."""
    return _stencil(np.diff(ml_kernel_antiderivative(grid, cfg)))


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
    out = np.zeros(grid.N + 1)
    # out[n] = B/(1-a) * sum_{j=0}^{n-1} slopes[j] * dF[n-j-1]
    out[1:] = B / (1.0 - a) * _causal_convolve(slopes, _abc_stencil(grid, cfg))
    return out
