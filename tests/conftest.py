import functools
import math
import os

import numpy as np
import pytest
from hypothesis import settings

from abcfde import Discretization, Grid, OperatorConfig, ProblemSpec, ml_two, operators
from abcfde.errors import MaxSweepsExceeded

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


def plain_nonlinear_sweep(omega, T, alpha, omega0, b_convention, kernel_convention, shift=None):
    """One application of the fixed-point operator for the NONLINEAR_TEXT
    f and g (with g + shift and omega0 + shift, as a row of a stack), in
    plain numpy on a 1-D omega: a frozen copy of the arithmetic, in its
    order, that rhs_operator must match bitwise.  The RL integral is
    convolved directly below 512 steps and by FFT from there on."""
    N = omega.size - 1
    a = alpha
    nodes = np.linspace(0.0, T, N + 1)
    B = 1.0 if b_convention == "UNIT" else 1.0 - a + a / math.gamma(a)
    c = a / B if kernel_convention == "GAMMA" else a * math.gamma(a) / (B * (1.0 - a))
    f = 1.0 + 0.1 * np.sin(omega)
    g = nodes * np.cos(omega) + 0.5 * omega * nodes
    if shift is not None:
        g, omega0 = g + shift, omega0 + shift
    head = omega0 / (1.0 + 0.1 * np.sin(omega0))
    # Riemann-Liouville integral of the piecewise linear g
    start = nodes[1:] ** a / math.gamma(a + 1.0)
    m = np.arange(N, dtype=float)
    W = np.ones_like(m)
    W[1:] = m[1:] ** (a + 1.0) * np.expm1((a + 1.0) * np.log1p(1.0 / m[1:]))
    steps = g[1:] - g[:-1]
    if N < 512:
        conv = np.convolve(steps, W)[:N]
    else:
        nfft = 1 << (2 * N - 2).bit_length()
        conv = np.fft.irfft(np.fft.rfft(steps, nfft) * np.fft.rfft(W, nfft), nfft)[:N]
    rl = np.zeros(N + 1)
    rl[1:] = g[:1] * start + (T / N) ** a / math.gamma(a + 2.0) * conv
    return f * (head + (1.0 - a) / B * g + c * rl)


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


@pytest.fixture
def weight_builds(monkeypatch):
    """A fresh shared-Discretization cache of the library's size, and the
    sizes of the weight vectors convolved with, one entry per build."""
    sizes = []

    class Counted(operators._Convolution):
        def __init__(self, weights, nfft=None):
            sizes.append(weights.size)
            super().__init__(weights, nfft)

    monkeypatch.setattr(operators, "_Convolution", Counted)
    maxsize = operators.discretization.cache_info().maxsize
    monkeypatch.setattr(operators, "discretization", functools.lru_cache(maxsize)(Discretization))
    return sizes


def outcome(solve):
    """solve(), or the exception that it raises."""
    try:
        return solve()
    except Exception as exc:
        return exc


def trace_bytes(trace):
    return (
        trace.omega.tobytes(),
        trace.residuals.tobytes(),
        np.array(trace.iterate_diffs).tobytes(),
        trace.converged,
    )


def assert_same_outcome(want, got):
    """Bitwise the same traces, or the same error with the same trace."""
    if isinstance(want, Exception):
        assert type(got) is type(want)
        assert str(got) == str(want)
        if isinstance(want, MaxSweepsExceeded):
            assert trace_bytes(got.trace) == trace_bytes(want.trace)
        return
    assert not isinstance(got, Exception), got
    assert [trace_bytes(t) for t in got] == [trace_bytes(t) for t in want]
