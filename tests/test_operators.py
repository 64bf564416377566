import functools
import math
import time

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from abcfde import (
    BConvention,
    Discretization,
    Grid,
    OperatorConfig,
    Strictness,
    ab_integral,
    abc_derivative,
    discretization,
    load_problem,
    ml_kernel_antiderivative,
    ml_one,
    ml_two,
    picard_solve,
    rl_integral,
    verify_comparison,
)
from abcfde import operators, solver
from abcfde.errors import DimensionMismatch
from abcfde.operators import FFT_MIN_LENGTH


@functools.cache
def exact_rl_weights(grid: Grid, alpha: float, dtype=float):
    """Product-trapezoidal weights of the Riemann-Liouville integral from
    the moments k^(alpha+1), differenced in 40-digit mpmath and rounded
    once to dtype (float or np.longdouble).

    Returns the self-weight c = h^alpha / Gamma(alpha+2), the weights of
    omega_0 at nodes n = 1 .. N, c ((alpha+1) n^alpha - n^(alpha+1) +
    (n-1)^(alpha+1)), and the interior weights at distance m = 1 .. N-1,
    c ((m+1)^(alpha+1) - 2 m^(alpha+1) + (m-1)^(alpha+1)).
    """
    N = grid.N
    with mp.workdps(40):
        a1 = mp.mpf(alpha) + 1
        c = mp.mpf(grid.h) ** (a1 - 1) / mp.gamma(a1 + 1)
        kp = [mp.mpf(k) ** a1 for k in range(N + 1)]
        c0 = [c * (a1 * mp.mpf(n) ** (a1 - 1) - kp[n] + kp[n - 1]) for n in range(1, N + 1)]
        b = [c * (kp[m + 1] - 2 * kp[m] + kp[m - 1]) for m in range(1, N)]

        def rounded(x):
            # a double and its remainder carry the 64-bit long double mantissa
            hi = float(x)
            return dtype(hi) + dtype(float(x - hi))

        def array(values):
            return np.array([rounded(x) for x in values], dtype)

        return rounded(c), array(c0), array(b)


def rl_weights(grid: Grid, alpha: float) -> np.ndarray:
    """Dense product-trapezoidal weights for the Riemann-Liouville integral.

    Row n holds weights w_{n,j} such that
    (I^alpha omega)(tau_n) ~= sum_j w_{n,j} omega_j, exact for piecewise
    linear omega: the O(N^2) oracle that rl_integral is checked against.
    """
    N = grid.N
    c, c0, b = exact_rl_weights(grid, alpha)
    w = np.zeros((N + 1, N + 1))
    for n in range(1, N + 1):
        w[n, 0] = c0[n - 1]
        w[n, 1:n] = b[: n - 1][::-1]  # m = n - j for interior j = 1 .. n-1
        w[n, n] = c
    return w


def rl_exact(arr: np.ndarray, grid: Grid, alpha: float) -> np.ndarray:
    """The Toeplitz form of rl_weights, summed in long double by one
    np.convolve: the O(N^2) oracle for grids too long for a dense matrix."""
    N = grid.N
    c, c0, b = exact_rl_weights(grid, alpha, np.longdouble)
    x = arr.astype(np.longdouble)
    out = np.zeros(N + 1, np.longdouble)
    out[1:] = c0 * x[0] + c * x[1:]
    out[2:] += np.convolve(x[1:N], b)[: N - 1]
    return out


class TestGrid:
    def test_nodes_and_step(self):
        g = Grid(2.0, 4)
        assert g.h == 0.5
        assert np.allclose(g.nodes, [0.0, 0.5, 1.0, 1.5, 2.0])

    def test_nodes_built_once_and_read_only(self):
        g = Grid(2.0, 4)
        assert g.nodes is g.nodes
        assert not g.nodes.flags.writeable
        assert g.nodes.base is None  # no writeable array underneath
        with pytest.raises(ValueError):
            g.nodes[1] = 0.0
        assert g.nodes.tobytes() == np.linspace(0.0, 2.0, 5).tobytes()

    def test_invalid(self):
        with pytest.raises(ValueError):
            Grid(0.0, 4)
        with pytest.raises(ValueError):
            Grid(1.0, 0)
        for T in (math.inf, math.nan):
            with pytest.raises(ValueError, match="finite"):
                Grid(T, 4)


class TestConfig:
    def test_alpha_range(self):
        for bad in (0.0, 1.0, -0.3, 1.7):
            with pytest.raises(ValueError):
                OperatorConfig(bad)

    def test_unit_normalization(self):
        assert OperatorConfig(0.5).b == 1.0

    def test_ab_normalization(self):
        cfg = OperatorConfig(0.5, b_convention=BConvention.AB)
        assert cfg.b == pytest.approx(0.5 + 0.5 / math.gamma(0.5), rel=1e-15)

    def test_normalization_endpoints(self):
        # B(alpha) -> 1 at both ends of (0, 1)
        for a in (1e-8, 1.0 - 1e-8):
            cfg = OperatorConfig(a, b_convention=BConvention.AB)
            assert cfg.b == pytest.approx(1.0, abs=1e-6)

    def test_kernel_rate(self):
        assert OperatorConfig(0.5).lam == pytest.approx(1.0, rel=1e-15)
        assert OperatorConfig(0.25).lam == pytest.approx(1.0 / 3.0, rel=1e-15)


class TestRlWeights:
    def test_positive(self):
        w = rl_weights(Grid(1.0, 16), 0.3)
        for n in range(1, 17):
            assert np.all(w[n, : n + 1] > 0.0)

    def test_matches_integral_operator(self):
        grid = Grid(1.0, 12)
        rng = np.random.default_rng(7)
        arr = rng.standard_normal(13)
        w = rl_weights(grid, 0.6)
        assert np.allclose(w @ arr, rl_integral(arr, grid, 0.6), atol=1e-14)


class TestRlIntegral:
    def test_constant_exact(self):
        # I^a 1 = tau^a / Gamma(a+1), and the rule is exact on constants
        grid = Grid(1.0, 20)
        a = 0.5
        out = rl_integral(np.ones(21), grid, a)
        exact = grid.nodes**a / math.gamma(a + 1.0)
        assert np.allclose(out, exact, atol=1e-13)

    def test_linear_exact(self):
        # I^a tau = tau^(a+1) / Gamma(a+2), exact for piecewise linear data
        grid = Grid(2.0, 25)
        a = 0.7
        out = rl_integral(grid.nodes, grid, a)
        exact = grid.nodes ** (a + 1.0) / math.gamma(a + 2.0)
        assert np.allclose(out, exact, atol=1e-12)

    def test_power_convergence(self):
        # I^a tau^2 = 2 tau^(a+2) / Gamma(a+3); quadratic data is no
        # longer exact but converges at second order
        a = 0.4
        errs = []
        for N in (32, 64, 128):
            grid = Grid(1.0, N)
            out = rl_integral(grid.nodes**2, grid, a)
            exact = 2.0 * grid.nodes ** (a + 2.0) / math.gamma(a + 3.0)
            errs.append(np.max(np.abs(out - exact)))
        orders = np.log2(np.array(errs[:-1]) / np.array(errs[1:]))
        assert np.all(orders > 1.8)

    def test_alpha_near_one_is_ordinary_integral(self):
        # as alpha -> 1 the operator approaches the running integral
        grid = Grid(1.0, 200)
        arr = np.sin(grid.nodes)
        out = rl_integral(arr, grid, 0.999)
        exact = 1.0 - np.cos(grid.nodes)
        assert np.max(np.abs(out - exact)) < 1e-2

    def test_zero_at_origin(self):
        grid = Grid(1.0, 8)
        assert rl_integral(np.full(9, 3.0), grid, 0.5)[0] == 0.0

    def test_invalid_alpha(self):
        with pytest.raises(ValueError):
            rl_integral(np.ones(9), Grid(1.0, 8), 1.5)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            rl_integral(np.ones(7), Grid(1.0, 8), 0.5)


class TestAbIntegral:
    def test_hand_value_constant(self):
        # for omega == 1, B == 1: (1-a) + a tau^a / Gamma(a+1)
        grid = Grid(1.0, 10)
        cfg = OperatorConfig(0.5)
        out = ab_integral(np.ones(11), grid, cfg)
        exact = 0.5 + 0.5 * grid.nodes**0.5 / math.gamma(1.5)
        assert np.allclose(out, exact, atol=1e-13)
        assert out[-1] == pytest.approx(0.5 + 0.5 / math.gamma(1.5), abs=1e-13)

    def test_linear_hand_value(self):
        # omega = tau: (1-a) tau + a tau^(a+1) / Gamma(a+2)
        grid = Grid(1.0, 16)
        cfg = OperatorConfig(0.5)
        out = ab_integral(grid.nodes, grid, cfg)
        assert out[-1] == pytest.approx(0.5 + 0.5 * math.gamma(2.0) / math.gamma(2.5),
                                        abs=1e-12)

    def test_ab_normalization_scales(self):
        grid = Grid(1.0, 8)
        arr = np.cos(grid.nodes)
        unit = ab_integral(arr, grid, OperatorConfig(0.6))
        ab = ab_integral(arr, grid, OperatorConfig(0.6, b_convention=BConvention.AB))
        B = OperatorConfig(0.6, b_convention=BConvention.AB).b
        assert np.allclose(ab * B, unit, atol=1e-13)


class TestAbcDerivative:
    def test_zero_for_constants(self):
        grid = Grid(1.0, 16)
        out = abc_derivative(np.full(17, 4.2), grid, OperatorConfig(0.5))
        assert np.allclose(out, 0.0, atol=1e-15)

    def test_linear_closed_form(self):
        # for omega = tau: D^a tau = B/(1-a) * F(tau) with
        # F(tau) = tau E_{a,2}(-lam tau^a)
        grid = Grid(1.0, 32)
        cfg = OperatorConfig(0.5)
        out = abc_derivative(grid.nodes, grid, cfg)
        t = grid.nodes
        exact = cfg.b / 0.5 * t * ml_two(0.5, 2.0, -(t**0.5))
        assert np.allclose(out, exact, atol=1e-13)

    def test_true_value_of_ml_composition(self):
        # D^a applied to E_a(tau^a) equals
        # B [E_a(tau^a) - E_a(-lam tau^a)], verified here against the
        # discretization at a fine mesh
        a = 0.5
        cfg = OperatorConfig(a)
        lam = cfg.lam
        errs = []
        for N in (128, 256):
            grid = Grid(1.0, N)
            t = grid.nodes
            samples = ml_one(a, t**a)
            exact = cfg.b * (ml_one(a, t**a) - ml_one(a, -lam * t**a))
            out = abc_derivative(samples, grid, cfg)
            errs.append(np.max(np.abs(out - exact)[1:]))
        assert errs[1] < errs[0]
        assert errs[1] < 0.05

    def test_zero_at_origin(self):
        grid = Grid(1.0, 8)
        out = abc_derivative(grid.nodes**2, grid, OperatorConfig(0.3))
        assert out[0] == 0.0

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            abc_derivative(np.ones(4), Grid(1.0, 8), OperatorConfig(0.5))


class TestKernelAntiderivative:
    def test_values(self):
        grid = Grid(1.0, 4)
        cfg = OperatorConfig(0.5)
        F = ml_kernel_antiderivative(grid, cfg)
        assert F[0] == 0.0
        for k in range(1, 5):
            x = grid.nodes[k]
            assert F[k] == pytest.approx(x * ml_two(0.5, 2.0, -x**0.5), rel=1e-14)

    def test_increasing(self):
        F = ml_kernel_antiderivative(Grid(2.0, 40), OperatorConfig(0.7))
        assert np.all(np.diff(F) > 0.0)

    @pytest.mark.parametrize("alpha,T", [(0.5, 1e4), (0.9, 10.0)])
    def test_long_horizon_in_bounded_time(self, alpha, T):
        # lam T^alpha = 100 and 71: far out on the negative axis
        start = time.perf_counter()
        F = Discretization(Grid(T, 64), alpha).kernel
        assert time.perf_counter() - start < 1.0
        assert np.all(np.isfinite(F))
        assert np.all(np.diff(F) > 0.0)

    def test_built_once_per_grid_and_config(self):
        F = ml_kernel_antiderivative(Grid(1.0, 16), OperatorConfig(0.6))
        again = ml_kernel_antiderivative(Grid(1.0, 16), OperatorConfig(0.6))
        np.testing.assert_array_equal(again, F)
        assert again is F
        with pytest.raises(ValueError):
            F[1] = 0.0


def rl_direct(arr: np.ndarray, grid: Grid, alpha: float) -> np.ndarray:
    """rl_integral with its weights built inline and one np.convolve."""
    N = grid.N
    start = grid.nodes[1:] ** alpha / math.gamma(alpha + 1.0)
    m = np.arange(1, N, dtype=float)
    W = np.concatenate(([1.0], m ** (alpha + 1.0) * np.expm1((alpha + 1.0) * np.log1p(1.0 / m))))
    out = np.zeros(N + 1)
    conv = np.convolve(np.diff(arr), W)[:N]
    out[1:] = arr[0] * start + grid.h**alpha / math.gamma(alpha + 2.0) * conv
    return out


def abc_direct(arr: np.ndarray, grid: Grid, cfg: OperatorConfig) -> np.ndarray:
    """abc_derivative as one np.convolve of the slopes with diff(F)."""
    dF = np.diff(ml_kernel_antiderivative(grid, cfg))
    out = np.zeros(grid.N + 1)
    conv = np.convolve(np.diff(arr) / grid.h, dF)
    out[1:] = cfg.b / (1.0 - cfg.alpha) * conv[: grid.N]
    return out


def convolution_data(grid: Grid) -> list[np.ndarray]:
    t = grid.nodes
    noise = np.random.default_rng(grid.N).standard_normal(grid.N + 1)
    return [np.sin(3.0 * t) + np.sqrt(t), np.cos(t) * t**0.3, noise]


NONLINEAR_TEXT = (
    "alpha = 0.65\nT = 2\nomega0 = 0\n"
    "f = 1 + 0.1*sin(omega)\ng = tau*cos(omega) + 0.5*omega*tau\n"
)


# both sides of the direct / FFT cut-over, which falls on the weight
# count N of both operators
CUTOVER_GRIDS = [FFT_MIN_LENGTH - 1, FFT_MIN_LENGTH, FFT_MIN_LENGTH + 1, 2048]


class TestConvolutionPaths:
    @pytest.mark.parametrize("N", CUTOVER_GRIDS)
    @pytest.mark.parametrize("alpha", [0.15, 0.65, 0.95])
    def test_rl_matches_dense_oracle(self, N, alpha):
        grid = Grid(2.0, N)
        w = rl_weights(grid, alpha)
        for arr in convolution_data(grid):
            out = rl_integral(arr, grid, alpha)
            ref = w @ arr
            assert np.max(np.abs(out - ref)) <= 1e-12 * np.max(np.abs(ref))

    @pytest.mark.parametrize("alpha", [0.15, 0.65, 0.95])
    def test_rl_matches_exact_weights_on_a_long_grid(self, alpha):
        # the RL weights take no rounding error from differencing the
        # moments k^(alpha+1), which grow like N^(alpha+1)
        grid = Grid(2.0, 4096)
        for arr in convolution_data(grid):
            out = rl_integral(arr, grid, alpha)
            ref = rl_exact(arr, grid, alpha)
            assert np.max(np.abs(out - ref)) <= 1e-11 * np.max(np.abs(ref))

    @pytest.mark.parametrize("N", CUTOVER_GRIDS)
    @pytest.mark.parametrize(
        "cfg", [OperatorConfig(0.3), OperatorConfig(0.8, b_convention=BConvention.AB)]
    )
    def test_abc_matches_direct_convolution(self, N, cfg):
        grid = Grid(2.0, N)
        for arr in convolution_data(grid):
            out = abc_derivative(arr, grid, cfg)
            ref = abc_direct(arr, grid, cfg)
            assert np.max(np.abs(out - ref)) <= 1e-12 * np.max(np.abs(ref))

    @pytest.mark.parametrize("N", [1, 2, 3, 40, FFT_MIN_LENGTH - 1])
    def test_direct_path_is_bitwise_unchanged(self, N):
        grid = Grid(1.5, N)
        cfg = OperatorConfig(0.45, b_convention=BConvention.AB)
        for arr in convolution_data(grid):
            np.testing.assert_array_equal(rl_integral(arr, grid, 0.45), rl_direct(arr, grid, 0.45))
            np.testing.assert_array_equal(abc_derivative(arr, grid, cfg), abc_direct(arr, grid, cfg))

    def test_repeated_calls_are_byte_identical(self, monkeypatch):
        grid = Grid(2.0, 2048)
        cfg = OperatorConfig(0.6)
        arr = convolution_data(grid)[2]
        first = rl_integral(arr, grid, 0.6).tobytes(), abc_derivative(arr, grid, cfg).tobytes()
        assert (rl_integral(arr, grid, 0.6).tobytes(), abc_derivative(arr, grid, cfg).tobytes()) == first
        # every call now builds its weights afresh
        monkeypatch.setattr(operators, "discretization", Discretization)
        assert (rl_integral(arr, grid, 0.6).tobytes(), abc_derivative(arr, grid, cfg).tobytes()) == first

    def test_solve_builds_the_stencil_once(self, weight_builds):
        trace = picard_solve(load_problem(NONLINEAR_TEXT), Grid(2.0, 2048))
        assert trace.iterations > 10
        # the RL moment increments W, the first 1024 of them, which
        # convolve the steps of each of the march's two blocks, and all 2048
        # again, cyclic, which bring the first block into the second
        assert weight_builds == [2048, 1024, 2048]

    def test_comparison_builds_the_stencil_once(self, weight_builds):
        spec = load_problem("alpha = 0.5\nT = 1\nomega0 = 1\nf = 1\ng = 0\n")
        verify_comparison(spec, lambda t: 0.0, lambda t: 2.0, Grid(1.0, 1024),
                          mode=Strictness.NONSTRICT)
        assert weight_builds == [1024]  # the kernel increments diff(F)


class TestStacks:
    """Each operator acts along the last axis of a stack of node vectors,
    and gives each row bitwise what the row gets alone."""

    @pytest.mark.parametrize("N", [256, 1024])  # direct convolution, then FFT
    def test_rows_are_bitwise_the_row_calls(self, N):
        grid = Grid(2.0, N)
        cfg = OperatorConfig(0.45, b_convention=BConvention.AB)
        stack = np.array(convolution_data(grid) + [np.sin(3.0 * grid.nodes) + 2.0])
        for op in (
            lambda x: rl_integral(x, grid, 0.45),
            lambda x: ab_integral(x, grid, cfg),
            lambda x: abc_derivative(x, grid, cfg),
        ):
            out = op(stack)
            assert out.shape == stack.shape
            for row, got in zip(stack, out):
                assert op(row).tobytes() == got.tobytes()
            # any leading shape
            assert op(stack.reshape(1, 2, -1, N + 1)).tobytes() == out.tobytes()

    def test_wrong_row_length(self):
        with pytest.raises(DimensionMismatch):
            rl_integral(np.ones((3, 8)), Grid(1.0, 8), 0.5)


class TestDiscretization:
    def test_shared_per_grid_and_order(self):
        grid = Grid(1.5, 40)
        assert discretization(grid, 0.35) is discretization(Grid(1.5, 40), 0.35)
        assert discretization(grid, 0.35) is not discretization(grid, 0.45)

    @pytest.mark.parametrize(
        "N, blocks",
        [
            # the grid's convolution direct, then by FFT; blocks of fewer and
            # of more than FFT_MIN_LENGTH steps, on both sides of node 512
            (300, [(1, 2), (1, 50), (2, 3), (120, 301)]),
            (1100, [(1, 101), (300, 700), (500, 1012), (600, 1101), (1100, 1101)]),
            (4096, [(1025, 2049), (3000, 4097), (2, 600)]),
            # a march's blocks, and the last node of a cyclic length of
            # 4096 and the first of 8192, past the grid's 5000 weights
            (5000, [(1251, 2501), (2501, 3751), (3751, 5001), (2000, 4097), (3000, 4098)]),
        ],
    )
    def test_history_and_block_make_rl_integral(self, N, blocks):
        grid = Grid(2.0, N)
        disc = Discretization(grid, 0.45)
        stack = np.array(convolution_data(grid))
        want = rl_integral(stack, grid, 0.45)
        scale = np.abs(want).max(axis=-1, keepdims=True)
        for lo, hi in blocks:
            got = disc.history(stack, lo, hi) + disc.block(stack[:, lo - 1 : hi])
            assert np.all(np.abs(got - want[:, lo:hi]) <= 1e-12 * scale)
            for row, out in zip(stack, got):
                alone = disc.history(row, lo, hi) + disc.block(row[lo - 1 : hi])
                assert alone.tobytes() == out.tobytes()
        # the first block: node 0 and its steps alone, and the start value
        start = disc.rl[0]
        for hi in (2, 200, N + 1):
            got = stack[:, :1] * start[: hi - 1] + disc.block(stack[:, :hi])
            assert np.all(np.abs(got - want[:, 1:hi]) <= 1e-12 * scale)

    def test_history_transforms_are_half_as_long(self, weight_builds, monkeypatch):
        # each output of history lies after all its inputs, so a cyclic
        # transform of length hi - 1 or more is exact: the later blocks of a
        # march at N = 4096 take 2048, 4096 and 4096, and rl_integral 8192
        grid = Grid(2.0, 4096)
        x = np.sin(grid.nodes)
        lengths = []
        rfft = np.fft.rfft
        monkeypatch.setattr(np.fft, "rfft", lambda a, n: lengths.append(n) or rfft(a, n))
        rl_integral(x, grid, 0.6)
        disc = operators.discretization(grid, 0.6)
        for lo, hi in solver.march_blocks(grid.N)[1:]:
            disc.history(x, lo, hi)
        # each first use of a length transforms its weights once
        assert lengths == [8192, 8192, 2048, 2048, 4096, 4096, 4096]
        assert weight_builds == [4096, 2048, 4096]

    def test_a_block_length_builds_its_weights_once(self, weight_builds):
        disc = Discretization(Grid(1.0, 2048), 0.5)
        x = np.sin(disc.grid.nodes)
        for lo in (1025, 1, 1025):
            disc.block(x[lo - 1 : lo + 1024])
        disc.block(x[:600])
        assert weight_builds == [2048, 1024, 599]

    def test_solve_leaves_the_kernel_unbuilt(self, weight_builds):
        spec = load_problem(NONLINEAR_TEXT)
        grid = Grid(2.0, 256)
        picard_solve(spec, grid)
        built = vars(operators.discretization(grid, spec.cfg.alpha))
        assert "rl" in built
        assert "kernel" not in built and "abc" not in built


class TestRoundTrip:
    def test_fundamental_theorem_linear(self):
        # AB integral of the ABC derivative recovers omega - omega(0)
        # at second order for smooth omega
        cfg = OperatorConfig(0.5)
        errs = []
        for N in (64, 128, 256):
            grid = Grid(1.0, N)
            omega = grid.nodes
            d = abc_derivative(omega, grid, cfg)
            back = ab_integral(d, grid, cfg)
            errs.append(np.max(np.abs(back - (omega - omega[0]))))
        orders = np.log2(np.array(errs[:-1]) / np.array(errs[1:]))
        assert np.all(orders > 1.5)


@given(
    st.floats(min_value=0.1, max_value=0.9),
    st.integers(min_value=2, max_value=24),
    st.integers(min_value=0, max_value=2**32 - 1),
)
@settings(max_examples=40, deadline=None)
def test_linearity(alpha, N, seed):
    grid = Grid(1.0, N)
    cfg = OperatorConfig(alpha)
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(N + 1)
    y = rng.standard_normal(N + 1)
    a, b = 1.7, -0.4
    for op in (
        lambda v: rl_integral(v, grid, alpha),
        lambda v: ab_integral(v, grid, cfg),
        lambda v: abc_derivative(v, grid, cfg),
    ):
        lhs = op(a * x + b * y)
        rhs = a * op(x) + b * op(y)
        assert np.allclose(lhs, rhs, atol=1e-11)


@given(
    st.floats(min_value=0.1, max_value=0.9),
    st.integers(min_value=1, max_value=20),
)
@settings(max_examples=30, deadline=None)
def test_rl_monotone_in_data(alpha, N):
    # positive weights mean pointwise larger data gives a pointwise
    # larger integral
    grid = Grid(1.0, N)
    lo = np.zeros(N + 1)
    hi = np.ones(N + 1)
    assert np.all(rl_integral(hi, grid, alpha) >= rl_integral(lo, grid, alpha))
