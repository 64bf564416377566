import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from abcfde import (
    BConvention,
    Discretization,
    Grid,
    OperatorConfig,
    ProblemSpec,
    Strictness,
    abc_derivative,
    discretization,
    estimate_discretization_constant,
    estimate_g_onesided_lipschitz,
    extremum_sign_check,
    fundamental_theorem_check,
    golden_identity_check,
    load_problem,
    ml_one,
    ml_prabhakar,
    ml_two,
    nested_grid_slack,
    operators,
    sample_box,
    verifier,
    verify_comparison,
)
from abcfde.errors import (
    DegenerateF,
    EvalError,
    HypothesisViolation,
    MonotonicityViolation,
    ValidationError,
)
from conftest import constant_forcing_spec


class TestGoldenIdentity:
    def test_converges_at_kernel_rate_argument(self):
        # the closed-form derivative identity holds at the kernel rate;
        # first order observed on refinement
        cfg = OperatorConfig(0.5)
        grids = [Grid(1.0, N) for N in (64, 128, 256)]
        res = golden_identity_check(1.5, 1.0, cfg, grids)
        assert res.errors[0] > res.errors[1] > res.errors[2]
        assert all(o > 0.8 for o in res.orders)
        assert res.errors[-1] < 2e-3

    def test_other_alpha(self):
        cfg = OperatorConfig(0.7)
        grids = [Grid(1.0, N) for N in (64, 128)]
        res = golden_identity_check(1.5, 1.0, cfg, grids)
        assert res.errors[1] < res.errors[0]

    def test_beta_at_most_one_rejected(self):
        cfg = OperatorConfig(0.5)
        with pytest.raises(ValueError):
            golden_identity_check(1.0, 1.0, cfg, [Grid(1.0, 16)])

    @pytest.mark.parametrize("ns", [(64, 64), (64, 32), (32, 64, 64)])
    def test_grids_must_refine(self, ns):
        # an order needs two different grids; log(N1/N0) = 0 divided by zero
        with pytest.raises(ValidationError, match="grids"):
            golden_identity_check(1.5, 1.0, OperatorConfig(0.5), [Grid(1.0, n) for n in ns])


def two_call_golden_errors(beta, sigma, cfg, grids):
    """The errors of golden_identity_check with one engine call per
    function on an argument formed here, and the kernel that
    abc_derivative builds on its own."""
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
    return errors


def count_engine_calls(monkeypatch) -> list:
    """(name, z) of each engine call on the names the verifier and the
    operators look it up by, from now on."""
    calls = []

    def counted(name, fn):
        def wrapper(*args):
            calls.append((name, args[-1]))
            return fn(*args)

        return wrapper

    monkeypatch.setattr(verifier, "ml_prabhakar", counted("ml_prabhakar", ml_prabhakar))
    monkeypatch.setattr(operators, "ml_two", counted("ml_two", ml_two))
    return calls


class TestOneEnginePass:
    """The golden check makes one Mittag-Leffler call per function and
    grid, besides the kernel's, and a comparison asks for the kernel
    alone."""

    @pytest.mark.parametrize("b", list(BConvention))
    @pytest.mark.parametrize("beta,sigma", [(1.5, 1.0), (2.0, 1.0), (2.5, 0.5), (1.2, 0.0)])
    @pytest.mark.parametrize("alpha", [0.1, 0.3, 0.5, 0.65, 0.9])
    def test_errors_equal_the_two_call_check(self, alpha, beta, sigma, b):
        cfg = OperatorConfig(alpha, b)
        # 600 weights take the FFT path
        grids = [Grid(1.0, 16), Grid(2.0, 100), Grid(1.0, 600)]
        discretization.cache_clear()
        got = golden_identity_check(beta, sigma, cfg, grids).errors
        discretization.cache_clear()
        want = two_call_golden_errors(beta, sigma, cfg, grids)
        assert [e.hex() for e in got] == [e.hex() for e in want]

    def test_one_engine_call_per_fresh_grid(self, monkeypatch):
        calls = count_engine_calls(monkeypatch)
        spec = constant_forcing_spec(omega0=0.0, alpha=0.65)
        grid = Grid(1.7, 301)
        discretization.cache_clear()
        rep = verify_comparison(spec, v=lambda t: -1.0 - t, w=lambda t: 1.0 + t, grid=grid)
        assert rep.conclusion_ok
        disc = discretization(grid, 0.65)
        # the kernel's row; the sub-grids of the slack read kernel[::2] and [::4]
        assert [(name, z is disc.kernel_argument) for name, z in calls] == [("ml_two", True)]
        calls.clear()
        again = verify_comparison(spec, v=lambda t: -1.0 - t, w=lambda t: 1.0 + t, grid=grid)
        assert again.slack == rep.slack
        assert calls == []
        # the kernel's row is the one ml_two gives
        alone = Discretization(grid, 0.65)
        assert disc.kernel.tobytes() == alone.kernel.tobytes()
        assert disc.kernel_argument.tobytes() == alone.kernel_argument.tobytes()

    def test_golden_calls_per_grid(self, monkeypatch):
        calls = count_engine_calls(monkeypatch)
        cfg = OperatorConfig(0.4)
        grid = Grid(1.3, 77)
        discretization.cache_clear()
        golden_identity_check(1.5, 1.0, cfg, [grid])
        disc = discretization(grid, 0.4)
        # the two functions, then the kernel that abc_derivative builds
        assert [(name, z is disc.kernel_argument) for name, z in calls] == [
            ("ml_prabhakar", True), ("ml_prabhakar", True), ("ml_two", True)
        ]
        calls.clear()
        golden_identity_check(1.5, 1.0, cfg, [grid])
        assert [name for name, _ in calls] == ["ml_prabhakar", "ml_prabhakar"]

    def test_the_kernel_is_read_only(self):
        disc = discretization(Grid(1.0, 40), 0.5)
        for row in (disc.kernel_argument, disc.kernel):
            assert not row.flags.writeable
            with pytest.raises(ValueError):
                row[0] = 1.0


class TestDiscretizationConstant:
    def test_positive_and_stable(self):
        cfg = OperatorConfig(0.5)
        c64 = estimate_discretization_constant(cfg, Grid(1.0, 64))
        c128 = estimate_discretization_constant(cfg, Grid(1.0, 128))
        assert c64 > 0.0 and c128 > 0.0
        # error ~ C h means the ratio of estimates is mesh-insensitive
        assert 0.5 < c128 / c64 < 2.0


def ml_data(kind: str, grid: Grid, cfg: OperatorConfig):
    """Node samples and the closed-form ABC derivative of E_alpha(tau^alpha)
    ("exp") or of the golden data tau^(1/2) E^1_{alpha,1.5}(-lam tau^alpha)."""
    a, B, t = cfg.alpha, cfg.b, grid.nodes
    if kind == "exp":
        up, down = ml_one(a, t**a), ml_one(a, -cfg.lam * t**a)
        return up, B * (up - down)
    z = -cfg.lam * t**a
    root = t**0.5
    return root * ml_prabhakar(a, 1.5, 1.0, z), B / (1.0 - a) * root * ml_prabhakar(a, 1.5, 2.0, z)


class TestNestedGridSlack:
    @pytest.mark.parametrize("kind", ["exp", "golden"])
    @pytest.mark.parametrize("N", [64, 1024])
    @pytest.mark.parametrize("alpha", [0.1, 0.3, 0.5, 0.8, 0.95])
    def test_covers_the_true_error(self, alpha, N, kind):
        cfg = OperatorConfig(alpha)
        grid = Grid(1.0, N)
        samples, exact = ml_data(kind, grid, cfg)
        d = abc_derivative(samples, grid, cfg)
        assert nested_grid_slack(samples, d, grid, cfg) >= np.max(np.abs(d - exact))

    @pytest.mark.parametrize("N", [64, 256, 1024])
    def test_steep_exact_solution_passes_where_the_calibration_fails(self, N):
        # v = w = E_0.3(tau^0.3) solves D[omega] = g exactly; its slope at
        # 0 is steeper than the calibration data's tau^(-1/2)
        lam = 0.3 / 0.7
        spec = load_problem(
            f"alpha = 0.3\nT = 1\nomega0 = 1\nf = 1\n"
            f"g = mlf1(0.3, tau^0.3) - mlf1(0.3, -{lam!r}*tau^0.3)\n"
        )
        grid = Grid(1.0, N)
        exact = lambda t: ml_one(0.3, t**0.3)
        C = estimate_discretization_constant(spec.cfg, grid)
        old = verify_comparison(spec, exact, exact, grid, Strictness.NONSTRICT, slack_constant=C)
        assert not old.lower_ineq_ok
        rep = verify_comparison(spec, exact, exact, grid, Strictness.NONSTRICT)
        assert rep.lower_ineq_ok and rep.upper_ineq_ok and rep.conclusion_ok
        assert rep.slack > C * grid.h

    def test_the_larger_path_sets_the_slack(self):
        cfg = OperatorConfig(0.4)
        grid = Grid(1.0, 128)
        q = np.stack([ml_data("exp", grid, cfg)[0], ml_data("golden", grid, cfg)[0]])
        d = abc_derivative(q, grid, cfg)
        each = [nested_grid_slack(row, dr, grid, cfg) for row, dr in zip(q, d)]
        assert nested_grid_slack(q, d, grid, cfg) == max(each)
        assert each[0] != each[1]

    @pytest.mark.parametrize("N", [8, 9, 1024])
    def test_exact_data_gets_the_roundoff_floor(self, N):
        cfg = OperatorConfig(0.6, BConvention.AB)
        grid = Grid(3.0, N)
        zero = np.full(N + 1, 2.5)
        assert nested_grid_slack(zero, abc_derivative(zero, grid, cfg), grid, cfg) == 0.0
        # piecewise linear data are differentiated exactly on every grid
        line = 1.0 - 2.0 * grid.nodes
        d = abc_derivative(line, grid, cfg)
        slack = nested_grid_slack(line, d, grid, cfg)
        sup = np.max(np.abs(d))
        assert 4.0 * np.finfo(float).eps * sup <= slack <= 1e-13 * sup

    def test_linear_paths_clear_with_near_zero_slack(self):
        spec = constant_forcing_spec(omega0=0.0)
        rep = verify_comparison(spec, v=lambda t: -1.0 - t, w=lambda t: 1.0 + t, grid=Grid(1.0, 64))
        assert rep.lower_ineq_ok and rep.upper_ineq_ok and rep.conclusion_ok
        assert 0.0 < rep.slack < 1e-13

    @pytest.mark.parametrize("N", [1, 4, 7])
    def test_coarse_grids_are_refused(self, N):
        spec = constant_forcing_spec(omega0=0.0)
        grid = Grid(1.0, N)
        v, w = (lambda t: -1.0 - t), (lambda t: 1.0 + t)
        with pytest.raises(ValidationError, match=r"N: .*N >= 8") as info:
            verify_comparison(spec, v, w, grid)
        assert info.value.field == "N"
        with pytest.raises(ValidationError, match=r"N >= 8"):
            extremum_sign_check(grid.nodes - 1.0, grid, OperatorConfig(0.5))
        # an explicit constant still gives C h
        assert verify_comparison(spec, v, w, grid, slack_constant=2.0).slack == 2.0 * grid.h
        rep = extremum_sign_check(grid.nodes - 1.0, grid, OperatorConfig(0.5), slack_constant=2.0)
        assert rep.slack == 2.0 * grid.h

    def test_hypotheses_are_checked_before_the_grid(self):
        degenerate = ProblemSpec(
            T=1.0, omega0=1.0, f=lambda t, w: w, g=lambda t, w: 0.0, cfg=OperatorConfig(0.5)
        )
        with pytest.raises(DegenerateF):
            verify_comparison(degenerate, v=lambda t: 0.0, w=lambda t: 1.0, grid=Grid(1.0, 4))
        with pytest.raises(HypothesisViolation):
            extremum_sign_check(np.ones(4), Grid(1.0, 3), OperatorConfig(0.5))

    def test_the_calibration_is_not_called(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("calibration called")

        monkeypatch.setattr(verifier, "estimate_discretization_constant", refuse)
        monkeypatch.setattr(verifier, "golden_identity_check", refuse)
        grid = Grid(1.0, 64)
        spec = constant_forcing_spec(omega0=0.0)
        verify_comparison(spec, v=lambda t: -1.0 - t, w=lambda t: 1.0 + t, grid=grid)
        verify_comparison(spec, v=lambda t: 0.0, w=lambda t: 1.0, grid=grid,
                          mode=Strictness.NONSTRICT)
        extremum_sign_check(grid.nodes - 1.0, grid, OperatorConfig(0.5))


class TestFundamentalTheorem:
    def test_linear_defect_refines(self):
        cfg = OperatorConfig(0.5)
        defects = []
        for N in (64, 128, 256):
            grid = Grid(1.0, N)
            defects.append(fundamental_theorem_check(grid.nodes, grid, cfg))
        orders = np.log2(np.array(defects[:-1]) / np.array(defects[1:]))
        assert np.all(orders > 1.5)

    def test_constant_is_exact(self):
        grid = Grid(1.0, 32)
        assert fundamental_theorem_check(
            np.full(33, 2.0), grid, OperatorConfig(0.4)
        ) <= 1e-14

    def test_smooth_function(self):
        cfg = OperatorConfig(0.6)
        grid = Grid(1.0, 256)
        assert fundamental_theorem_check(np.sin(grid.nodes), grid, cfg) < 1e-3


class TestOnesidedLipschitz:
    def test_zero_g(self):
        assert estimate_g_onesided_lipschitz(
            sample_box(constant_forcing_spec(), (-1.0, 1.0), 11, 31)
        ) == 0.0

    def test_linear_g(self):
        s = ProblemSpec(
            T=1.0,
            omega0=0.0,
            f=lambda t, w: 1.0,
            g=lambda t, w: 0.5 * w,
            cfg=OperatorConfig(0.5),
        )
        assert estimate_g_onesided_lipschitz(sample_box(s, (-1.0, 1.0), 11, 31)) == pytest.approx(
            0.5, rel=1e-12
        )

    def test_sine_g(self):
        s = ProblemSpec(
            T=1.0,
            omega0=0.0,
            f=lambda t, w: 1.0,
            g=lambda t, w: math.sin(w),
            cfg=OperatorConfig(0.5),
        )
        L = estimate_g_onesided_lipschitz(sample_box(s, (-1.0, 1.0), 11, 101))
        assert L == pytest.approx(1.0, abs=1e-2)
        assert L <= 1.0

    def test_decreasing_g_clips_at_zero(self):
        s = ProblemSpec(
            T=1.0,
            omega0=0.0,
            f=lambda t, w: 1.0,
            g=lambda t, w: -w,
            cfg=OperatorConfig(0.5),
        )
        assert estimate_g_onesided_lipschitz(sample_box(s, (-1.0, 1.0), 11, 31)) == 0.0

    def test_nonmonotone_quotient_rejected(self):
        s = ProblemSpec(
            T=1.0,
            omega0=0.0,
            f=lambda t, w: 1.0 + w**2,
            g=lambda t, w: 0.0,
            cfg=OperatorConfig(0.5),
        )
        with pytest.raises(MonotonicityViolation):
            estimate_g_onesided_lipschitz(sample_box(s, (0.0, 2.0), 11, 31))

    def test_failing_quotient_raises_before_g_is_sampled(self):
        # g = tau log(omega) is undefined at omega = 0, a lattice point
        s = load_problem("alpha=0.5\nT=1\nomega0=1\nf=1+omega^2\ng=tau*log(omega)\n")
        sample = sample_box(s, (0.0, 2.0), 11, 31)
        with pytest.raises(MonotonicityViolation):
            estimate_g_onesided_lipschitz(sample)
        with pytest.raises(EvalError):
            sample.g


class TestExtremumSign:
    def test_touch_at_endpoint(self):
        # m = tau - T is <= 0 everywhere and touches zero at the last
        # node, where its derivative is positive
        grid = Grid(1.0, 64)
        cfg = OperatorConfig(0.5)
        rep = extremum_sign_check(grid.nodes - 1.0, grid, cfg)
        assert rep.node == 64
        assert rep.tau == 1.0
        assert rep.derivative > 0.0
        assert rep.nonnegative_within_slack

    def test_identically_zero(self):
        grid = Grid(1.0, 16)
        rep = extremum_sign_check(np.zeros(17), grid, OperatorConfig(0.5))
        assert rep.node == 16
        assert rep.derivative == pytest.approx(0.0, abs=1e-14)
        assert rep.nonnegative_within_slack

    def test_positive_function_has_no_touch(self):
        grid = Grid(1.0, 16)
        with pytest.raises(HypothesisViolation):
            extremum_sign_check(np.ones(17), grid, OperatorConfig(0.5))

    def test_strictly_negative_function_has_no_touch(self):
        grid = Grid(1.0, 16)
        with pytest.raises(HypothesisViolation):
            extremum_sign_check(np.full(17, -1.0), grid, OperatorConfig(0.5))

    def test_wrong_shape(self):
        with pytest.raises(HypothesisViolation):
            extremum_sign_check(np.zeros(5), Grid(1.0, 16), OperatorConfig(0.5))

    def test_interior_touch(self):
        # m rises to zero at the midpoint then goes negative again; the
        # check still finds a valid touching node at the midpoint
        grid = Grid(1.0, 64)
        m = -np.abs(grid.nodes - 0.5)
        rep = extremum_sign_check(m, grid, OperatorConfig(0.5))
        assert rep.tau == pytest.approx(0.5, abs=grid.h)


def touching_node_by_loop(arr: np.ndarray, zero_tol: float) -> int | None:
    """Node scan of extremum_sign_check as a Python loop over nodes."""
    for n in range(arr.size - 1, 0, -1):
        if abs(arr[n]) <= zero_tol and np.all(arr[:n] <= zero_tol):
            return n
    return None


NEAR_ZERO = st.sampled_from(
    [0.0, -0.0, 5e-9, -5e-9, 1e-8, -1e-8, 2e-8, -2e-8, -1.0, 1.0, math.nan]
)


@given(
    st.lists(NEAR_ZERO | st.floats(-10.0, 10.0, allow_nan=False), min_size=2, max_size=40),
    st.sampled_from([0.0, 1e-8, 0.5]),
)
@settings(max_examples=200, deadline=None)
def test_extremum_node_matches_the_loop(values, zero_tol):
    arr = np.array(values)
    grid = Grid(1.0, arr.size - 1)
    expected = touching_node_by_loop(arr, zero_tol)
    if expected is None:
        with pytest.raises(HypothesisViolation):
            extremum_sign_check(arr, grid, OperatorConfig(0.5), zero_tol, slack_constant=1.0)
    else:
        rep = extremum_sign_check(arr, grid, OperatorConfig(0.5), zero_tol, slack_constant=1.0)
        assert rep.node == expected


@pytest.mark.parametrize(
    "arr",
    [
        np.array([0.0, math.nan, 0.0, 0.0]),  # NaN before every later zero
        np.array([-1.0, -2.0, -0.5, -3.0]),  # all negative
        np.array([-1.0, 0.5, 0.0, 0.0]),  # positive before the zeros
        np.array([1.0, 0.0, 0.0, 0.0]),  # positive at tau = 0
    ],
)
def test_extremum_inputs_without_a_touching_node(arr):
    assert touching_node_by_loop(arr, 1e-8) is None
    with pytest.raises(HypothesisViolation):
        extremum_sign_check(arr, Grid(1.0, 3), OperatorConfig(0.5))


class TestVerifyComparison:
    def test_strict_ordered_pair(self):
        spec = constant_forcing_spec(omega0=0.0)
        grid = Grid(1.0, 64)
        rep = verify_comparison(
            spec,
            v=lambda t: -1.0 - t,
            w=lambda t: 1.0 + t,
            grid=grid,
            mode=Strictness.STRICT,
        )
        assert rep.hypothesis_ok
        assert rep.lower_ineq_ok and rep.upper_ineq_ok
        assert rep.conclusion_ok
        assert np.all(rep.lower_margins[1:] > 0.0)
        assert np.all(rep.upper_margins[1:] > 0.0)

    def test_strict_fails_for_equal_pair(self):
        spec = constant_forcing_spec(omega0=0.0)
        rep = verify_comparison(
            spec,
            v=lambda t: 0.0,
            w=lambda t: 0.0,
            grid=Grid(1.0, 32),
            mode=Strictness.STRICT,
        )
        assert not rep.conclusion_ok

    def test_nonstrict_equal_pair(self):
        spec = constant_forcing_spec(omega0=0.0)
        rep = verify_comparison(
            spec,
            v=lambda t: 0.0,
            w=lambda t: 0.0,
            grid=Grid(1.0, 32),
            mode=Strictness.NONSTRICT,
        )
        assert rep.hypothesis_ok and rep.conclusion_ok
        assert rep.lower_ineq_ok and rep.upper_ineq_ok
        assert rep.Lg == 0.0
        assert rep.Lg_bound == pytest.approx(2.0, rel=1e-14)

    def test_nonstrict_samples_f_once_on_the_lattice(self, monkeypatch):
        shapes = []
        f_samples = ProblemSpec.f_samples

        def counted(spec, taus, omegas):
            shapes.append(np.shape(taus))
            return f_samples(spec, taus, omegas)

        monkeypatch.setattr(ProblemSpec, "f_samples", counted)
        rep = verify_comparison(
            constant_forcing_spec(omega0=0.0),
            v=lambda t: 0.0,
            w=lambda t: 1.0,
            grid=Grid(1.0, 32),
            mode=Strictness.NONSTRICT,
        )
        assert rep.Lg == 0.0
        # the two paths, then the 11 x 31 lattice once
        assert shapes == [(33,), (33,), (11, 1)]

    def test_degenerate_f_rejected(self):
        s = ProblemSpec(
            T=1.0,
            omega0=1.0,
            f=lambda t, w: w,
            g=lambda t, w: 0.0,
            cfg=OperatorConfig(0.5),
        )
        with pytest.raises(DegenerateF):
            verify_comparison(
                s, v=lambda t: 0.0, w=lambda t: 1.0, grid=Grid(1.0, 16)
            )

    def test_eps_shift_margins_positive(self):
        # shifting a solution down by eps E_alpha(tau^alpha) makes it a
        # strict lower function, up by the same a strict upper one
        spec = constant_forcing_spec(omega0=1.0)
        grid = Grid(1.0, 64)
        eps = 0.1
        shift = lambda t: eps * ml_one(0.5, t**0.5)
        rep = verify_comparison(
            spec,
            v=lambda t: 1.0 - shift(t),
            w=lambda t: 1.0 + shift(t),
            grid=grid,
            mode=Strictness.STRICT,
        )
        assert np.all(rep.lower_margins[1:] > 0.0)
        assert np.all(rep.upper_margins[1:] > 0.0)
        assert rep.conclusion_ok

    def test_eps_shift_derivative_closed_form(self):
        # the numerical derivative of eps E_alpha(tau^alpha) matches
        # eps B [E_alpha(tau^alpha) - E_alpha(-lam tau^alpha)] to C h
        from abcfde import abc_derivative

        cfg = OperatorConfig(0.5)
        grid = Grid(1.0, 256)
        eps = 0.1
        t = grid.nodes
        samples = eps * ml_one(0.5, t**0.5)
        exact = eps * cfg.b * (ml_one(0.5, t**0.5) - ml_one(0.5, -(t**0.5)))
        num = abc_derivative(samples, grid, cfg)
        C = estimate_discretization_constant(cfg, grid)
        assert np.max(np.abs(num - exact)[1:]) < max(10.0 * C * grid.h, 0.05)
