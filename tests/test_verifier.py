import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from abcfde import (
    Grid,
    OperatorConfig,
    ProblemSpec,
    Strictness,
    estimate_discretization_constant,
    estimate_g_onesided_lipschitz,
    extremum_sign_check,
    fundamental_theorem_check,
    golden_identity_check,
    ml_one,
    verify_comparison,
)
from abcfde.errors import (
    DegenerateF,
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


class TestDiscretizationConstant:
    def test_positive_and_stable(self):
        cfg = OperatorConfig(0.5)
        c64 = estimate_discretization_constant(cfg, Grid(1.0, 64))
        c128 = estimate_discretization_constant(cfg, Grid(1.0, 128))
        assert c64 > 0.0 and c128 > 0.0
        # error ~ C h means the ratio of estimates is mesh-insensitive
        assert 0.5 < c128 / c64 < 2.0


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
            constant_forcing_spec(), (-1.0, 1.0)
        ) == 0.0

    def test_linear_g(self):
        s = ProblemSpec(
            T=1.0,
            omega0=0.0,
            f=lambda t, w: 1.0,
            g=lambda t, w: 0.5 * w,
            cfg=OperatorConfig(0.5),
        )
        assert estimate_g_onesided_lipschitz(s, (-1.0, 1.0)) == pytest.approx(
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
        L = estimate_g_onesided_lipschitz(s, (-1.0, 1.0), n_omega=101)
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
        assert estimate_g_onesided_lipschitz(s, (-1.0, 1.0)) == 0.0

    def test_nonmonotone_quotient_rejected(self):
        s = ProblemSpec(
            T=1.0,
            omega0=0.0,
            f=lambda t, w: 1.0 + w**2,
            g=lambda t, w: 0.0,
            cfg=OperatorConfig(0.5),
        )
        with pytest.raises(MonotonicityViolation):
            estimate_g_onesided_lipschitz(s, (0.0, 2.0))


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
            lipschitz_box=(-1.0, 1.0),
        )
        assert rep.hypothesis_ok and rep.conclusion_ok
        assert rep.lower_ineq_ok and rep.upper_ineq_ok
        assert rep.Lg == 0.0
        assert rep.Lg_bound == pytest.approx(2.0, rel=1e-14)

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
