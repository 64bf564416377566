import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from abcfde import (
    Grid,
    OperatorConfig,
    ProblemSpec,
    bracket_maximal,
    bracket_minimal,
    check_enclosure,
    picard_solve,
    solve_perturbed,
)
from abcfde import load_problem, solver
from abcfde.errors import EnclosureViolation, EvalError, MaxSweepsExceeded, NonFiniteIterate
from abcfde.expression import BUILTINS, takes_arrays
from abcfde.extremal import _bracket
from abcfde.operators import FFT_MIN_LENGTH
from abcfde.solver import perturbed

from conftest import (
    MANUFACTURED_TEXT,
    NONLINEAR_TEXT,
    assert_same_outcome,
    constant_forcing_spec,
    outcome,
    perturbed_closed_form,
    whole_grid_picard,
)


class TestSolvePerturbed:
    def test_eps_zero_is_plain_solve(self):
        spec = constant_forcing_spec(omega0=1.0)
        grid = Grid(1.0, 32)
        plain = picard_solve(spec, grid)
        shifted = solve_perturbed(spec, 0.0, +1, grid)
        assert np.array_equal(plain.omega, shifted.omega)

    def test_negative_eps_rejected(self):
        with pytest.raises(ValueError):
            solve_perturbed(constant_forcing_spec(), -0.1, +1, Grid(1.0, 8))

    def test_matches_closed_form(self):
        spec = constant_forcing_spec(omega0=1.0)
        grid = Grid(1.0, 64)
        for sign in (+1, -1):
            trace = solve_perturbed(spec, 0.2, sign, grid)
            exact = perturbed_closed_form(grid, spec.cfg, 1.0, 0.2, sign)
            assert np.allclose(trace.omega, exact, atol=1e-9)


class TestBracketMaximal:
    def test_manufactured_mittag_leffler_runs_once_on_the_nodes(self, monkeypatch):
        # every eps level shifts the same g, whose tau-only mlf3 is
        # memoised on the grid's read-only nodes
        arity, fn = BUILTINS["mlf3"]
        sizes = []
        monkeypatch.setitem(
            BUILTINS, "mlf3", (arity, lambda *a: sizes.append(np.size(a[-1])) or fn(*a))
        )
        spec = load_problem(MANUFACTURED_TEXT)
        result = bracket_maximal(spec, Grid(1.0, 64), levels=4)
        assert result.ordering_ok
        assert sizes == [1, 65]

    def test_levels_and_ordering(self):
        spec = constant_forcing_spec(omega0=1.0)
        grid = Grid(1.0, 32)
        res = bracket_maximal(spec, eps0=0.1, ratio=0.5, levels=6, grid=grid)
        assert res.sign == +1
        assert res.eps_levels == [0.1 * 0.5**n for n in range(6)]
        assert res.ordering_ok
        assert res.first_violation_node is None
        assert len(res.traces) == 6
        assert np.array_equal(res.limit, res.traces[-1].omega)

    def test_each_level_matches_closed_form(self):
        spec = constant_forcing_spec(omega0=1.0)
        grid = Grid(1.0, 32)
        res = bracket_maximal(spec, eps0=0.1, ratio=0.5, levels=4, grid=grid)
        for eps, trace in zip(res.eps_levels, res.traces):
            exact = perturbed_closed_form(grid, spec.cfg, 1.0, eps, +1)
            assert np.allclose(trace.omega, exact, atol=1e-9)

    def test_gap_ratio_tracks_eps_schedule(self):
        # the perturbed solution is linear in eps, so successive sup
        # gaps shrink by exactly the eps ratio
        spec = constant_forcing_spec(omega0=1.0)
        res = bracket_maximal(
            spec, eps0=0.1, ratio=0.5, levels=6, grid=Grid(1.0, 32)
        )
        for g0, g1 in zip(res.sup_gaps, res.sup_gaps[1:]):
            assert g1 / g0 == pytest.approx(0.5, rel=1e-2)

    def test_limit_approaches_true_solution(self):
        spec = constant_forcing_spec(omega0=1.0)
        grid = Grid(1.0, 32)
        res = bracket_maximal(spec, eps0=0.1, ratio=0.5, levels=10, grid=grid)
        true = picard_solve(spec, grid).omega
        final_eps = res.eps_levels[-1]
        assert np.max(np.abs(res.limit - true)) < 5.0 * final_eps


class TestBracketMinimal:
    def test_mirror_of_maximal_for_odd_problem(self):
        # g == 0, omega0 = 0 is odd under omega -> -omega, so the
        # minimal bracket is the reflection of the maximal one
        spec = constant_forcing_spec(omega0=0.0)
        grid = Grid(1.0, 32)
        mx = bracket_maximal(spec, eps0=0.1, ratio=0.5, levels=5, grid=grid)
        mn = bracket_minimal(spec, eps0=0.1, ratio=0.5, levels=5, grid=grid)
        assert mn.sign == -1
        assert mn.ordering_ok
        assert np.allclose(mn.limit, -mx.limit, atol=1e-9)

    def test_traces_increase_toward_limit(self):
        spec = constant_forcing_spec(omega0=1.0)
        res = bracket_minimal(
            spec, eps0=0.1, ratio=0.5, levels=5, grid=Grid(1.0, 32)
        )
        for prev, cur in zip(res.traces, res.traces[1:]):
            assert np.all(cur.omega[1:] > prev.omega[1:])


class TestBracketPreconditions:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"eps0": 0.0},
            {"eps0": -0.1},
            {"ratio": 0.0},
            {"ratio": 1.0},
            {"levels": 1},
        ],
    )
    def test_invalid_schedule(self, kwargs):
        args = {"eps0": 0.1, "ratio": 0.5, "levels": 4, **kwargs}
        with pytest.raises(ValueError):
            bracket_maximal(constant_forcing_spec(), grid=Grid(1.0, 8), **args)

    @pytest.mark.parametrize("bracket", [bracket_maximal, bracket_minimal])
    def test_unresolvable_levels_refused_before_solving(self, bracket, monkeypatch):
        # the last of 64 levels sits 1.1e-20 below the one before, far under
        # tol = 1e-10; 30 levels end on a step of 1.9e-10
        import abcfde.extremal as ext

        class Solved(Exception):
            pass

        def no_solve(*args, **kwargs):
            raise Solved

        monkeypatch.setattr(ext, "picard_stack", no_solve)
        spec, grid = load_problem(MANUFACTURED_TEXT), Grid(1.0, 4096)
        with pytest.raises(ValueError, match="of 64 eps levels, 1.08e-20, is below tol=1e-10"):
            bracket(spec, grid, levels=64)
        with pytest.raises(ValueError, match="levels, 0.0125, is below tol=0.02"):
            bracket(spec, grid, levels=4, tol=0.02)
        with pytest.raises(Solved):
            bracket(spec, grid, levels=30)

    @pytest.mark.parametrize("bracket", [bracket_maximal, bracket_minimal])
    def test_grid_is_required(self, bracket):
        with pytest.raises(TypeError, match="grid"):
            bracket(constant_forcing_spec())


class TestOrderingDetection:
    def test_violation_recorded(self, monkeypatch):
        import abcfde.extremal as ext

        grid = Grid(1.0, 8)
        fabricated = {
            0.1: np.full(9, 1.0),
            0.05: np.full(9, 2.0),  # larger than its predecessor: violation
        }

        def fake_stack(spec, g, shifts, tol, max_sweeps):
            from abcfde import SolutionTrace

            return [
                SolutionTrace(g, fabricated[round(abs(s), 10)], [0.0], np.zeros(9))
                for s in shifts
            ]

        monkeypatch.setattr(ext, "picard_stack", fake_stack)
        res = _bracket(
            constant_forcing_spec(omega0=1.0),
            0.1,
            0.5,
            2,
            grid,
            1e-10,
            50,
            +1,
        )
        assert not res.ordering_ok
        assert res.first_violation_node == 1


class TestEnclosure:
    def _setup(self, omega0=1.0, N=32):
        spec = constant_forcing_spec(omega0=omega0)
        grid = Grid(1.0, N)
        sol = picard_solve(spec, grid)
        mx = bracket_maximal(spec, eps0=0.1, ratio=0.5, levels=8, grid=grid)
        mn = bracket_minimal(spec, eps0=0.1, ratio=0.5, levels=8, grid=grid)
        return sol, mx, mn

    def test_solution_enclosed(self):
        sol, mx, mn = self._setup()
        rep = check_enclosure(sol, mx, mn)
        assert rep.worst_low_margin >= 0.0
        assert rep.worst_high_margin >= 0.0
        assert rep.slack > 0.0

    def test_escape_detected(self):
        sol, mx, mn = self._setup()
        sol.omega = sol.omega + 10.0  # push far outside the bracket
        with pytest.raises(EnclosureViolation) as exc:
            check_enclosure(sol, mx, mn)
        assert exc.value.node is not None

    def test_slack_formula(self):
        sol, mx, mn = self._setup()
        rep = check_enclosure(sol, mx, mn, slack_constant=2.0)
        eps_last = mx.eps_levels[-1]
        assert rep.slack == pytest.approx(2.0 * sol.grid.h + eps_last, rel=1e-14)


def per_level(spec, grid, sign, eps0=0.1, ratio=0.5, levels=4, max_sweeps=200):
    """What solving each level alone gives: the traces, or the error of
    the first level that fails."""
    try:
        return [
            solve_perturbed(spec, eps0 * ratio**n, sign, grid, max_sweeps=max_sweeps)
            for n in range(levels)
        ]
    except Exception as exc:
        return exc


def stacked(spec, grid, sign, eps0=0.1, ratio=0.5, levels=4, max_sweeps=200):
    """The same through the bracket, which solves the levels as one stack."""
    bracket = bracket_maximal if sign > 0 else bracket_minimal
    try:
        return bracket(spec, grid, eps0=eps0, ratio=ratio, levels=levels,
                       max_sweeps=max_sweeps).traces
    except Exception as exc:
        return exc


def scalar_spec(alpha):
    """math callables, which sample calls once per node."""
    return ProblemSpec(
        T=1.0,
        omega0=0.5,
        f=lambda t, w: 1.0 + 0.1 * math.sin(w),
        g=lambda t, w: t * math.cos(w),
        cfg=OperatorConfig(alpha),
    )


class TestOneStack:
    """bracket_maximal and bracket_minimal solve the levels as one stack,
    with bitwise the outcome of solving each level alone."""

    @given(
        kind=st.sampled_from(["nonlinear", "manufactured", "scalar"]),
        alpha=st.floats(0.3, 0.9),
        eps0=st.floats(1e-4, 0.3),
        ratio=st.floats(0.05, 0.9),
        levels=st.integers(2, 5),
        # both sides of the direct / FFT cut-over of the RL convolution
        N=st.one_of(st.integers(2, 48), st.integers(FFT_MIN_LENGTH, FFT_MIN_LENGTH + 48)),
        sign=st.sampled_from([+1, -1]),
    )
    @settings(max_examples=30, deadline=None)
    def test_levels_are_bitwise_the_per_level_solves(
        self, kind, alpha, eps0, ratio, levels, N, sign
    ):
        if kind == "scalar":
            spec = scalar_spec(alpha)
        else:
            text = NONLINEAR_TEXT if kind == "nonlinear" else MANUFACTURED_TEXT
            spec = load_problem(text.replace("alpha = 0.", f"alpha = {alpha!r} #", 1))
            assert spec.alpha == alpha
        grid = Grid(spec.T, N)
        args = (spec, grid, sign, eps0, ratio, levels)
        assert_same_outcome(per_level(*args), stacked(*args))

    def test_an_underflowed_eps_keeps_its_sign(self):
        # eps0 * ratio^2 is 0.0, so the last level shifts by -0.0; the
        # bracket refuses a last step below tol, so the stack is called
        # with the shifts the bracket would form
        spec = load_problem(NONLINEAR_TEXT)
        args = (spec, Grid(spec.T, 32), -1, 1e-200, 1e-200, 3)
        shifts = [-1 * 1e-200 * 1e-200**n for n in range(3)]
        assert str(shifts[-1]) == "-0.0"
        assert_same_outcome(per_level(*args), solver.picard_stack(spec, args[1], shifts))

    @pytest.mark.parametrize("sign, cap", [(+1, 12), (-1, 13), (-1, 12)])
    def test_max_sweeps_in_some_levels(self, sign, cap):
        # the levels march in one block, and take 12, 13, 13, 13 sweeps
        # above and 13, 13, 13, 14 below
        spec = load_problem(NONLINEAR_TEXT)
        args = (spec, Grid(spec.T, 16), sign, 0.1, 0.5, 4, cap)
        want = per_level(*args)
        assert isinstance(want, MaxSweepsExceeded)
        assert_same_outcome(want, stacked(*args))

    def test_non_finite_iterate(self):
        @takes_arrays
        def g(t, w):
            with np.errstate(over="ignore", invalid="ignore"):
                return t * np.exp(50.0 * w)

        spec = ProblemSpec(T=1.0, omega0=1.0, f=lambda t, w: 1.0, g=g, cfg=OperatorConfig(0.5))
        args = (spec, Grid(1.0, 16), +1)
        with np.errstate(all="ignore"):
            want, got = per_level(*args), stacked(*args)
        assert isinstance(want, NonFiniteIterate)
        assert_same_outcome(want, got)

    @pytest.mark.parametrize("omega0", [0.08, 0.02])
    def test_domain_error_in_one_level_names_a_sample_of_it(self, omega0):
        # sqrt(omega) is undefined at the start of the lowest level(s) only
        spec = load_problem(f"alpha = 0.5\nT = 1\nomega0 = {omega0}\nf = sqrt(omega)\ng = tau\n")
        args = (spec, Grid(1.0, 64), -1)
        want = per_level(*args)
        assert isinstance(want, EvalError)
        got = stacked(*args)
        assert_same_outcome(want, got)
        assert str(got).endswith(" at sample 0")

    def band_spec(self):
        """g raises on omega in [0.52, 0.53), where only the third level of
        the maximal bracket starts; the levels above it never get there."""

        def g(t, w):
            if 0.52 <= w < 0.53:
                raise ValueError("in the band")
            return t * math.cos(w)

        return ProblemSpec(T=1.0, omega0=0.5, f=lambda t, w: 1.0, g=g, cfg=OperatorConfig(0.5))

    def test_a_later_level_fails_after_the_earlier_ones_finish(self):
        args = (self.band_spec(), Grid(1.0, 16), +1)
        want = per_level(*args)
        assert str(want) == "in the band: shifted(0.0, 0.525) at sample 0"
        assert_same_outcome(want, stacked(*args))

    @pytest.mark.parametrize("N", [64, 4096])  # one march block, then four
    @pytest.mark.parametrize("s", [0.1, -0.05])
    def test_one_level_is_its_solo_solve(self, N, s):
        # one level marches as a stack of one row
        spec = load_problem(NONLINEAR_TEXT)
        grid = Grid(spec.T, N)
        want = picard_solve(perturbed(spec, abs(s), int(math.copysign(1.0, s))), grid)
        assert_same_outcome([want], solver.picard_stack(spec, grid, [s]))

    def test_one_level_that_raises_names_a_sample_of_its_own_g(self):
        # the stacked sweep samples g itself and raises; the level solved
        # alone samples its shift of g
        spec, grid = self.band_spec(), Grid(1.0, 16)
        want = outcome(lambda: picard_solve(perturbed(spec, 0.025, +1), grid))
        assert str(want) == "in the band: shifted(0.0, 0.525) at sample 0"
        assert_same_outcome(want, outcome(lambda: solver.picard_stack(spec, grid, [0.025])))

    def test_an_earlier_level_fails_first_in_level_order(self):
        # the third level fails at its first sweep, but the first level
        # comes first and runs out of sweeps at the 8th of its march
        args = (self.band_spec(), Grid(1.0, 16), +1, 0.1, 0.5, 4, 8)
        want = per_level(*args)
        assert type(want) is MaxSweepsExceeded
        assert_same_outcome(want, stacked(*args))

    def test_an_earlier_non_finite_level_fails_before_a_later_raise(self):
        # the first level overflows at its second sweep; the third starts in
        # the band and raises at the first sweep of the stack
        def g(t, w):
            if 0.52 <= w < 0.53:
                raise ValueError("in the band")
            return t * np.exp(50.0 * w)

        spec = ProblemSpec(T=1.0, omega0=0.5, f=lambda t, w: 1.0, g=g, cfg=OperatorConfig(0.5))
        args = (spec, Grid(1.0, 16), +1)
        with np.errstate(all="ignore"):
            want, got = per_level(*args), stacked(*args)
        assert type(want) is NonFiniteIterate
        assert want.trace.iterations == 2
        assert_same_outcome(want, got)

    def test_levels_past_the_element_budget_go_in_blocks(self, monkeypatch):
        spec = load_problem(NONLINEAR_TEXT)
        grid = Grid(spec.T, 64)
        want = per_level(spec, grid, +1, levels=5)
        monkeypatch.setattr(solver, "STACK_ELEMENTS", 2 * (grid.N + 1))
        assert solver.stack_rows(grid) == 2
        assert_same_outcome(want, stacked(spec, grid, +1, levels=5))
        monkeypatch.setattr(solver, "STACK_ELEMENTS", 1)
        assert solver.stack_rows(grid) == 1
        assert_same_outcome(want, stacked(spec, grid, +1, levels=5))

    @pytest.mark.parametrize(
        "sign, sweeps", [(+1, [22, 21, 21, 21]), (-1, [23, 25, 24, 24])]
    )
    def test_marched_levels_are_bitwise_the_per_level_solves(self, sign, sweeps):
        # 4096 nodes march every level in 4 blocks, to the fixed points that
        # whole-grid Picard reaches in 43-47 sweeps
        spec = load_problem(NONLINEAR_TEXT)
        grid = Grid(spec.T, 4096)
        want = per_level(spec, grid, sign)
        assert [t.iterations for t in want] == sweeps
        assert all(t.residual_sup <= 1e-10 for t in want)
        for n, trace in enumerate(want):
            oracle = whole_grid_picard(perturbed(spec, 0.1 * 0.5**n, sign), grid)
            assert oracle.converged and 43 <= oracle.iterations <= 47
            assert np.max(np.abs(trace.omega - oracle.omega)) <= 1e-9
        assert_same_outcome(want, stacked(spec, grid, sign))

    def test_a_level_whose_block_sweep_raises_fails_in_level_order(self):
        # the stacked sweep of the first block raises, so the levels are
        # solved again one by one, and the third raises there: its node 0
        # alone sits in [0.53, 0.54) in that block
        base = load_problem(NONLINEAR_TEXT)

        @takes_arrays
        def g(t, w):
            if np.shape(w)[-1] == 1025 and np.any((0.53 <= w[..., 0]) & (w[..., 0] < 0.54)):
                raise ValueError("the third level in the first block")
            return base.g(t, w)

        spec = replace(base, g=g)
        grid = Grid(spec.T, 4096)
        want = per_level(spec, grid, +1)
        assert str(want) == "the third level in the first block"
        assert_same_outcome(want, stacked(spec, grid, +1))
        assert [t.iterations for t in per_level(spec, grid, +1, levels=2)] == [22, 21]

    def test_a_raising_probe_takes_the_picard_step(self):
        # g raises on the probe of each block's first sweep, the sample a
        # step d = 2^-26 max(1, |w|) above the sweep's own: the stacked probe
        # hands the levels to their solo solves, each of which takes the
        # Picard step there, and no probe error escapes
        base = load_problem(NONLINEAR_TEXT)
        seen = {"last": None, "probes": 0}

        @takes_arrays
        def g(t, w):
            last, w = seen["last"], np.array(w, dtype=float)
            seen["last"] = w
            if last is not None and np.array_equal(
                w, last + 2.0**-26 * np.maximum(1.0, np.abs(last))
            ):
                seen["probes"] += 1
                raise ValueError("the probe")
            return base.g(t, w)

        spec = replace(base, g=g)
        grid = Grid(spec.T, 4096)
        blocks = len(solver.march_blocks(grid.N))
        trace = picard_solve(spec, grid)
        assert seen["probes"] == blocks
        assert trace.converged and trace.residual_sup <= 1e-10
        oracle = whole_grid_picard(base, grid)
        assert np.max(np.abs(trace.omega - oracle.omega)) <= 1e-9
        want = per_level(spec, grid, +1)
        assert seen["probes"] == 5 * blocks
        assert all(t.converged for t in want)
        seen["probes"] = 0
        assert_same_outcome(want, stacked(spec, grid, +1))
        # the stack's first probe, then each level's own
        assert seen["probes"] == 1 + 4 * blocks

    def test_marched_levels_build_the_grid_once(self, weight_builds):
        spec = load_problem(NONLINEAR_TEXT)
        bracket_maximal(spec, Grid(spec.T, 4096), levels=4)
        # the RL weights, the convolution of each block's 1024 steps, and
        # the cyclic ones of 2048 and 4096 that bring in the blocks before
        assert weight_builds == [4096, 1024, 2048, 4096]

    def test_one_g_sample_per_sweep_of_a_marched_stack(self, monkeypatch):
        spec = load_problem(NONLINEAR_TEXT)
        grid = Grid(spec.T, 64)
        sweeps = [t.iterations for t in per_level(spec, grid, +1)]
        calls = []
        g_samples = ProblemSpec.g_samples

        def counted(self, taus, omegas):
            calls.append(np.shape(omegas))
            return g_samples(self, taus, omegas)

        monkeypatch.setattr(ProblemSpec, "g_samples", counted)
        bracket_maximal(spec, grid, levels=4)
        # one block on 64 nodes: each sweep of the slowest level
        assert len(calls) == max(sweeps)
        assert calls[:3] == [(4, grid.N + 1)] * 3

    def test_each_sample_of_a_marched_level_is_one_of_its_sweeps(self, monkeypatch):
        # 4 levels marched in 4 blocks at N = 4096: every row of every f and g
        # sample is a counted sweep of its level or the probe that opens each
        # of its blocks, and no sweep only reads residuals
        spec = load_problem(NONLINEAR_TEXT)
        grid = Grid(spec.T, 4096)
        sweeps = [t.iterations for t in per_level(spec, grid, +1)]
        assert sweeps == [22, 21, 21, 21]
        rows = {"f_samples": 0, "g_samples": 0}
        for name in rows:
            method = getattr(ProblemSpec, name)

            def counted(self, taus, omegas, name=name, method=method):
                rows[name] += len(omegas) if np.ndim(omegas) == 2 else 1
                return method(self, taus, omegas)

            monkeypatch.setattr(ProblemSpec, name, counted)
        bracket_maximal(spec, grid, levels=4)
        samples = sum(sweeps) + 4 * len(solver.march_blocks(grid.N))
        assert rows == {"f_samples": samples, "g_samples": samples}
