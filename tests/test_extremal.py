import numpy as np
import pytest

from abcfde import (
    Grid,
    bracket_maximal,
    bracket_minimal,
    check_enclosure,
    picard_solve,
    solve_perturbed,
)
from abcfde import load_problem
from abcfde.errors import EnclosureViolation
from abcfde.expression import BUILTINS
from abcfde.extremal import _bracket

from conftest import MANUFACTURED_TEXT, constant_forcing_spec, perturbed_closed_form


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

        def fake_solve(spec, eps, sign, g, tol, max_sweeps):
            from abcfde import SolutionTrace

            return SolutionTrace(g, fabricated[round(eps, 10)], [0.0], np.zeros(9))

        monkeypatch.setattr(ext, "solve_perturbed", fake_solve)
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
