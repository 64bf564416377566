import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from abcfde import (
    BConvention,
    Grid,
    KernelConvention,
    OperatorConfig,
    ProblemSpec,
    check_monotone_quotient,
    estimate_g_onesided_lipschitz,
    estimate_h_norm,
    estimate_lipschitz_f,
    existence_condition,
    load_problem,
    picard_solve,
    rhs_operator,
    sample_box,
    solve_majorant,
)
from abcfde import expression, solver
from abcfde.errors import EvalError, MaxSweepsExceeded, NonFiniteIterate, ValidationError
from abcfde.expression import BUILTINS, takes_arrays
from abcfde.solver import (
    MAX_GROWING_SWEEPS,
    max_pair_slope,
    perturbed,
    singular_integral_coefficient,
)

from conftest import (
    MANUFACTURED_TEXT,
    NONLINEAR_TEXT,
    assert_same_outcome,
    constant_forcing_spec,
    manufactured_exact_nodes,
    outcome,
    perturbed_closed_form,
    plain_nonlinear_sweep,
)


class TestLoadProblem:
    def test_manufactured_parses(self, manufactured_spec):
        s = manufactured_spec
        assert s.alpha == 0.5
        assert s.T == 1.0
        assert s.omega0 == 1.0
        assert s.cfg.b_convention is BConvention.UNIT
        assert s.cfg.kernel_convention is KernelConvention.GAMMA
        assert s.f(0.3, 2.0) == 1.0
        assert s.g(0.0, 1.0) == 0.0

    def test_defaults(self):
        s = load_problem("alpha=0.5\nT=1\nomega0=0\nf=1\ng=tau")
        assert s.cfg.b_convention is BConvention.UNIT
        assert s.cfg.kernel_convention is KernelConvention.GAMMA
        assert s.omega_box is None

    def test_comments_and_blank_lines(self):
        text = "# header\n\nalpha = 0.5  # inline\nT = 1\nomega0 = 0\nf = 1\ng = tau\n"
        assert load_problem(text).alpha == 0.5

    def test_box_parsed(self):
        text = "alpha=0.5\nT=1\nomega0=0\nf=1\ng=tau\nomega_min=-1\nomega_max=2"
        assert load_problem(text).omega_box == (-1.0, 2.0)

    @pytest.mark.parametrize("key", ["alpha", "T", "omega0", "f", "g"])
    def test_missing_required_key(self, key):
        base = {"alpha": "0.5", "T": "1", "omega0": "0", "f": "1", "g": "tau"}
        del base[key]
        text = "\n".join(f"{k} = {v}" for k, v in base.items())
        with pytest.raises(ValidationError):
            load_problem(text)

    def test_alpha_out_of_range(self):
        with pytest.raises(ValidationError):
            load_problem("alpha=1.5\nT=1\nomega0=0\nf=1\ng=tau")

    def test_bad_number(self):
        with pytest.raises(ValidationError):
            load_problem("alpha=half\nT=1\nomega0=0\nf=1\ng=tau")

    @pytest.mark.parametrize(
        "key,value",
        [("T", "inf"), ("omega0", "nan"), ("alpha", "nan"), ("omega_min", "-inf"),
         ("omega_max", "inf")],
    )
    def test_non_finite_number(self, key, value):
        entries = {"alpha": "0.5", "T": "1", "omega0": "0", "f": "1", "g": "tau",
                   "omega_min": "-1", "omega_max": "1", key: value}
        text = "\n".join(f"{k} = {v}" for k, v in entries.items())
        with pytest.raises(ValidationError) as info:
            load_problem(text)
        assert info.value.field == key

    def test_bad_line(self):
        with pytest.raises(ValidationError):
            load_problem("alpha=0.5\nT=1\nomega0=0\nf=1\ng=tau\nnonsense")

    def test_bad_convention_names(self):
        with pytest.raises(ValidationError):
            load_problem("alpha=0.5\nT=1\nomega0=0\nf=1\ng=tau\nB=WRONG")
        with pytest.raises(ValidationError):
            load_problem("alpha=0.5\nT=1\nomega0=0\nf=1\ng=tau\nkernel=WRONG")

    def test_bad_box(self):
        with pytest.raises(ValidationError):
            load_problem(
                "alpha=0.5\nT=1\nomega0=0\nf=1\ng=tau\nomega_min=2\nomega_max=1"
            )

    def test_g_must_vanish_initially(self):
        # g(0, omega0) = 1 != 0
        with pytest.raises(ValidationError):
            load_problem("alpha=0.5\nT=1\nomega0=0\nf=1\ng=1")

    def test_f_must_not_vanish_initially(self):
        # f(0, omega0) = 0
        with pytest.raises(ValidationError):
            load_problem("alpha=0.5\nT=1\nomega0=0\nf=tau\ng=tau")

    def test_unknown_key_rejected(self):
        # ignored, a misspelt kernel would leave the GAMMA default in place
        text = "alpha=0.5\nT=1\nomega0=0\nf=1\ng=tau\nkernal = PAPER_HYBRID\n"
        with pytest.raises(ValidationError, match="^kernal: line 6: unknown key$"):
            load_problem(text)

    def test_repeated_key_rejected(self):
        text = "alpha=0.5\nT=1\nomega0=0\nf=1\ng=tau\nT = 3\n"
        with pytest.raises(ValidationError, match="^T: line 6: repeated key$"):
            load_problem(text)


class TestValidate:
    def test_direct_spec(self):
        constant_forcing_spec().validate()

    def test_negative_T(self):
        s = ProblemSpec(
            T=-1.0,
            omega0=0.0,
            f=lambda t, w: 1.0,
            g=lambda t, w: 0.0,
            cfg=OperatorConfig(0.5),
        )
        with pytest.raises(ValidationError):
            s.validate()

    @pytest.mark.parametrize("T", [math.inf, math.nan])
    def test_T_must_be_finite(self, T):
        s = ProblemSpec(
            T=T,
            omega0=0.0,
            f=lambda t, w: 1.0,
            g=lambda t, w: 0.0,
            cfg=OperatorConfig(0.5),
        )
        with pytest.raises(ValidationError, match="T: must be finite"):
            s.validate()

    @pytest.mark.parametrize(
        "f0,g0,field",
        [(math.nan, 0.0, "f"), (math.inf, 0.0, "f"), (-math.inf, 0.0, "f"), (1.0, math.nan, "g")],
    )
    def test_start_values_must_be_finite(self, f0, g0, field):
        # abs(nan) > G0_TOL is False: such a spec got through, then failed
        # at sweep 1 with NonFiniteIterate
        s = ProblemSpec(
            T=1.0,
            omega0=0.5,
            f=lambda t, w: f0 if t == 0.0 else 1.0,
            g=lambda t, w: g0 if t == 0.0 else t,
            cfg=OperatorConfig(0.5),
        )
        with pytest.raises(ValidationError) as info:
            s.validate()
        assert info.value.field == field


class TestMonotoneQuotient:
    def test_f_one_passes(self):
        rep = check_monotone_quotient(sample_box(constant_forcing_spec(), (-2.0, 2.0)))
        assert rep.passed
        assert rep.min_slope == pytest.approx(1.0, rel=1e-12)

    def test_decreasing_quotient_fails(self):
        # q(w) = w / (1 + w^2) has q'(w) = (1 - w^2)/(1 + w^2)^2 < 0
        # for w > 1, so the check must fail on [0, 2]
        s = ProblemSpec(
            T=1.0,
            omega0=0.0,
            f=lambda t, w: 1.0 + w**2,
            g=lambda t, w: 0.0,
            cfg=OperatorConfig(0.5),
        )
        rep = check_monotone_quotient(sample_box(s, (0.0, 2.0), n_omega=201))
        assert not rep.passed
        # min q' is attained at w = sqrt(3) with value -1/8
        assert rep.min_slope == pytest.approx(-0.125, abs=5e-3)
        assert rep.omega_at_min == pytest.approx(math.sqrt(3.0), abs=0.05)

    def test_passes_inside_safe_box(self):
        s = ProblemSpec(
            T=1.0,
            omega0=0.0,
            f=lambda t, w: 1.0 + w**2,
            g=lambda t, w: 0.0,
            cfg=OperatorConfig(0.5),
        )
        assert check_monotone_quotient(sample_box(s, (-0.5, 0.5), n_omega=201)).passed

    def test_undefined_quotient_fails(self):
        # f = omega makes q = omega/f constant 1, and 0/0 at the sample
        # omega = 0; that NaN once dropped every row and passed the check
        s = load_problem("alpha=0.5\nT=1\nomega0=1\nf=omega\ng=0\n")
        rep = check_monotone_quotient(sample_box(s, (-1.0, 1.0)))
        assert math.isnan(rep.min_slope) and not rep.passed

    def test_bad_samples(self):
        with pytest.raises(ValidationError, match="lattice"):
            check_monotone_quotient(sample_box(constant_forcing_spec(), (0.0, 1.0), n_omega=1))


class TestSingularCoefficient:
    def test_gamma(self):
        assert singular_integral_coefficient(OperatorConfig(0.5)) == 0.5

    def test_paper_hybrid(self):
        cfg = OperatorConfig(
            0.5, kernel_convention=KernelConvention.PAPER_HYBRID
        )
        assert singular_integral_coefficient(cfg) == pytest.approx(
            math.gamma(0.5), rel=1e-15
        )


class TestRhsOperator:
    def test_zero_forcing_is_constant(self):
        s = constant_forcing_spec(omega0=2.0)
        grid = Grid(1.0, 16)
        out = rhs_operator(s, np.full(17, 2.0), grid)
        assert np.allclose(out, 2.0, atol=1e-15)

    def test_unit_forcing_hand_value(self):
        # f == 1, g == 1, omega0 = 0, GAMMA kernel, B == 1:
        # rhs = (1-a) + a tau^a / Gamma(a+1)
        s = ProblemSpec(
            T=1.0,
            omega0=0.0,
            f=lambda t, w: 1.0,
            g=lambda t, w: 1.0,
            cfg=OperatorConfig(0.5),
        )
        grid = Grid(1.0, 20)
        out = rhs_operator(s, np.zeros(21), grid)
        exact = 0.5 + 0.5 * grid.nodes**0.5 / math.gamma(1.5)
        assert np.allclose(out, exact, atol=1e-13)

    def test_manufactured_near_fixed_point(self, manufactured_spec):
        grid = Grid(1.0, 256)
        exact = manufactured_exact_nodes(grid)
        out = rhs_operator(manufactured_spec, exact, grid)
        # defect is pure discretization error, shrinking with the mesh
        assert np.max(np.abs(out - exact)) < 5e-3


    @pytest.mark.parametrize("N", [256, 1024])  # direct convolution, then FFT
    @pytest.mark.parametrize("text", [MANUFACTURED_TEXT, NONLINEAR_TEXT])
    def test_stack_rows_are_bitwise_the_row_calls(self, text, N):
        spec = load_problem(text)
        grid = Grid(spec.T, N)
        stack = spec.omega0 + np.array([k * np.sin(grid.nodes + k) for k in range(4)])
        out = rhs_operator(spec, stack, grid)
        assert out.shape == stack.shape
        for row, got in zip(stack, out):
            assert rhs_operator(spec, row, grid).tobytes() == got.tobytes()


    @pytest.mark.parametrize("N", [256, 4096])  # direct convolution, then FFT
    @pytest.mark.parametrize("b, kernel", [("UNIT", "GAMMA"), ("AB", "PAPER_HYBRID")])
    def test_sweep_is_bitwise_the_plain_numpy_sweep(self, b, kernel, N):
        spec = load_problem(NONLINEAR_TEXT + f"B = {b}\nkernel = {kernel}\n")
        grid = Grid(spec.T, N)
        problem = (spec.T, spec.alpha, spec.omega0, b, kernel)
        omega = spec.omega0 + 0.3 * np.sin(grid.nodes)
        want = plain_nonlinear_sweep(omega, *problem)
        assert rhs_operator(spec, omega, grid).tobytes() == want.tobytes()
        # a stack of four rows, as picard_stack builds it for these shifts
        shifts = [0.1, 0.05, -0.1, -0.05]
        rows = [perturbed(spec, abs(s), int(math.copysign(1.0, s))) for s in shifts]
        stack = solver._Stack(
            spec.T, np.array([[row.omega0] for row in rows]), spec.f, spec.g, spec.cfg,
            rows=tuple(rows), shifts=np.array([[s] for s in shifts]),
        )
        omegas = np.array([row.omega0 + 0.3 * np.sin(grid.nodes + k) for k, row in enumerate(rows)])
        out = rhs_operator(stack, omegas, grid)
        for omega, s, got in zip(omegas, shifts, out):
            assert got.tobytes() == plain_nonlinear_sweep(omega, *problem, shift=s).tobytes()

    def test_a_finite_sweep_scans_no_ufunc_result(self, monkeypatch):
        # a structural check, not a timing one: f and g are checked by the
        # floating-point flags, so a finite sweep broadcasts no shapes and
        # scans no result of an operator or ufunc for non-finite samples
        calls = []

        def counted(name, fn):
            def wrapper(*args):
                calls.append(name)
                return fn(*args)
            return wrapper

        monkeypatch.setattr(np, "broadcast_shapes", counted("broadcast_shapes", np.broadcast_shapes))
        monkeypatch.setattr(expression, "_checked", counted("_checked", expression._checked))
        spec = load_problem(NONLINEAR_TEXT)
        grid = Grid(spec.T, 4096)
        omega = spec.omega0 + 0.3 * np.sin(grid.nodes)
        assert np.isfinite(rhs_operator(spec, omega, grid)).all()
        assert calls == []
        # the counters see a scan: sin raises the invalid flag at inf
        omega[7] = np.inf
        with pytest.raises(EvalError, match=r"sin\(inf\) at sample 7$"):
            rhs_operator(spec, omega, grid)
        assert calls == ["_checked"]


LONG_HORIZON_TEXT = (  # lam T^alpha = 1.5; predicts about 4 more sweeps after its second
    "alpha=0.6\nT={T!r}\nomega0=1\nf=1 + 0.1*sin(omega)\ng=0.1*tau*cos(omega)"
).format(T=(1.5 * 0.4 / 0.6) ** (1 / 0.6))
# lam T^alpha = 2; its eps = 0.1 level predicts 9.0 more sweeps, the most of
# any long-horizon benchmark level
LEVEL_TEXT = (
    "alpha=0.59\nT={T!r}\nomega0=1\nf=1 + 0.1*sin(omega)\ng=0.1*tau*cos(omega)"
).format(T=(2 * 0.41 / 0.59) ** (1 / 0.59))
CORNER_TEXT = "alpha=0.5\nT=9\nomega0=1\nf=1 + 0.1*sin(omega)\ng=0.1*tau*cos(omega)"
BLOW_UP_TEXT = "alpha=0.5\nT=1\nomega0=0.5\nf=1\ng=tau*cos(omega) + 5*omega*tau"
# from omega0 = 0 the nonlinear problem predicts 14.1 more sweeps after its second
FAST_START_TEXT = NONLINEAR_TEXT.replace("alpha = 0.6", "alpha = 0.65").replace(
    "omega0 = 0.5", "omega0 = 0"
)
SLOW_ALPHA_TEXT = NONLINEAR_TEXT.replace("alpha = 0.6", "alpha = 0.3").replace(
    "omega0 = 0.5", "omega0 = 0"
)
# whole-grid Picard fails here (N = 1024 to 65536); the march converges
LONG_RUN_TEXT = (
    "alpha=0.9\nT=10\nomega0=0\nf=1 + 0.1*sin(omega)\ng=tau*cos(omega) + 0.05*omega*tau"
)


# alpha = 0.3, T = 5: the march lands on a second root unless each block
# starts near the solution
FLIP_TEXT = "alpha=0.3\nT=5\nomega0=0\nf=1 + 0.1*sin(omega)\ng=tau*cos(omega) + 0.1*omega*tau"


def cold(monkeypatch, solve):
    """The outcome of solve() with every row on whole-grid sweeps."""
    with monkeypatch.context() as patch:
        patch.setattr(solver, "MARCH_MIN_SWEEPS", math.inf)
        return outcome(solve)


@pytest.fixture
def block_sweeps(monkeypatch):
    """Counts the solver's sweeps by their g samples: calling the result
    gives the length of each run of sweeps over the same nodes since the
    last call, the whole grid's and then each march block's."""
    calls = []
    g_samples = ProblemSpec.g_samples

    def counted(self, taus, omegas):
        calls.append((float(np.ravel(taus)[0]), np.shape(omegas)[-1]))
        return g_samples(self, taus, omegas)

    monkeypatch.setattr(ProblemSpec, "g_samples", counted)

    def runs():
        counts = [len(list(run)) for _, run in itertools.groupby(calls)]
        del calls[:]
        return counts

    return runs


class TestPicard:
    def test_constant_solution(self):
        trace = picard_solve(constant_forcing_spec(omega0=1.5), Grid(1.0, 32))
        assert trace.converged
        assert trace.iterations <= 2
        assert np.allclose(trace.omega, 1.5, atol=1e-12)
        assert trace.residual_sup <= 1e-12

    def test_manufactured_convergence(self, manufactured_spec):
        errs = []
        for N in (64, 128, 256):
            grid = Grid(1.0, N)
            trace = picard_solve(manufactured_spec, grid)
            assert trace.converged
            errs.append(float(np.max(np.abs(trace.omega - manufactured_exact_nodes(grid)))))
        assert errs[-1] < errs[0]
        assert errs[-1] < 5e-3

    def test_manufactured_two_sweeps(self, manufactured_spec):
        # g depends on tau only, so the operator is constant and the
        # second sweep already reproduces the first iterate
        grid = Grid(1.0, 64)
        trace = picard_solve(manufactured_spec, grid)
        assert trace.iterations == 2
        assert trace.residual_sup == 0.0
        # the first image itself, whose image it is again
        first = rhs_operator(manufactured_spec, np.full(grid.N + 1, manufactured_spec.omega0), grid)
        assert trace.omega.tobytes() == first.tobytes()

    def test_divergence_raises_with_trace(self):
        # the diffs grow from the second sweep, so the row marches, and its
        # first block runs out of sweeps: (1 - alpha) dg/domega = 5 leaves
        # the secant no slope above SECANT_MIN_SLOPE, so it sweeps Picard
        s = ProblemSpec(
            T=1.0,
            omega0=0.0,
            f=lambda t, w: 1.0,
            g=lambda t, w: 10.0 * w + t,
            cfg=OperatorConfig(0.5),
        )
        with pytest.raises(MaxSweepsExceeded) as exc:
            picard_solve(s, Grid(1.0, 16), max_sweeps=10)
        trace = exc.value.trace
        assert trace is not None
        assert not trace.converged
        assert trace.iterations == 2 + 10
        assert len(trace.iterate_diffs) == 12
        assert np.isfinite(trace.omega).all()
        d = trace.iterate_diffs
        assert str(exc.value) == (
            "no convergence at node 1 (tau = 0.0625) in 10 sweeps of the march block "
            f"of nodes 0..16 (last diff {d[-1]:.3e}, last ratio {d[-1] / d[-2]:.3g})"
        )

    def test_one_sweep_has_no_ratio(self):
        with pytest.raises(MaxSweepsExceeded) as exc:
            picard_solve(load_problem(NONLINEAR_TEXT), Grid(2.0, 16), max_sweeps=1)
        d = exc.value.trace.iterate_diffs
        assert str(exc.value) == f"no convergence in 1 sweeps (last diff {d[-1]:.3e})"

    def test_growing_diffs_stop_a_whole_grid_row(self, monkeypatch):
        # the blow-up case, which marches, swept on the whole grid: every
        # diff grows, up to 1e89 at sweep 200
        spec = load_problem(BLOW_UP_TEXT)
        exc = cold(monkeypatch, lambda: picard_solve(spec, Grid(1.0, 1024)))
        assert type(exc) is MaxSweepsExceeded
        diffs = exc.trace.iterate_diffs
        assert len(diffs) == MAX_GROWING_SWEEPS + 1
        assert all(b > a for a, b in zip(diffs, diffs[1:]))
        assert str(exc) == (
            f"no convergence in {MAX_GROWING_SWEEPS + 1} sweeps, "
            f"the diff growing over the last {MAX_GROWING_SWEEPS} "
            f"(last diff {diffs[-1]:.3e}, last ratio {diffs[-1] / diffs[-2]:.3g})"
        )

    def test_blow_up_names_where_it_fails(self):
        # the solution blows up before tau* = 0.57; the march solves the
        # first block and fails in the second, where (1 - alpha) dg/domega
        # nears 1 - SECANT_MIN_SLOPE at tau = 0.29, and names its first node,
        # whose residual the growing sweeps leave above tol
        spec = load_problem(BLOW_UP_TEXT)
        with pytest.raises(MaxSweepsExceeded) as exc:
            picard_solve(spec, Grid(1.0, 4096))
        assert type(exc.value) is MaxSweepsExceeded
        trace = exc.value.trace
        # 2 whole-grid sweeps, 12 in the first block and 31 in the second
        assert trace.iterations == 2 + 12 + MAX_GROWING_SWEEPS + 1
        diffs = trace.iterate_diffs[-MAX_GROWING_SWEEPS - 1 :]
        assert all(b > a for a, b in zip(diffs, diffs[1:]))
        assert str(exc.value) == (
            "no convergence at node 1025 (tau = 0.250244) in 31 sweeps of the march block "
            f"of nodes 1025..2048, the diff growing over the last {MAX_GROWING_SWEEPS} "
            f"(last diff {diffs[-1]:.3e}, last ratio {diffs[-1] / diffs[-2]:.3g})"
        )
        # the first block converged; the nodes after the second were not reached
        assert trace.residuals[:1025].max() <= 1e-10
        assert np.isnan(trace.residuals[2049:]).all()

    def test_slow_start_marches(self, monkeypatch):
        # the long-horizon benchmark corner: alpha = 0.5, lam T^alpha = 3;
        # its diffs grow 3 sweeps in a row before they contract, so it
        # marches, in one block on 256 nodes
        spec = load_problem(CORNER_TEXT)
        grid = Grid(9.0, 256)
        trace = picard_solve(spec, grid)
        assert trace.converged and trace.iterations == 14
        # swept on the whole grid, the growing-diff stop leaves it alone
        cold_trace = cold(monkeypatch, lambda: picard_solve(spec, grid))
        assert cold_trace.converged and cold_trace.iterations == 69
        run = longest = 0
        for a, b in zip(cold_trace.iterate_diffs, cold_trace.iterate_diffs[1:]):
            run = run + 1 if b > a else 0
            longest = max(longest, run)
        assert longest == 3
        assert MAX_GROWING_SWEEPS >= 3 * longest
        assert np.max(np.abs(trace.omega - cold_trace.omega)) <= 1e-9

    def test_non_finite_iterate_stops_the_solve(self):
        @takes_arrays
        def g(t, w):
            with np.errstate(over="ignore", invalid="ignore"):
                return t * np.exp(50.0 * w)

        s = ProblemSpec(T=1.0, omega0=1.0, f=lambda t, w: 1.0, g=g, cfg=OperatorConfig(0.5))
        grid = Grid(1.0, 16)
        with np.errstate(all="ignore"), pytest.raises(NonFiniteIterate) as exc:
            picard_solve(s, grid)
        # a MaxSweepsExceeded, so exit code 2 and its handlers still apply
        assert isinstance(exc.value, MaxSweepsExceeded)
        trace = exc.value.trace
        assert not trace.converged
        # sweep 1 gives about e^50; sweep 2 overflows
        assert trace.iterations == 2
        assert math.isfinite(trace.iterate_diffs[0])
        assert not math.isfinite(trace.iterate_diffs[1])
        first = rhs_operator(s, np.full(grid.N + 1, 1.0), grid)
        assert np.all(np.isfinite(trace.omega))
        assert trace.omega.tobytes() == first.tobytes()
        assert "sweep 2" in str(exc.value)

    def test_overflow_in_the_operator_warns_nothing(self):
        # no errstate here: pytest turns an escaped RuntimeWarning into an
        # error, and the operator's last multiply overflows at sweep 2
        spec = load_problem("alpha=0.5\nT=1\nomega0=1\nf=1e300\ng=tau*omega")
        with pytest.raises(NonFiniteIterate, match="sweep 2"):
            picard_solve(spec, Grid(1.0, 16))

    def test_f_at_the_start_evaluated_once_per_solve(self):
        starts = []

        @takes_arrays
        def f(t, w):
            if np.ndim(t) == 0:
                starts.append((t, w))
            return 1.0 + 0.1 * np.sin(w)

        s = ProblemSpec(
            T=1.0, omega0=0.5, f=f, g=takes_arrays(lambda t, w: t * np.cos(w)),
            cfg=OperatorConfig(0.5),
        )
        trace = picard_solve(s, Grid(1.0, 32))
        assert trace.iterations > 2
        assert starts == [(0.0, 0.5)]

    def test_manufactured_mittag_leffler_runs_once_on_the_nodes(self, monkeypatch):
        # g depends on tau alone, so its mlf3 is memoised on the read-only
        # nodes: one call on them in the whole solve
        arity, fn = BUILTINS["mlf3"]
        sizes = []
        monkeypatch.setitem(
            BUILTINS, "mlf3", (arity, lambda *a: sizes.append(np.size(a[-1])) or fn(*a))
        )
        spec = load_problem(MANUFACTURED_TEXT)
        assert sizes == [1]  # the g(0, omega0) check
        trace = picard_solve(spec, Grid(1.0, 64))
        assert trace.iterations == 2
        assert sizes == [1, 65]
        picard_solve(spec, Grid(1.0, 32))
        assert sizes == [1, 65, 33]

    def test_bad_arguments(self):
        with pytest.raises(ValueError):
            picard_solve(constant_forcing_spec(), Grid(1.0, 8), tol=0.0)
        with pytest.raises(ValueError):
            picard_solve(constant_forcing_spec(), Grid(1.0, 8), max_sweeps=0)
        # no diff is <= nan, so a nan tol would run every sweep
        with pytest.raises(ValueError, match="tol"):
            picard_solve(constant_forcing_spec(), Grid(1.0, 8), tol=math.nan)
        with pytest.raises(ValueError, match="max_sweeps"):
            picard_solve(constant_forcing_spec(), Grid(1.0, 8), max_sweeps=math.nan)

    def test_deterministic(self, manufactured_spec):
        a = picard_solve(manufactured_spec, Grid(1.0, 64)).omega
        b = picard_solve(manufactured_spec, Grid(1.0, 64)).omega
        assert np.array_equal(a, b)


class TestMarch:
    """A row whose first two diffs predict more than MARCH_MIN_SWEEPS
    further sweeps, or grow, marches block by block after its second
    sweep; every other row sweeps the whole grid as before."""

    @pytest.mark.parametrize(
        "make, N, sweeps",
        [
            (lambda: load_problem(MANUFACTURED_TEXT), 4096, 2),  # converges in 2 sweeps
            (lambda: constant_forcing_spec(omega0=1.5), 4096, 1),
            (lambda: load_problem(LONG_HORIZON_TEXT), 4096, 7),
            (lambda: load_problem(LONG_HORIZON_TEXT), 256, 7),
            (lambda: perturbed(load_problem(LEVEL_TEXT), 0.1, 1), 256, 10),
        ],
        ids=["manufactured", "constant", "long-horizon", "long-horizon-256", "level"],
    )
    def test_fast_rows_sweep_the_whole_grid_as_before(
        self, monkeypatch, block_sweeps, make, N, sweeps
    ):
        spec = make()
        grid = Grid(spec.T, N)
        want = cold(monkeypatch, lambda: [picard_solve(spec, grid)])
        block_sweeps()
        got = outcome(lambda: [picard_solve(spec, grid)])
        assert_same_outcome(want, got)
        # every sweep on the whole grid, the last one giving the residuals
        assert got[0].iterations == sweeps
        assert block_sweeps() == [sweeps]

    @pytest.mark.parametrize(
        "text, runs",
        [
            (NONLINEAR_TEXT, [2, 7, 7, 8, 9]),
            (SLOW_ALPHA_TEXT, [2, 6, 8, 8, 9]),
            (FAST_START_TEXT, [2, 5, 8, 8, 9]),
        ],
        ids=["nonlinear", "alpha-0.3", "fast-start"],
    )
    def test_slow_rows_march_to_the_same_fixed_point(
        self, monkeypatch, block_sweeps, text, runs
    ):
        spec = load_problem(text)
        grid = Grid(spec.T, 4096)
        want = cold(monkeypatch, lambda: picard_solve(spec, grid))
        assert want.converged  # in 45, 189 and 38 sweeps
        predicted = solver._predicted_sweeps(want.iterate_diffs[:2], solver.DEFAULT_TOL)
        assert predicted > solver.MARCH_MIN_SWEEPS
        block_sweeps()
        got = picard_solve(spec, grid)
        assert got.converged and got.residual_sup <= 1e-9
        assert np.max(np.abs(got.omega - want.omega)) <= 1e-9
        assert got.iterate_diffs[:2] == want.iterate_diffs[:2]
        # two whole-grid sweeps, then each of the 4 blocks, whose last sweep
        # gives its residuals
        assert block_sweeps() == runs
        assert got.iterations == sum(runs)

    @pytest.mark.parametrize("shifts", [None, [0.1, 0.05, -0.025, -0.0125]], ids=["solo", "stack"])
    @pytest.mark.parametrize(
        "text, marched", [(NONLINEAR_TEXT, True), (LONG_HORIZON_TEXT, False)],
        ids=["marched", "whole-grid"],
    )
    def test_the_residuals_are_the_operators(self, text, marched, shifts):
        # a row stops on the sweep whose residual is at most tol, and
        # returns that iterate with those residuals
        spec = load_problem(text)
        grid = Grid(spec.T, 4096)
        traces = solver.picard_stack(spec, grid, shifts)
        rows = [spec] if shifts is None else [
            perturbed(spec, abs(s), int(math.copysign(1.0, s))) for s in shifts
        ]
        for row, trace in zip(rows, traces, strict=True):
            assert trace.converged and (trace.iterations > 20) == marched
            assert trace.residual_sup <= solver.DEFAULT_TOL
            residuals = np.abs(trace.omega - rhs_operator(row, trace.omega, grid))
            # a march sums the integral block by block, the whole grid as rhs_operator
            assert np.max(np.abs(trace.residuals - residuals)) <= (1e-13 if marched else 0.0)

    @pytest.mark.parametrize("N", [64, 256, 2048, 4096])
    @pytest.mark.parametrize("alpha", [0.3, 0.5, 0.8])
    @pytest.mark.parametrize("omega0", [0.0, 1.0])
    def test_marched_rows_agree_with_whole_grid_sweeps(self, monkeypatch, N, alpha, omega0):
        text = NONLINEAR_TEXT.replace("alpha = 0.6", f"alpha = {alpha}")
        spec = load_problem(text.replace("omega0 = 0.5", f"omega0 = {omega0}"))
        grid = Grid(spec.T, N)
        # alpha = 0.3 sweeps up to 232 times on the whole grid
        want = cold(monkeypatch, lambda: picard_solve(spec, grid, max_sweeps=400))
        got = picard_solve(spec, grid)
        assert want.converged and got.converged
        assert np.max(np.abs(got.omega - want.omega)) <= 1e-9
        assert got.residual_sup <= 1e-10

    def test_a_long_run_that_picard_fails_converges(self, monkeypatch, block_sweeps):
        # alpha = 0.9, T = 10: whole-grid sweeps stall near a diff of 10
        spec = load_problem(LONG_RUN_TEXT)
        grid = Grid(spec.T, 4096)
        want = cold(monkeypatch, lambda: picard_solve(spec, grid))
        assert type(want) is MaxSweepsExceeded and want.trace.iterations == 200
        block_sweeps()
        got = picard_solve(spec, grid)
        assert block_sweeps() == [2, 16, 25, 28, 30]
        residuals = np.abs(got.omega - rhs_operator(spec, got.omega, grid))
        assert got.converged and residuals.max() <= 1e-9

    @pytest.mark.parametrize("N", [2048, 4096])
    def test_the_march_keeps_to_one_root(self, N):
        # past tau = 4.4 the nodewise equation has a second root near -4.0;
        # a block started far from the solution can flip between the two
        # from node to node, with residuals below tol
        spec = load_problem(FLIP_TEXT)
        trace = picard_solve(spec, Grid(spec.T, N))
        assert trace.converged and trace.residual_sup <= solver.DEFAULT_TOL
        assert np.max(np.abs(np.diff(trace.omega))) <= 0.01
        assert trace.omega[-1] == pytest.approx(1.49527, abs=1e-5)

    def test_a_non_finite_step_names_its_node(self):
        # g is NaN past tau = 1.5 once the row marches
        base = load_problem(NONLINEAR_TEXT)

        @takes_arrays
        def g(t, w):
            out = base.g(t, w)
            if np.ndim(w) == 2:
                out = np.where(t > 1.5, np.nan, out)
            return out

        spec = ProblemSpec(T=2.0, omega0=0.5, f=base.f, g=g, cfg=base.cfg)
        with pytest.raises(NonFiniteIterate) as exc:
            picard_solve(spec, Grid(2.0, 4096))
        assert str(exc.value) == (
            "sweep 1 of the march block of nodes 3073..4096 gave a non-finite iterate "
            "at node 3073 (tau = 1.50049) (diff nan)"
        )
        trace = exc.value.trace
        assert np.isfinite(trace.omega).all()
        assert trace.residuals[:3073].max() <= 1e-10

    def test_a_raising_block_sweep_raises(self, block_sweeps):
        base = load_problem(NONLINEAR_TEXT)

        @takes_arrays
        def g(t, w):
            if np.shape(w)[-1] == 1024:
                raise ValueError("on a block")
            return base.g(t, w)

        spec = ProblemSpec(T=2.0, omega0=0.5, f=base.f, g=g, cfg=base.cfg)
        with pytest.raises(ValueError, match="on a block"):
            picard_solve(spec, Grid(spec.T, 4096))
        # the whole grid twice, the first block, and the first sweep of the second
        assert block_sweeps() == [2, 7, 1]

    def test_a_march_builds_its_weights_once(self, weight_builds):
        spec = load_problem(NONLINEAR_TEXT)
        trace = picard_solve(spec, Grid(spec.T, 32768))
        assert trace.converged and trace.residual_sup <= 1e-10
        # the grid's RL weights, the convolution of each block's steps, and
        # the cyclic ones of 16384 and 32768 that bring in the blocks before
        assert weight_builds == [32768, 8192, 16384, 32768]

    @pytest.mark.parametrize("N", [1, 2, 3, 64, 2047, 2048, 3001, 4096, 4099, 65536])
    def test_the_blocks_cover_the_grid_alike(self, N):
        blocks = solver.march_blocks(N)
        assert blocks[0][0] == 0 and blocks[-1][1] == N + 1
        assert all(a[1] == b[0] for a, b in zip(blocks, blocks[1:]))
        # node 0 and the steps after it, then steps after the node before each block
        steps = [blocks[0][1] - 1] + [hi - lo for lo, hi in blocks[1:]]
        assert max(steps) - min(steps) <= 1 and min(steps) >= 1
        count = max(1, min(solver.MARCH_BLOCKS, N // solver.MARCH_BLOCK_STEPS))
        assert len(blocks) == count


class TestExistenceCondition:
    def test_hand_arithmetic_paper_hybrid(self):
        # alpha = 1/2, T = 1, B = 1, omega0 = 1, f(0,1) = 1:
        # bracket = 1 - a + T^a/(1-a) = 0.5 + 2 = 2.5
        # inner = 1 + 2.5 * 1 = 3.5, lhs = 0.1 * 3.5 = 0.35
        s = ProblemSpec(
            T=1.0,
            omega0=1.0,
            f=lambda t, w: 1.0,
            g=lambda t, w: 0.0,
            cfg=OperatorConfig(
                0.5, kernel_convention=KernelConvention.PAPER_HYBRID
            ),
        )
        rep = existence_condition(s, L_f=0.1, h_norm=1.0)
        assert rep.lhs == pytest.approx(0.35, rel=1e-13)
        assert rep.satisfied
        assert rep.M_f == 1.0
        assert rep.R == pytest.approx(0.35 / 0.65, rel=1e-13)
        assert rep.R_alt == pytest.approx(3.5 / 0.65, rel=1e-13)

    def test_hand_arithmetic_gamma(self):
        # bracket = 0.5 + 1/Gamma(0.5)
        s = ProblemSpec(
            T=1.0,
            omega0=1.0,
            f=lambda t, w: 1.0,
            g=lambda t, w: 0.0,
            cfg=OperatorConfig(0.5),
        )
        rep = existence_condition(s, L_f=0.1, h_norm=1.0)
        bracket = 0.5 + 1.0 / math.gamma(0.5)
        assert rep.lhs == pytest.approx(0.1 * (1.0 + bracket), rel=1e-13)

    @pytest.mark.parametrize("kernel", list(KernelConvention))
    @pytest.mark.parametrize("b", list(BConvention))
    def test_bracket_bounds_the_g_terms(self, kernel, b):
        # f == 1, g == 1, omega0 = 0: rhs_operator is exactly the g-terms,
        # largest at T, and rl_integral is exact on constants
        s = ProblemSpec(
            T=2.0,
            omega0=0.0,
            f=lambda t, w: 1.0,
            g=lambda t, w: 1.0,
            cfg=OperatorConfig(0.3, b, kernel),
        )
        g_terms = rhs_operator(s, np.zeros(65), Grid(2.0, 64))
        rep = existence_condition(s, L_f=1.0, h_norm=1.0)
        assert rep.lhs == pytest.approx(np.max(g_terms), rel=1e-13)

    def test_zero_lipschitz_gives_zero_radius(self):
        rep = existence_condition(constant_forcing_spec(omega0=1.0), 0.0, 5.0)
        assert rep.lhs == 0.0
        assert rep.satisfied
        assert rep.R == 0.0

    def test_unsatisfied(self):
        rep = existence_condition(constant_forcing_spec(omega0=1.0), 10.0, 10.0)
        assert not rep.satisfied
        assert rep.R == math.inf

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            existence_condition(constant_forcing_spec(), -1.0, 0.0)


class TestEstimates:
    def test_lipschitz_linear_f(self):
        s = ProblemSpec(
            T=1.0,
            omega0=1.0,
            f=lambda t, w: 1.0 + 2.0 * w,
            g=lambda t, w: 0.0,
            cfg=OperatorConfig(0.5),
        )
        assert estimate_lipschitz_f(sample_box(s, (0.0, 1.0))) == pytest.approx(2.0, rel=1e-12)

    def test_lipschitz_constant_f(self):
        assert estimate_lipschitz_f(sample_box(constant_forcing_spec(), (0.0, 1.0))) == 0.0

    def test_h_norm_bilinear_g(self):
        s = ProblemSpec(
            T=1.0,
            omega0=0.0,
            f=lambda t, w: 1.0,
            g=lambda t, w: t * w,
            cfg=OperatorConfig(0.5),
        )
        assert estimate_h_norm(sample_box(s, (0.0, 2.0))) == pytest.approx(2.0, rel=1e-12)

    @pytest.mark.parametrize(
        "box", [(1.0, 1.0), (1.0, -1.0), (math.nan, 1.0), (0.0, math.inf)], ids=str
    )
    @pytest.mark.parametrize(
        "estimate",
        [check_monotone_quotient, estimate_lipschitz_f, estimate_h_norm,
         estimate_g_onesided_lipschitz],
    )
    def test_box_must_be_finite_and_ordered(self, estimate, box):
        with pytest.raises(ValidationError) as info:
            estimate(sample_box(constant_forcing_spec(), box))
        assert info.value.field == "omega_box"

    def test_lattice_too_small(self):
        with pytest.raises(ValidationError, match="lattice"):
            estimate_lipschitz_f(sample_box(constant_forcing_spec(), (0.0, 1.0), n_tau=1))
        with pytest.raises(ValidationError, match="lattice"):
            estimate_h_norm(sample_box(constant_forcing_spec(), (0.0, 1.0), n_omega=1))


def brute_pair_slope(num, den, absolute):
    """max(0, max over rows and pairs i > j with den[i] != den[j] of the
    slope (or |slope|)), pair by pair."""
    best = 0.0
    for r, row in enumerate(num):
        d = den if den.ndim == 1 else den[r]
        for i in range(len(row)):
            for j in range(i):
                if d[i] != d[j]:
                    slope = (row[i] - row[j]) / (d[i] - d[j])
                    best = max(best, abs(slope) if absolute else slope)
    return best


class TestMaxPairSlope:
    VALUES = st.floats(-10.0, 10.0, allow_subnormal=False)
    GAPS = st.floats(1e-3, 5.0)

    @given(st.data(), st.integers(1, 4), st.integers(2, 7), st.booleans(), st.booleans())
    @settings(max_examples=200, deadline=None)
    def test_matches_a_loop_over_all_pairs(self, data, rows, cols, absolute, shared):
        def draw(values, n):
            return np.array(data.draw(st.lists(
                st.lists(values, min_size=cols, max_size=cols), min_size=n, max_size=n
            )))

        num = draw(self.VALUES, rows)
        # den increases along each row, as the callers' omegas and quotients do
        den = np.cumsum(draw(self.GAPS, 1 if shared else rows), axis=1) - 10.0
        den = den[0] if shared else den
        got, want = max_pair_slope(num, den, absolute), brute_pair_slope(num, den, absolute)
        # the neighbours are among the pairs; a chord over near-collinear
        # points may round a few ulps above them
        assert got <= want
        assert got == pytest.approx(want, rel=1e-14, abs=0.0)

    def test_row_with_a_nan_slope_is_left_out(self):
        num = np.array([[0.0, np.nan, 3.0], [0.0, 1.0, 2.0]])
        assert max_pair_slope(num, np.array([0.0, 1.0, 2.0])) == 1.0

    def test_a_long_row_takes_little_memory(self):
        # all pairs of 3000 omegas took some 200 MB of index and slope tables
        sample = sample_box(load_problem(NONLINEAR_TEXT), (0.0, 1.0), n_tau=2, n_omega=3000)
        tracemalloc.start()
        try:
            estimate_lipschitz_f(sample)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 5e6


class TestMajorant:
    def test_zero_majorant(self):
        m = solve_majorant(lambda t, w: 0.0, OperatorConfig(0.5), Grid(1.0, 32))
        assert np.allclose(m, 0.0, atol=1e-14)

    def test_linear_majorant_stays_zero(self):
        # G(tau, m) = m keeps the zero iterate fixed
        m = solve_majorant(lambda t, w: w, OperatorConfig(0.5), Grid(1.0, 32))
        assert np.allclose(m, 0.0, atol=1e-14)

    def test_inhomogeneous_majorant_positive(self):
        m = solve_majorant(
            lambda t, w: math.sqrt(t), OperatorConfig(0.5), Grid(1.0, 64)
        )
        assert m[0] == 0.0
        assert np.all(m[1:] > 0.0)

    def test_nonvanishing_G_rejected(self):
        with pytest.raises(ValidationError):
            solve_majorant(lambda t, w: 1.0, OperatorConfig(0.5), Grid(1.0, 8))


class TestPerturbed:
    def test_sign_validation(self):
        with pytest.raises(ValueError):
            perturbed(constant_forcing_spec(), 0.1, 0)

    def test_shifts(self):
        s = constant_forcing_spec(omega0=1.0)
        up = perturbed(s, 0.25, +1)
        assert up.omega0 == 1.25
        assert up.g(0.5, 1.0) == 0.25
        down = perturbed(s, 0.25, -1)
        assert down.omega0 == 0.75
        assert down.g(0.5, 1.0) == -0.25

    def test_closed_form_solution(self):
        # for f == 1, g == 0 the eps-shifted solve has an exact linear
        # closed form; the discrete solution matches it to solver tol
        s = constant_forcing_spec(omega0=1.0)
        grid = Grid(1.0, 64)
        for sign in (+1, -1):
            trace = picard_solve(perturbed(s, 0.125, sign), grid)
            exact = perturbed_closed_form(grid, s.cfg, 1.0, 0.125, sign)
            assert np.allclose(trace.omega, exact, atol=1e-9)


class TestScalarOnlyCallables:
    """Callables that take floats only (math.* lambdas) are sampled point
    by point; a problem file's expressions are sampled on whole arrays.
    Both must give the same answers."""

    TEXT = (
        "alpha = 0.6\nT = 2\nomega0 = 1\n"
        "f = 1 + 0.1*sin(omega)\ng = tau*cos(omega) + 0.5*omega*tau\n"
    )

    @pytest.fixture
    def pair(self):
        from_file = load_problem(self.TEXT)
        by_hand = ProblemSpec(
            T=2.0,
            omega0=1.0,
            f=lambda t, w: 1.0 + 0.1 * math.sin(w),
            g=lambda t, w: t * math.cos(w) + 0.5 * w * t,
            cfg=OperatorConfig(0.6),
        )
        return from_file, by_hand

    def test_same_solve_as_problem_file(self, pair):
        grid = Grid(2.0, 256)
        a, b = (picard_solve(s, grid) for s in pair)
        assert a.iterations == b.iterations
        np.testing.assert_allclose(b.omega, a.omega, rtol=1e-14, atol=0.0)

    def test_same_estimates_as_problem_file(self, pair):
        box = (0.0, 3.0)
        a, b = pair
        sample_a, sample_b = sample_box(a, box), sample_box(b, box)
        q_a, q_b = check_monotone_quotient(sample_a), check_monotone_quotient(sample_b)
        assert (q_a.tau_at_min, q_a.omega_at_min) == (q_b.tau_at_min, q_b.omega_at_min)
        assert q_b.min_slope == pytest.approx(q_a.min_slope, rel=1e-14)
        for estimate in (estimate_lipschitz_f, estimate_h_norm):
            assert estimate(sample_b) == pytest.approx(estimate(sample_a), rel=1e-14)
        m_a = existence_condition(a, 0.1, 1.0).M_f
        assert existence_condition(b, 0.1, 1.0).M_f == pytest.approx(m_a, rel=1e-14)

    def test_perturbed_shift_keeps_the_array_path(self, pair):
        from_file, _ = pair
        assert perturbed(from_file, 0.1, +1).g.takes_arrays
        assert not perturbed(constant_forcing_spec(), 0.1, +1).g.takes_arrays
