import hashlib
import math
import os
import shlex
import subprocess
import sys
import time
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import abcfde
from abcfde import (
    Grid,
    SolutionTrace,
    bracket_maximal,
    load_problem,
    ml_two,
    picard_solve,
    rhs_operator,
)
from abcfde import _format17, cli, extremal, solver
from abcfde.cli import (
    EXIT_INVALID,
    EXIT_MAX_SWEEPS,
    EXIT_OK,
    EXIT_ORDERING,
    EXIT_UNSATISFIED,
    main,
)

from conftest import MANUFACTURED_TEXT, OVERFLOW_SHIFT_TEXT

DIVERGENT_TEXT = """\
alpha = 0.5
T = 1
omega0 = 0
f = 1
g = 10 * omega + tau
"""

ZERO_FORCING_TEXT = """\
alpha = 0.5
T = 1
omega0 = 1
f = 1
g = 0
"""

UNSATISFIED_TEXT = """\
alpha = 0.5
T = 1
omega0 = 0
f = 1 + omega
g = tau
"""

NONLINEAR_TEXT = """\
alpha = 0.6
T = 2
omega0 = 0.5
f = 1 + 0.1 * sin(omega)
g = tau * cos(omega) + 0.5 * omega * tau
"""

# f(tau, 0) is undefined, so M_f is; the box keeps omega away from 0
LOG_F_TEXT = """\
alpha = 0.5
T = 1
omega0 = 1
f = 1 + 0.1 * log(omega)
g = tau * (1 - omega)
omega_min = 0.5
omega_max = 1.5
"""


# sweep 1 gives 1e300 * (1 + ...); sweep 2 overflows in the operator
OVERFLOW_TEXT = """\
alpha = 0.5
T = 1
omega0 = 1
f = 1e300
g = tau * omega
"""


@pytest.fixture
def problem_file(tmp_path):
    path = tmp_path / "problem.txt"
    path.write_text(MANUFACTURED_TEXT)
    return path


class TestSolve:
    def test_success(self, problem_file, tmp_path, capsys):
        out = tmp_path / "trace.csv"
        code = main(["solve", str(problem_file), "--n", "256", "--out", str(out)])
        assert code == EXIT_OK
        lines = out.read_text().splitlines()
        assert lines[0].startswith("# manifest=")
        assert lines[1] == "tau,omega,residual"
        assert len(lines) == 2 + 257  # one row per node on a 256-cell grid
        first = lines[2].split(",")
        assert float(first[0]) == 0.0 and float(first[1]) == 1.0
        summary = (tmp_path / "trace.csv.summary.txt").read_text()
        assert "converged=True" in summary
        assert "condition_satisfied=True" in summary

    def test_rows_parse_and_residuals_small(self, problem_file, tmp_path):
        out = tmp_path / "trace.csv"
        main(["solve", str(problem_file), "--n", "64", "--out", str(out)])
        rows = [
            [float(x) for x in line.split(",")]
            for line in out.read_text().splitlines()[2:]
        ]
        arr = np.array(rows)
        assert arr.shape == (65, 3)
        assert np.allclose(arr[:, 0], np.linspace(0.0, 1.0, 65))
        assert np.max(arr[:, 2]) <= 1e-9

    def test_reruns_byte_identical(self, problem_file, tmp_path):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        main(["solve", str(problem_file), "--n", "64", "--out", str(a)])
        main(["solve", str(problem_file), "--n", "64", "--out", str(b)])
        assert a.read_bytes() == b.read_bytes()

    def test_manifest_depends_on_parameters(self, problem_file, tmp_path):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        main(["solve", str(problem_file), "--n", "64", "--out", str(a)])
        main(["solve", str(problem_file), "--n", "128", "--out", str(b)])
        da = a.read_text().splitlines()[0]
        db = b.read_text().splitlines()[0]
        assert da != db

    def test_missing_file(self, tmp_path, capsys):
        code = main(["solve", str(tmp_path / "nope.txt")])
        assert code == EXIT_INVALID
        assert "E_INVALID" in capsys.readouterr().err

    def test_malformed_problem(self, tmp_path, capsys):
        bad = tmp_path / "bad.txt"
        bad.write_text("alpha = 2\nT = 1\nomega0 = 0\nf = 1\ng = tau\n")
        code = main(["solve", str(bad)])
        assert code == EXIT_INVALID
        assert "E_INVALID" in capsys.readouterr().err

    @pytest.mark.parametrize("key", ["T", "omega0"])
    def test_non_finite_number(self, tmp_path, capsys, key):
        entries = {"alpha": "0.5", "T": "1", "omega0": "0", "f": "1", "g": "tau"}
        bad = tmp_path / "bad.txt"
        bad.write_text("".join(f"{k} = {v}\n" for k, v in {**entries, key: "inf"}.items()))
        out = tmp_path / "trace.csv"
        code = main(["solve", str(bad), "--out", str(out)])
        assert code == EXIT_INVALID
        assert capsys.readouterr().err.startswith(f"E_INVALID: {key}: must be finite")
        assert not out.exists()

    def test_nan_tol(self, problem_file, tmp_path, capsys):
        out = tmp_path / "trace.csv"
        code = main(["solve", str(problem_file), "--n", "64", "--tol", "nan", "--out", str(out)])
        assert code == EXIT_INVALID
        assert capsys.readouterr().err.startswith("E_INVALID: tol must be > 0")
        assert not out.exists()

    def test_manifest_hashes_the_bytes_parsed(self, problem_file):
        spec, digest = cli._load(str(problem_file))
        assert digest == hashlib.sha256(problem_file.read_bytes()).hexdigest()
        assert spec.T == 1.0

    def test_csv_digits(self, tmp_path):
        # the writer writes what format(x, ".17g") writes
        values = [0.0, -0.0, 5e-324, -5e-324, 1.8e308, -1.8e308,
                  math.nan, math.inf, -math.inf, 0.1, 1e16, 1e17]
        col = np.array(values)
        path = tmp_path / "t.csv"
        cli._write_trace_csv(path, "d", col, col[::-1], -col)
        rows = zip(values, values[::-1], [-x for x in values])
        expected = ["# manifest=d", "tau,omega,residual"]
        expected += [",".join(format(x, ".17g") for x in row) for row in rows]
        assert path.read_text() == "\n".join(expected) + "\n"

    def test_max_sweeps_exit_code(self, tmp_path, capsys):
        path = tmp_path / "divergent.txt"
        path.write_text(DIVERGENT_TEXT)
        out = tmp_path / "trace.csv"
        code = main(
            ["solve", str(path), "--n", "32", "--max-sweeps", "5", "--out", str(out)]
        )
        assert code == EXIT_MAX_SWEEPS
        assert "E_MAXSWEEPS" in capsys.readouterr().err
        # the best-effort trace is still written
        assert out.exists()
        summary = (tmp_path / "trace.csv.summary.txt").read_text()
        assert "converged=False" in summary

    def test_blow_up_names_where_it_fails(self, tmp_path, capsys):
        # the solution blows up before tau = 0.57; the march fails in its
        # second block, and names the first node there whose residual
        # exceeds tol
        path = tmp_path / "blow_up.txt"
        path.write_text("alpha=0.5\nT=1\nomega0=0.5\nf=1\ng=tau*cos(omega) + 5*omega*tau\n")
        out = tmp_path / "trace.csv"
        code = main(["solve", str(path), "--n", "4096", "--out", str(out)])
        assert code == EXIT_MAX_SWEEPS
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith(
            "E_MAXSWEEPS: no convergence at node 1025 (tau = 0.250244) in 31 sweeps of the "
            "march block of nodes 1025..2048, the diff growing over the last 30 (last diff "
        )
        summary = (tmp_path / "trace.csv.summary.txt").read_text()
        assert "converged=False" in summary and "iterations=44" in summary

    @pytest.mark.parametrize(
        "argv", [["solve", "--out", "t.csv"], ["extremal", "--out-prefix", "lv"]],
        ids=["solve", "extremal"],
    )
    def test_overflowing_iterate_prints_only_the_error(self, tmp_path, argv):
        # in a fresh interpreter, whose default filters print a numpy
        # RuntimeWarning to stderr; the operator's overflow printed one
        path = tmp_path / "p.txt"
        path.write_text(OVERFLOW_TEXT)
        src = str(Path(abcfde.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        result = subprocess.run(
            [sys.executable, "-m", "abcfde.cli", argv[0], str(path), *argv[1:]],
            capture_output=True, text=True, env=env, cwd=tmp_path, timeout=60,
        )
        assert result.returncode == EXIT_MAX_SWEEPS
        assert result.stderr == (
            "E_MAXSWEEPS: sweep 2 gave a non-finite iterate at node 1 (tau = 0.00390625) "
            "(diff inf)\n"
        )

    @pytest.mark.parametrize(
        "text", [MANUFACTURED_TEXT, NONLINEAR_TEXT], ids=["manufactured", "nonlinear"]
    )
    def test_residual_column_is_an_operator_sweep(self, text, tmp_path):
        # the CSV takes the residuals picard_solve computed; they are the
        # bytes a separate sweep of the operator at the last iterate gives
        path = tmp_path / "p.txt"
        path.write_text(text)
        out = tmp_path / "trace.csv"
        assert main(["solve", str(path), "--n", "64", "--out", str(out)]) == EXIT_OK
        spec = load_problem(text)
        grid = Grid(spec.T, 64)
        omega = picard_solve(spec, grid).omega
        residuals = np.abs(omega - rhs_operator(spec, omega, grid))
        rows = [f"{t:.17g},{w:.17g},{r:.17g}" for t, w, r in zip(grid.nodes, omega, residuals)]
        assert out.read_text().splitlines()[2:] == rows

    def test_g_undefined_on_the_march_is_one_error_line(self, tmp_path, capsys):
        # log's argument is negative at the start value: an EvalError, which
        # main reports as the library's error class
        path = tmp_path / "p.txt"
        path.write_text("alpha = 0.5\nT = 1\nomega0 = 1\nf = 1\ng = tau*log(omega - 1.5)\n")
        code = main(["solve", str(path), "--out", str(tmp_path / "trace.csv")])
        assert code == EXIT_INVALID
        captured = capsys.readouterr()
        assert captured.err == "E_ERROR: not a real number: log(-0.5)\n"

    def test_f_undefined_at_zero(self, tmp_path, capsys):
        path = tmp_path / "p.txt"
        path.write_text(LOG_F_TEXT)
        out = tmp_path / "trace.csv"
        code = main(["solve", str(path), "--n", "32", "--out", str(out)])
        assert code == EXIT_OK, capsys.readouterr().err
        summary = (tmp_path / "trace.csv.summary.txt").read_text().splitlines()
        assert "condition_M_f=nan" in summary
        assert "condition_R=inf" in summary


def per_row_csv(path, digest, taus, omegas, residuals):
    """The trace CSV as one %-format per row writes it: the oracle of
    :func:`cli._write_trace_csv`."""
    columns = taus.tolist(), omegas.tolist(), residuals.tolist()
    lines = [f"# manifest={digest}", "tau,omega,residual"]
    lines += ["%.17g,%.17g,%.17g" % row for row in zip(*columns)]
    path.write_text("\n".join(lines) + "\n")


def vector_format(values) -> list[str]:
    """The formatter's text of each value."""
    fields = _format17.csv_fields(np.asarray(values, dtype=np.float64))
    return fields.tobytes().translate(None, b"\0").decode().split(",")[:-1]


def assert_formats_as_17g(values):
    values = np.asarray(values, dtype=np.float64)
    expected = [format(x, ".17g") for x in values.tolist()]
    got = vector_format(values)
    wrong = [(x, g, e) for x, g, e in zip(values.tolist(), got, expected) if g != e]
    assert len(got) == len(expected) and not wrong, wrong[:5]


class TestCsvFormat:
    """The vectorized writer against format(x, ".17g"), byte for byte."""

    def test_random_bit_patterns(self):
        bits = np.random.default_rng(13).integers(0, 2**64, 10**5, np.uint64)
        values = bits.view(np.float64)
        assert np.count_nonzero(~np.isfinite(values)) > 10
        assert_formats_as_17g(values)

    def test_log_uniform_magnitudes(self):
        # across the range converted in numpy and past both of its ends
        rng = np.random.default_rng(7)
        values = 10.0 ** rng.uniform(-105, 105, 10**5) * rng.choice([-1.0, 1.0], 10**5)
        assert_formats_as_17g(values)

    @given(st.lists(st.floats(), min_size=1, max_size=40))
    @settings(max_examples=300, deadline=None)
    def test_any_floats(self, values):
        assert_formats_as_17g(values)

    def test_ties_round_half_even(self):
        # (2k+1) 2^-m with 18 significant digits ends in a 5: a tie at 17
        values = [(2 * k + 1) * 2.0**-m for m in range(1, 90) for k in range(0, 3000, 7)]
        ties = [x for x in values if len(Decimal(x).as_tuple().digits) == 18]
        assert len(ties) > 100
        assert format(2.0**-25, ".17g") == "2.9802322387695312e-08"  # 2.98023223876953125e-08
        assert_formats_as_17g(values)

    def test_powers_of_ten_and_neighbours(self):
        powers = np.array([10.0**k for k in range(-323, 309)])
        values = np.concatenate(
            [powers, np.nextafter(powers, 0), np.nextafter(powers, np.inf), -powers]
        )
        # some powers lie below 10^k and print as 10^k: rounding carries
        # into the exponent
        carried = [k for k, x in zip(range(-323, 309), powers.tolist())
                   if Fraction(x) < Fraction(10) ** k and format(x, ".17g") == f"1e{k:+03d}"]
        assert [k for k in carried if _format17.X_MIN <= k <= _format17.X_MAX]
        assert_formats_as_17g(values)

    @pytest.mark.parametrize(
        "x, text",
        [
            (1e-4, "0.0001"),
            (np.nextafter(1e-4, 0), "9.9999999999999991e-05"),
            (1e-5, "1.0000000000000001e-05"),
            (0.00012345, "0.00012344999999999999"),
            (1e16, "10000000000000000"),
            (1e17, "1e+17"),
            (np.nextafter(1e17, 0), "99999999999999984"),
            (123456789012345678.0, "1.2345678901234568e+17"),
            (1.5, "1.5"),
            (-2.0, "-2"),
            (2.2250738585072009e-308, "2.2250738585072009e-308"),
            (2.2250738585072014e-308, "2.2250738585072014e-308"),
            (1.7976931348623157e308, "1.7976931348623157e+308"),
        ],
    )
    def test_fixed_and_exponent_switches(self, x, text):
        assert format(x, ".17g") == text
        assert vector_format([x]) == [text]

    def test_subnormals_and_zeros(self):
        rng = np.random.default_rng(3)
        subnormals = rng.integers(1, 2**52, 1000, np.uint64).view(np.float64)
        values = np.concatenate([[0.0, -0.0, 5e-324, -5e-324], subnormals, -subnormals])
        assert_formats_as_17g(values)

    def test_zeros_take_the_vector_path(self, monkeypatch):
        # a converged residual column is all zeros; format() would see
        # each one alone
        rng = np.random.default_rng(11)
        mixed = rng.standard_normal(3000) * 10.0 ** rng.integers(-20, 20, 3000)
        mixed[::3] = 0.0
        mixed[1::7] = -0.0
        cases = [[0.0], [-0.0], np.zeros(1025), -np.zeros(1025), np.tile([0.0, -0.0], 700), mixed]
        expected = [[format(x, ".17g") for x in np.asarray(c, dtype=float).tolist()] for c in cases]
        assert expected[1] == ["-0"]
        one_by_one = []

        def recorded(value, spec):
            one_by_one.append(value)
            return format(value, spec)

        monkeypatch.setattr(_format17, "format", recorded, raising=False)
        assert [vector_format(c) for c in cases] == expected
        # no zero goes one by one (-0.0 == 0.0)
        assert one_by_one and 0.0 not in one_by_one

    def test_formatter_loads_on_first_write(self):
        # `import abcfde.cli` (the benchmark's set-up) neither compiles the
        # formatter nor builds its tables
        code = "import sys, abcfde.cli; print('abcfde._format17' in sys.modules)"
        env = {**os.environ, "PYTHONPATH": str(Path(abcfde.__file__).parent.parent)}
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                             text=True, check=True)
        assert out.stdout.strip() == "False"

    @pytest.mark.parametrize("n", [1, 64, 1025])
    def test_solve_file_matches_the_per_row_writer(self, tmp_path, n):
        path = tmp_path / "p.txt"
        path.write_text(MANUFACTURED_TEXT)
        out = tmp_path / "trace.csv"
        assert main(["solve", str(path), "--n", str(n), "--out", str(out)]) == EXIT_OK
        digest = out.read_text().split("\n", 1)[0].removeprefix("# manifest=")
        grid = Grid(1.0, n)
        trace = picard_solve(load_problem(MANUFACTURED_TEXT), grid, tol=1e-10)
        per_row_csv(tmp_path / "oracle.csv", digest, grid.nodes, trace.omega, trace.residuals)
        assert out.read_bytes() == (tmp_path / "oracle.csv").read_bytes()

    @pytest.mark.parametrize("n", [1, 64, 1025])
    def test_extremal_files_match_the_per_row_writer(self, tmp_path, n):
        path = tmp_path / "p.txt"
        path.write_text(MANUFACTURED_TEXT)
        args = ["extremal", str(path), "--n", str(n), "--levels", "3",
                "--out-prefix", str(tmp_path / "ext")]
        assert main(args) == EXIT_OK
        spec = load_problem(MANUFACTURED_TEXT)
        grid = Grid(1.0, n)
        omegas = np.array([t.omega for t in bracket_maximal(spec, grid, levels=3).traces])
        residuals = np.abs(omegas - rhs_operator(spec, omegas, grid))
        for level in range(3):
            got = tmp_path / f"ext_level{level}.csv"
            digest = got.read_text().split("\n", 1)[0].removeprefix("# manifest=")
            oracle = tmp_path / "oracle.csv"
            per_row_csv(oracle, digest, grid.nodes, omegas[level], residuals[level])
            assert got.read_bytes() == oracle.read_bytes()


class TestCheck:
    def test_f_undefined_at_zero(self, tmp_path, capsys):
        path = tmp_path / "p.txt"
        path.write_text(LOG_F_TEXT)
        code = main(["check", str(path)])
        out = capsys.readouterr().out
        assert code == EXIT_OK
        assert "  M_f=nan" in out
        assert "  R=inf" in out

    def test_satisfied(self, problem_file, capsys):
        code = main(["check", str(problem_file)])
        assert code == EXIT_OK
        out = capsys.readouterr().out
        assert "[GAMMA (default)]" in out
        assert "[PAPER_HYBRID]" in out
        assert "quotient_min_slope" in out

    def test_unsatisfied(self, tmp_path, capsys):
        path = tmp_path / "p.txt"
        path.write_text(UNSATISFIED_TEXT)
        code = main(["check", str(path)])
        assert code == EXIT_UNSATISFIED
        assert "E_CONDITION" in capsys.readouterr().err

    def test_explicit_box_and_lattice(self, problem_file):
        code = main(
            ["check", str(problem_file), "--omega-box", "0,2", "--lattice", "5,9"]
        )
        assert code == EXIT_OK

    @pytest.mark.parametrize("box", ["1,1", "1,-1", "nan,1"])
    def test_bad_box(self, problem_file, capsys, box):
        code = main(["check", str(problem_file), "--omega-box", box])
        assert code == EXIT_INVALID
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("E_INVALID: omega_box: ")

    @pytest.mark.parametrize("box", ["1", "0,1,2", "a,1"])
    def test_malformed_box(self, problem_file, capsys, box):
        code = main(["check", str(problem_file), f"--omega-box={box}"])
        assert code == EXIT_INVALID
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"E_INVALID: omega_box: need LO,HI, got {box}\n"

    @pytest.mark.parametrize("lattice", ["0,41", "1,41", "5,1", "-2,5", "5"])
    def test_bad_lattice(self, problem_file, capsys, lattice):
        code = main(["check", str(problem_file), f"--lattice={lattice}"])
        assert code == EXIT_INVALID
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"E_INVALID: lattice: need NTAU,NOMEGA >= 2, got {lattice}\n"

    def test_samples_f_once_on_the_lattice(self, problem_file, capsys, monkeypatch):
        shapes = []
        f_samples = cli.ProblemSpec.f_samples

        def counted(spec, taus, omegas):
            shapes.append(np.shape(taus))
            return f_samples(spec, taus, omegas)

        monkeypatch.setattr(cli.ProblemSpec, "f_samples", counted)
        assert main(["check", str(problem_file), "--lattice", "5,9"]) == EXIT_OK
        # the lattice once, then f(tau, 0) once for M_f, which both
        # kernel conventions share
        assert shapes == [(5, 1), (1001,)]

    @pytest.mark.parametrize("box", ["-1,1", "-2,-1"])
    def test_box_with_a_negative_bound(self, problem_file, capsys, box):
        # argparse would take "-1,1" for an option
        code = main(["check", str(problem_file), "--omega-box", box])
        out = capsys.readouterr()
        assert main(["check", str(problem_file), f"--omega-box={box}"]) == code
        assert capsys.readouterr() == out
        assert code != EXIT_INVALID
        assert "quotient_min_slope" in out.out


class TestExtremal:
    def test_writes_levels_and_report(self, tmp_path, capsys):
        path = tmp_path / "p.txt"
        path.write_text(ZERO_FORCING_TEXT)
        prefix = tmp_path / "ext"
        code = main(
            [
                "extremal",
                str(path),
                "--n",
                "32",
                "--levels",
                "3",
                "--out-prefix",
                str(prefix),
            ]
        )
        assert code == EXIT_OK
        for level in range(3):
            lines = (tmp_path / f"ext_level{level}.csv").read_text().splitlines()
            assert lines[1] == "tau,omega,residual"
            assert len(lines) == 2 + 33
        report = (tmp_path / "ext_report.txt").read_text()
        assert "ordering_ok=True" in report
        assert "kind=maximal" in report

    def test_residual_column_is_against_the_problem_as_given(self, tmp_path):
        # each level solves an eps-shifted problem, but its CSV reports
        # |omega - rhs_operator(omega)| of the unshifted one: O(eps), not
        # the near-zero residual of the level's own solve
        path = tmp_path / "p.txt"
        path.write_text(NONLINEAR_TEXT)
        args = ["extremal", str(path), "--n", "64", "--levels", "3",
                "--out-prefix", str(tmp_path / "ext")]
        assert main(args) == EXIT_OK
        spec = load_problem(NONLINEAR_TEXT)
        grid = Grid(spec.T, 64)
        for level in range(3):
            rows = (tmp_path / f"ext_level{level}.csv").read_text().splitlines()[2:]
            omega = np.array([float(row.split(",")[1]) for row in rows])
            residuals = np.abs(omega - rhs_operator(spec, omega, grid))
            assert [row.rsplit(",", 1)[1] for row in rows] == [f"{r:.17g}" for r in residuals]
            assert residuals.max() > 1e-3

    def test_levels_are_swept_as_one_stack(self, tmp_path, monkeypatch):
        # per level, a solve's sweeps and the CLI's residual sweep:
        # 4 x (sweeps + 1) calls; as one stack, the slowest level's
        # sweeps + 1
        path = tmp_path / "p.txt"
        path.write_text(NONLINEAR_TEXT)
        spec = load_problem(NONLINEAR_TEXT)
        grid = Grid(spec.T, 64)
        slowest = max(t.iterations for t in bracket_maximal(spec, grid, levels=4).traces)
        calls = []
        rhs_operator = solver.rhs_operator

        def counted(spec, omega, grid):
            calls.append(np.shape(omega))
            return rhs_operator(spec, omega, grid)

        monkeypatch.setattr(solver, "rhs_operator", counted)
        monkeypatch.setattr(cli, "rhs_operator", counted)
        args = ["extremal", str(path), "--n", "64", "--levels", "4",
                "--out-prefix", str(tmp_path / "ext")]
        assert main(args) == EXIT_OK
        assert len(calls) <= slowest + 1
        assert calls[-1] == (4, 65)  # the residuals of every level at once

    def test_unresolvable_levels_refused_before_solving(self, tmp_path, capsys, monkeypatch):
        # the last of 64 levels sits 1.1e-20 below the one before, far under
        # --tol; the manufactured problem reported E_ORDERING for it
        def no_solve(*args, **kwargs):
            raise AssertionError("solved")

        monkeypatch.setattr(extremal, "picard_stack", no_solve)
        path = tmp_path / "p.txt"
        path.write_text(MANUFACTURED_TEXT)
        args = ["extremal", str(path), "--n", "4096", "--levels", "64",
                "--out-prefix", str(tmp_path / "ext")]
        assert main(args) == EXIT_INVALID
        err = capsys.readouterr().err
        assert err.startswith("E_INVALID: the step between the last two of 64 eps levels")
        assert err.endswith("; use 30 levels or fewer\n")
        assert err.count("\n") == 1
        assert sorted(tmp_path.iterdir()) == [path]

    @pytest.mark.parametrize("eps0", ["inf", "nan"])
    def test_non_finite_eps0(self, tmp_path, capsys, eps0):
        path = tmp_path / "p.txt"
        path.write_text(ZERO_FORCING_TEXT)
        args = ["extremal", str(path), "--eps0", eps0, "--out-prefix", str(tmp_path / "ext")]
        assert main(args) == EXIT_INVALID
        assert capsys.readouterr().err == f"E_INVALID: eps0 must be finite and > 0, got {eps0}\n"
        assert sorted(tmp_path.iterdir()) == [path]

    def test_a_shift_that_overflows_g_ends_in_max_sweeps(self, tmp_path, capsys):
        # g + 1e308 overflows at the first sweep; no RuntimeWarning escapes
        path = tmp_path / "p.txt"
        path.write_text(OVERFLOW_SHIFT_TEXT)
        args = ["extremal", str(path), "--eps0", "1e308", "--n", "16", "--levels", "3",
                "--out-prefix", str(tmp_path / "ext")]
        assert main(args) == EXIT_MAX_SWEEPS
        err = capsys.readouterr().err
        assert err.startswith("E_MAXSWEEPS: sweep 1 gave a non-finite iterate")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("f", ["omega", "sin(omega)"])
    def test_a_start_that_zeroes_f_is_invalid(self, tmp_path, capsys, f):
        # the minimal bracket's first level starts at 0.1 - 0.1 = 0, where f is 0
        path = tmp_path / "p.txt"
        path.write_text(f"alpha = 0.5\nT = 1\nomega0 = 0.1\nf = {f}\ng = tau\n")
        args = ["extremal", str(path), "--minimal", "--n", "16", "--levels", "3",
                "--out-prefix", str(tmp_path / "ext")]
        assert main(args) == EXIT_INVALID
        err = capsys.readouterr().err
        assert err.startswith("E_INVALID: f: f(0, omega0) = 0 at the start omega0 = 0.0")
        assert err.count("\n") == 1
        assert sorted(tmp_path.iterdir()) == [path]

    def test_minimal_variant(self, tmp_path):
        path = tmp_path / "p.txt"
        path.write_text(ZERO_FORCING_TEXT)
        code = main(
            [
                "extremal",
                str(path),
                "--minimal",
                "--n",
                "16",
                "--levels",
                "2",
                "--out-prefix",
                str(tmp_path / "mn"),
            ]
        )
        assert code == EXIT_OK
        assert "kind=minimal" in (tmp_path / "mn_report.txt").read_text()

    def test_ordering_violation_exit_code(self, tmp_path, capsys, monkeypatch):
        import abcfde.cli as cli
        from abcfde.extremal import BracketResult

        path = tmp_path / "p.txt"
        path.write_text(ZERO_FORCING_TEXT)
        grid = Grid(1.0, 8)

        def fake_bracket(spec, eps0, ratio, levels, grid=grid, tol=1e-10):
            traces = [
                SolutionTrace(grid, np.full(9, 1.0), [0.0], np.zeros(9)),
                SolutionTrace(grid, np.full(9, 2.0), [0.0], np.zeros(9)),
            ]
            return BracketResult(
                eps_levels=[eps0, eps0 * ratio],
                traces=traces,
                ordering_ok=False,
                sup_gaps=[1.0],
                first_violation_node=1,
            )

        monkeypatch.setattr(cli, "bracket_maximal", fake_bracket)
        code = main(
            [
                "extremal",
                str(path),
                "--levels",
                "2",
                "--n",
                "8",
                "--out-prefix",
                str(tmp_path / "bad"),
            ]
        )
        assert code == EXIT_ORDERING
        assert "E_ORDERING" in capsys.readouterr().err
        assert "ordering_ok=False" in (tmp_path / "bad_report.txt").read_text()


class TestCompare:
    def test_strict_pass(self, tmp_path, capsys):
        path = tmp_path / "p.txt"
        path.write_text(ZERO_FORCING_TEXT)
        code = main(
            [
                "compare",
                str(path),
                "--lower",
                "-1 - tau",
                "--upper",
                "3 + tau",
                "--n",
                "64",
            ]
        )
        assert code == EXIT_OK
        assert "conclusion_ok=True" in capsys.readouterr().out

    def test_conclusion_fails(self, tmp_path, capsys):
        path = tmp_path / "p.txt"
        path.write_text(ZERO_FORCING_TEXT)
        code = main(
            ["compare", str(path), "--lower", "3", "--upper", "-1", "--n", "32"]
        )
        assert code == EXIT_UNSATISFIED
        assert "E_CONDITION" in capsys.readouterr().err

    def test_nonstrict_reports_lipschitz(self, tmp_path, capsys):
        path = tmp_path / "p.txt"
        path.write_text(ZERO_FORCING_TEXT)
        code = main(
            [
                "compare",
                str(path),
                "--nonstrict",
                "--lower",
                "0",
                "--upper",
                "2",
                "--n",
                "32",
            ]
        )
        assert code == EXIT_OK
        out = capsys.readouterr().out
        assert "mode=NONSTRICT" in out
        assert "Lg=" in out

    def test_decreasing_quotient_map_is_one_error_line(self, tmp_path, capsys):
        # f = 1 + 5 omega^2 makes omega / f decrease on the lower function's
        # range, where the nonstrict comparison needs it increasing
        path = tmp_path / "p.txt"
        path.write_text("alpha = 0.5\nT = 1\nomega0 = 0\nf = 1 + 5*omega^2\ng = tau\n")
        code = main(
            ["compare", str(path), "--nonstrict", "--lower=-2", "--upper", "2", "--n", "16"]
        )
        assert code == EXIT_INVALID
        assert capsys.readouterr().err == (
            "E_ERROR: quotient map slope -0.1231527093596062 <= 0 at (tau, omega) = (0.0, -0.8)\n"
        )

    def test_bad_expression(self, tmp_path, capsys):
        path = tmp_path / "p.txt"
        path.write_text(ZERO_FORCING_TEXT)
        code = main(["compare", str(path), "--lower", "1 +", "--upper", "2"])
        assert code == EXIT_INVALID

    @pytest.mark.parametrize("n", ["4", "7"])
    def test_grid_too_coarse_for_the_slack(self, tmp_path, capsys, n):
        path = tmp_path / "p.txt"
        path.write_text(ZERO_FORCING_TEXT)
        code = main(["compare", str(path), "--lower", "-1 - tau", "--upper", "3 + tau", "--n", n])
        assert code == EXIT_INVALID
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"E_INVALID: N: the default slack needs N >= 8 for its sub-grids of N/2 and N/4 "
            f"steps, got {n}\n"
        )

    def test_smallest_grid_with_a_slack(self, tmp_path, capsys):
        path = tmp_path / "p.txt"
        path.write_text(ZERO_FORCING_TEXT)
        code = main(["compare", str(path), "--lower", "-1 - tau", "--upper", "3 + tau", "--n", "8"])
        assert code == EXIT_OK
        assert "conclusion_ok=True" in capsys.readouterr().out


class TestMlf:
    def test_one_parameter(self, capsys):
        code = main(["mlf", "1.0", "--alpha", "1"])
        assert code == EXIT_OK
        value = float(capsys.readouterr().out.strip())
        assert value == pytest.approx(math.e, rel=1e-13)

    def test_two_parameter(self, capsys):
        main(["mlf", "-0.5", "--alpha", "0.5", "--beta", "1.5"])
        value = float(capsys.readouterr().out.strip())
        assert value == ml_two(0.5, 1.5, -0.5)

    def test_three_parameter(self, capsys):
        from abcfde import ml_prabhakar

        main(["mlf", "-0.5", "--alpha", "0.5", "--beta", "1.5", "--rho", "2"])
        value = float(capsys.readouterr().out.strip())
        assert value == ml_prabhakar(0.5, 1.5, 2.0, -0.5)

    @pytest.mark.parametrize(
        "argv,stdout",
        [
            (["1.0", "--alpha", "1"], "2.7182818284590424\n"),
            (["-0.5", "--alpha", "0.5", "--beta", "1.5"], "0.76861931161415864\n"),
            (["-0.5", "--alpha", "0.5", "--beta", "1.5", "--rho", "2"], "0.51268882290259177\n"),
            (["-0.5", "--alpha", "0.5", "--rho", "2"], "0.35934593274162985\n"),
            (["0.3", "--alpha", "0.7", "--rho", "0"], "1\n"),
        ],
    )
    def test_printed_values(self, capsys, argv, stdout):
        assert main(["mlf", *argv]) == EXIT_OK
        assert capsys.readouterr().out == stdout

    @pytest.mark.parametrize("extra", [[], ["--rho", "2"]], ids=["two", "three"])
    def test_zero_beta_rejected(self, capsys, extra):
        code = main(["mlf", "0.5", "--alpha", "0.5", "--beta", "0", *extra])
        assert code == EXIT_INVALID
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "beta must be > 0" in captured.err

    @pytest.mark.parametrize(
        "argv",
        [
            ["0.5", "--alpha", "0.5", "--beta", "inf"],
            ["0.5", "--alpha", "0.5", "--beta", "1e300"],
            ["-3", "--alpha", "0.5", "--rho", "inf"],
            ["0.5", "--alpha", "inf"],
        ],
    )
    def test_non_finite_parameters_rejected(self, capsys, argv):
        start = time.perf_counter()
        code = main(["mlf", *argv])
        assert time.perf_counter() - start < 1.0
        assert code == EXIT_INVALID
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("E_INVALID: ")

    def test_out_of_radius(self, capsys):
        code = main(["mlf", "500", "--alpha", "0.5"])
        assert code == EXIT_MAX_SWEEPS
        assert "E_NONCONVERGENCE" in capsys.readouterr().err

    @pytest.mark.parametrize("rho", ["200", "1000"])
    def test_large_rho_raises_quickly(self, capsys, rho):
        # the contour printed -1.1e-35 (for -7.4e-35) at rho = 200, and NaN
        # with two RuntimeWarnings at 1000, both with exit 0
        start = time.perf_counter()
        code = main(["mlf", "-3", "--alpha", "0.5", "--beta", "1.5", "--rho", rho])
        assert time.perf_counter() - start < 0.1
        assert code == EXIT_MAX_SWEEPS
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("E_NONCONVERGENCE: ")
        assert f"(alpha=0.5, beta=1.5, rho={float(rho)})" in captured.err

    def test_tiny_alpha_raises_quickly(self):
        # the contour would add a correction per j < (beta - 1)/alpha - rho
        code = (
            "import time, abcfde.cli\n"
            "start = time.perf_counter()\n"
            "code = abcfde.cli.main(['mlf', '-3', '--alpha', '1e-300', '--beta', '2'])\n"
            "print(code, time.perf_counter() - start)"
        )
        src = str(Path(abcfde.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        result = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, check=True,
            env=env, timeout=60,
        )
        rc, elapsed = result.stdout.split()
        assert int(rc) == EXIT_MAX_SWEEPS
        assert float(elapsed) < 1.0
        assert result.stderr.startswith("E_NONCONVERGENCE: ")
        assert "alpha=1e-300, beta=2.0, rho=1.0" in result.stderr


class TestGolden:
    def test_table(self, capsys):
        code = main(
            [
                "golden",
                "--alpha",
                "0.5",
                "--beta",
                "1.5",
                "--sigma",
                "1",
                "--grids",
                "32,64",
            ]
        )
        assert code == EXIT_OK
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "N,sup_error,order"
        assert lines[1].startswith("32,")
        assert lines[2].startswith("64,")
        e32 = float(lines[1].split(",")[1])
        e64 = float(lines[2].split(",")[1])
        assert e64 < e32

    def test_invalid_beta(self, capsys):
        code = main(
            [
                "golden",
                "--alpha",
                "0.5",
                "--beta",
                "0.5",
                "--sigma",
                "1",
            ]
        )
        # ValueError from the check surfaces as a nonzero exit
        assert code != EXIT_OK

    @pytest.mark.parametrize("grids", ["64,64", "64,32"])
    def test_grids_must_refine(self, capsys, grids):
        argv = ["golden", "--alpha", "0.5", "--beta", "1.5", "--sigma", "1", "--grids", grids]
        assert main(argv) == EXIT_INVALID
        captured = capsys.readouterr()
        assert captured.err.startswith("E_INVALID: grids:")
        assert captured.out == ""


class TestConvergence:
    def test_orders_reported(self, problem_file, capsys):
        code = main(["convergence", str(problem_file), "--grids", "32,64,128"])
        assert code == EXIT_OK
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "N_coarse,N_fine,sup_diff,order"
        assert len(lines) == 3

    def test_order_on_tripling_grids(self, tmp_path, capsys):
        # second order: each tripling of N cuts the difference about 9-fold
        path = tmp_path / "p.txt"
        path.write_text(NONLINEAR_TEXT)
        code = main(["convergence", str(path), "--grids", "64,192,576"])
        assert code == EXIT_OK
        lines = capsys.readouterr().out.splitlines()
        assert [line.split(",")[:2] for line in lines[1:]] == [["64", "192"], ["192", "576"]]
        assert float(lines[2].split(",")[3]) == pytest.approx(2.0, abs=0.05)

    def test_nondividing_grids(self, problem_file, capsys, monkeypatch):
        # rejected before the first solve, so no row is printed
        solved = []
        monkeypatch.setattr(cli, "picard_solve", lambda *args, **kw: solved.append(args))
        for grids in ("32,48", "32,64,100", "64,64", "64,32"):
            code = main(["convergence", str(problem_file), "--grids", grids])
            assert code == EXIT_INVALID
            assert capsys.readouterr().out == ""
        assert solved == []


def test_readme_commands_parse():
    # every command of the README's CLI block is one the parser accepts
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    block = readme.split("## CLI", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    commands = [shlex.split(line) for line in block.splitlines()]
    assert commands
    for argv in commands:
        assert argv[0] == "abcfde"
        cli.build_parser().parse_args(argv[1:])


@pytest.mark.parametrize(
    "argv",
    [
        ["solve", "p.txt", "--n", "abc"],
        ["golden", "--alpha", "0.5", "--beta", "1.5", "--sigma", "1", "--lambda", "-1"],
        [],
    ],
    ids=["bad-int", "unknown-option", "no-command"],
)
def test_usage_errors_exit_invalid(capsys, argv):
    # exit code 2 stands for an iteration cap, not argparse's usage error
    with pytest.raises(SystemExit) as info:
        main(argv)
    assert info.value.code == EXIT_INVALID
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("usage: abcfde")
    assert ": error: " in captured.err


@pytest.mark.parametrize("argv", [["--help"], ["--version"], ["check", "--help"]])
def test_help_and_version_exit_ok(capsys, argv):
    with pytest.raises(SystemExit) as info:
        main(argv)
    assert info.value.code == EXIT_OK
    assert capsys.readouterr().out


@pytest.mark.parametrize(
    "extra,message",
    [
        ("kernal = PAPER_HYBRID", "kernal: line 6: unknown key"),
        ("T = 3", "T: line 6: repeated key"),
    ],
)
def test_problem_file_keys_checked(tmp_path, capsys, extra, message):
    path = tmp_path / "p.txt"
    path.write_text(ZERO_FORCING_TEXT + extra + "\n")
    assert main(["check", str(path)]) == EXIT_INVALID
    assert capsys.readouterr().err == f"E_INVALID: {message}\n"


def test_main_builds_the_parser_once(monkeypatch, capsys):
    built = []
    real = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda: built.append(1) or real())
    cli._parser.cache_clear()
    try:
        assert main(["mlf", "0.5", "--alpha", "0.5"]) == EXIT_OK
        assert main(["mlf", "-0.5", "--alpha", "0.5"]) == EXIT_OK
    finally:
        cli._parser.cache_clear()
    assert built == [1]


def test_runs_without_mpmath():
    # mpmath is a test dependency only: neither the import nor a
    # Mittag-Leffler value far out on the negative axis loads it
    code = (
        "import sys, abcfde.cli\n"
        "abcfde.cli.main(['mlf', '-35', '--alpha', '0.5', '--beta', '2'])\n"
        "print('mpmath' in sys.modules)"
    )
    src = str(Path(abcfde.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    result = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env
    )
    assert result.stdout.split()[-1] == "False"
