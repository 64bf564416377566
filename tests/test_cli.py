import hashlib
import math
import os
import shlex
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import abcfde
from abcfde import (
    Grid,
    SolutionTrace,
    load_problem,
    ml_two,
    picard_solve,
    rhs_operator,
)
from abcfde import cli
from abcfde.cli import (
    EXIT_INVALID,
    EXIT_MAX_SWEEPS,
    EXIT_OK,
    EXIT_ORDERING,
    EXIT_UNSATISFIED,
    main,
)

from conftest import MANUFACTURED_TEXT

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
        # one %-format per row writes what format(x, ".17g") writes
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

    def test_f_undefined_at_zero(self, tmp_path, capsys):
        path = tmp_path / "p.txt"
        path.write_text(LOG_F_TEXT)
        out = tmp_path / "trace.csv"
        code = main(["solve", str(path), "--n", "32", "--out", str(out)])
        assert code == EXIT_OK, capsys.readouterr().err
        summary = (tmp_path / "trace.csv.summary.txt").read_text().splitlines()
        assert "condition_M_f=nan" in summary
        assert "condition_R=inf" in summary


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
        # the lattice once, then f(tau, 0) for M_f under each convention
        assert shapes == [(5, 1), (1001,), (1001,)]


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

    def test_bad_expression(self, tmp_path, capsys):
        path = tmp_path / "p.txt"
        path.write_text(ZERO_FORCING_TEXT)
        code = main(["compare", str(path), "--lower", "1 +", "--upper", "2"])
        assert code == EXIT_INVALID


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
