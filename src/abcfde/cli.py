"""Command-line front end.

Subcommands: solve, check, extremal, compare, mlf, golden, convergence.
Exit codes: 0 success, 1 usage, validation or parse error, 2 iteration cap hit,
3 condition or conclusion not satisfied, 4 ordering violation.

CSV trace files carry a leading ``# manifest=<digest>`` comment (the
digest is a deterministic hash of the command, inputs and parameters;
no timestamps), then the stable header ``tau,omega,residual``.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import __version__
from .errors import (
    AbcfdeError,
    LexError,
    MaxSweepsExceeded,
    NonConvergence,
    ParseError,
    ValidationError,
)
from .expression import Expression, takes_arrays
from .extremal import bracket_maximal, bracket_minimal
from .mittag_leffler import ml_prabhakar
from .operators import Grid, KernelConvention, OperatorConfig
from .solver import (
    LATTICE_NEED,
    ProblemSpec,
    check_monotone_quotient,
    estimate_h_norm,
    estimate_lipschitz_f,
    existence_condition,
    load_problem,
    picard_solve,
    rhs_operator,
    sample_box,
)
from .verifier import Strictness, golden_identity_check, verify_comparison

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_MAX_SWEEPS = 2
EXIT_UNSATISFIED = 3
EXIT_ORDERING = 4


def _fmt(x: float) -> str:
    """17 significant digits: round-trip exact for doubles."""
    return format(float(x), ".17g")


def _manifest_digest(command: str, input_digest: str | None, params: dict) -> str:
    lines = [f"command={command}", f"version={__version__}"]
    if input_digest is not None:
        lines.append(f"input_sha256={input_digest}")
    for key in sorted(params):
        lines.append(f"{key}={params[key]}")
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def _tau_column(taus) -> list[str]:
    """The tau column of a trace CSV, for files that share their nodes."""
    return ["%.17g" % tau for tau in taus.tolist()]  # _fmt's format


def _write_trace_csv(path: Path, digest: str, taus, omegas, residuals) -> None:
    """taus is an array, or its :func:`_tau_column`."""
    columns = omegas.tolist(), residuals.tolist()
    lines = [f"# manifest={digest}", "tau,omega,residual"]
    # _fmt's format, once per row
    if isinstance(taus, np.ndarray):
        lines += ["%.17g,%.17g,%.17g" % row for row in zip(taus.tolist(), *columns)]
    else:
        lines += ["%s,%.17g,%.17g" % row for row in zip(taus, *columns)]
    path.write_text("\n".join(lines) + "\n")


def _write_summary(path: Path, digest: str, fields: dict) -> None:
    lines = [f"manifest={digest}"]
    for key, value in fields.items():
        lines.append(f"{key}={value}")
    path.write_text("\n".join(lines) + "\n")


def _load(path_str: str) -> tuple[ProblemSpec, str]:
    data = Path(path_str).read_bytes()
    return load_problem(data.decode()), hashlib.sha256(data).hexdigest()


def _option_pair(text: str | None, field: str, kind, need: str):
    """The two comma-separated values of an option, or None when unset."""
    if not text:
        return None
    try:
        first, second = (kind(x) for x in text.split(","))
    except ValueError:
        raise ValidationError(field, f"{need}, got {text}") from None
    return first, second


def _default_box(spec: ProblemSpec) -> tuple[float, float]:
    if spec.omega_box is not None:
        return spec.omega_box
    return (spec.omega0 - 1.0, spec.omega0 + 1.0)


# ---------------------------------------------------------------------------
# subcommands


def _cmd_solve(args) -> int:
    spec, in_digest = _load(args.problem)
    grid = Grid(spec.T, args.n)
    digest = _manifest_digest(
        "solve",
        in_digest,
        {"n": args.n, "tol": _fmt(args.tol), "max_sweeps": args.max_sweeps},
    )
    out = Path(args.out)
    summary_path = out.with_suffix(out.suffix + ".summary.txt")
    try:
        trace = picard_solve(spec, grid, tol=args.tol, max_sweeps=args.max_sweeps)
        exit_code = EXIT_OK
    except MaxSweepsExceeded as exc:
        trace = exc.trace
        exit_code = EXIT_MAX_SWEEPS
        print(f"E_MAXSWEEPS: {exc}", file=sys.stderr)

    _write_trace_csv(out, digest, grid.nodes, trace.omega, trace.residuals)

    sample = sample_box(spec, _default_box(spec))
    report = existence_condition(spec, estimate_lipschitz_f(sample), estimate_h_norm(sample))
    _write_summary(
        summary_path,
        digest,
        {
            "converged": trace.converged,
            "iterations": trace.iterations,
            "residual_sup": _fmt(trace.residual_sup),
            "last_diff": _fmt(trace.iterate_diffs[-1]),
            "condition_lhs": _fmt(report.lhs),
            "condition_satisfied": report.satisfied,
            "condition_L_f": _fmt(report.L_f),
            "condition_h_norm": _fmt(report.h_norm),
            "condition_M_f": _fmt(report.M_f),
            "condition_R": _fmt(report.R) if report.satisfied else "inf",
            "kernel_convention": report.convention.value,
        },
    )
    print(f"wrote {out} and {summary_path}")
    return exit_code


def _cmd_check(args) -> int:
    spec, _ = _load(args.problem)
    box = _option_pair(args.omega_box, "omega_box", float, "need LO,HI")
    lattice = _option_pair(args.lattice, "lattice", int, LATTICE_NEED)
    sample = sample_box(spec, box or _default_box(spec), *(lattice or ()))
    quotient = check_monotone_quotient(sample)
    L_f = estimate_lipschitz_f(sample)
    h_norm = estimate_h_norm(sample)

    default_report = None
    for conv in (KernelConvention.GAMMA, KernelConvention.PAPER_HYBRID):
        variant = replace(spec, cfg=replace(spec.cfg, kernel_convention=conv))
        report = existence_condition(variant, L_f, h_norm)
        tag = conv.value
        if conv is spec.cfg.kernel_convention:
            default_report = report
            tag += " (default)"
        print(f"[{tag}]")
        for name in ("L_f", "h_norm", "M_f", "lhs"):
            print(f"  {name}={_fmt(getattr(report, name))}")
        print(f"  satisfied={report.satisfied}")
        if report.satisfied:
            print(f"  R={_fmt(report.R)}")
            print(f"  R_alt={_fmt(report.R_alt)}")
    print(
        f"quotient_min_slope={_fmt(quotient.min_slope)} "
        f"passed={quotient.passed}"
    )
    if not default_report.satisfied:
        print("E_CONDITION: existence condition not satisfied", file=sys.stderr)
        return EXIT_UNSATISFIED
    return EXIT_OK


def _cmd_extremal(args) -> int:
    spec, in_digest = _load(args.problem)
    grid = Grid(spec.T, args.n)
    digest = _manifest_digest(
        "extremal",
        in_digest,
        {
            "n": args.n,
            "eps0": _fmt(args.eps0),
            "ratio": _fmt(args.ratio),
            "levels": args.levels,
            "minimal": args.minimal,
            "tol": _fmt(args.tol),
        },
    )
    bracket_fn = bracket_minimal if args.minimal else bracket_maximal
    result = bracket_fn(
        spec, eps0=args.eps0, ratio=args.ratio, levels=args.levels,
        grid=grid, tol=args.tol,
    )
    prefix = Path(args.out_prefix)
    taus = _tau_column(grid.nodes)
    for level, trace in enumerate(result.traces):
        path = prefix.parent / f"{prefix.name}_level{level}.csv"
        residuals = np.abs(trace.omega - rhs_operator(spec, trace.omega, grid))
        _write_trace_csv(path, digest, taus, trace.omega, residuals)
    _write_summary(
        prefix.parent / f"{prefix.name}_report.txt",
        digest,
        {
            "kind": "minimal" if args.minimal else "maximal",
            "eps_levels": ",".join(_fmt(e) for e in result.eps_levels),
            "sup_gaps": ",".join(_fmt(g) for g in result.sup_gaps),
            "ordering_ok": result.ordering_ok,
            "first_violation_node": result.first_violation_node,
        },
    )
    if not result.ordering_ok:
        print(
            f"E_ORDERING: traces not monotone across levels "
            f"(first violation at node {result.first_violation_node})",
            file=sys.stderr,
        )
        return EXIT_ORDERING
    print(f"wrote {args.levels} level traces with prefix {prefix}")
    return EXIT_OK


def _cmd_compare(args) -> int:
    spec, _ = _load(args.problem)
    v_expr = Expression(args.lower, {"tau"})
    w_expr = Expression(args.upper, {"tau"})
    grid = Grid(spec.T, args.n)
    mode = Strictness.NONSTRICT if args.nonstrict else Strictness.STRICT
    report = verify_comparison(
        spec,
        takes_arrays(lambda t: v_expr(tau=t)),
        takes_arrays(lambda t: w_expr(tau=t)),
        grid,
        mode=mode,
    )
    print(f"mode={report.strictness.value}")
    for name in ("hypothesis_ok", "lower_ineq_ok", "upper_ineq_ok", "conclusion_ok"):
        print(f"{name}={getattr(report, name)}")
    print(f"slack={_fmt(report.slack)}")
    if report.Lg is not None:
        print(f"Lg={_fmt(report.Lg)} Lg_bound={_fmt(report.Lg_bound)}")
    if not report.conclusion_ok:
        print("E_CONDITION: comparison conclusion does not hold", file=sys.stderr)
        return EXIT_UNSATISFIED
    return EXIT_OK


def _cmd_mlf(args) -> int:
    print(_fmt(ml_prabhakar(args.alpha, args.beta, args.rho, args.z)))
    return EXIT_OK


def _cmd_golden(args) -> int:
    cfg = OperatorConfig(args.alpha)
    grids = [Grid(args.T, int(n)) for n in args.grids.split(",")]
    result = golden_identity_check(args.beta, args.sigma, cfg, grids)
    print("N,sup_error,order")
    for i, (grid, err) in enumerate(zip(result.grids, result.errors)):
        order = _fmt(result.orders[i - 1]) if i > 0 else ""
        print(f"{grid.N},{_fmt(err)},{order}")
    return EXIT_OK


def _cmd_convergence(args) -> int:
    spec, _ = _load(args.problem)
    grids = [Grid(spec.T, int(n)) for n in args.grids.split(",")]
    ns = [grid.N for grid in grids]
    if any(n1 % n0 or n1 == n0 for n0, n1 in zip(ns, ns[1:])):
        raise ValidationError("grids", "each N must divide the next and be smaller")
    traces = [picard_solve(spec, grid, tol=args.tol) for grid in grids]
    print("N_coarse,N_fine,sup_diff,order")
    prev = None
    for (n0, t0), (n1, t1) in zip(zip(ns, traces), zip(ns[1:], traces[1:])):
        diff = float(np.max(np.abs(t1.omega[:: n1 // n0] - t0.omega)))
        order = ""
        if prev is not None and diff > 0:
            # each diff measures the error on its coarse grid
            prev_n0, prev_diff = prev
            order = _fmt(np.log2(prev_diff / diff) / np.log2(n0 / prev_n0))
        print(f"{n0},{n1},{_fmt(diff)},{order}")
        prev = n0, diff
    return EXIT_OK


# ---------------------------------------------------------------------------


class _ArgumentParser(argparse.ArgumentParser):
    """Usage errors exit EXIT_INVALID: 2 stands for an iteration cap."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_INVALID, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(
        prog="abcfde",
        description="Hybrid fractional differential equations with the "
        "Atangana-Baleanu-Caputo derivative.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, fn, summary, problem=True):
        p = sub.add_parser(name, help=summary)
        p.set_defaults(fn=fn)
        if problem:
            p.add_argument("problem")
        return p

    p = command("solve", _cmd_solve, "solve a problem file by Picard iteration")
    p.add_argument("--n", type=int, default=256)
    p.add_argument("--tol", type=float, default=1e-10)
    p.add_argument("--max-sweeps", type=int, default=200)
    p.add_argument("--out", default="solution.csv")

    p = command("check", _cmd_check, "evaluate the existence condition")
    p.add_argument("--omega-box", default=None, metavar="LO,HI")
    p.add_argument("--lattice", default=None, metavar="NTAU,NOMEGA")

    p = command("extremal", _cmd_extremal, "bracket the maximal/minimal solution")
    p.add_argument("--eps0", type=float, default=0.1)
    p.add_argument("--ratio", type=float, default=0.5)
    p.add_argument("--levels", type=int, default=8)
    p.add_argument("--minimal", action="store_true")
    p.add_argument("--n", type=int, default=256)
    p.add_argument("--tol", type=float, default=1e-10)
    p.add_argument("--out-prefix", default="extremal")

    p = command("compare", _cmd_compare, "verify lower/upper solution inequalities")
    p.add_argument("--lower", required=True, metavar="EXPR")
    p.add_argument("--upper", required=True, metavar="EXPR")
    p.add_argument("--nonstrict", action="store_true")
    p.add_argument("--n", type=int, default=256)

    p = command("mlf", _cmd_mlf, "evaluate a Mittag-Leffler function", False)
    p.add_argument("z", type=float)
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--beta", type=float, default=1.0)
    p.add_argument("--rho", type=float, default=1.0)

    p = command("golden", _cmd_golden, "closed-form derivative identity error table", False)
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--beta", type=float, required=True)
    p.add_argument("--sigma", type=float, required=True)
    p.add_argument("--grids", default="64,128,256")
    p.add_argument("--T", type=float, default=1.0)

    p = command("convergence", _cmd_convergence, "grid-refinement study of a solve")
    p.add_argument("--grids", default="64,128,256")
    p.add_argument("--tol", type=float, default=1e-10)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser of :func:`main`, built once per process."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.fn(args)
    except (ValidationError, ParseError, LexError, ValueError, FileNotFoundError) as exc:
        print(f"E_INVALID: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except MaxSweepsExceeded as exc:
        print(f"E_MAXSWEEPS: {exc}", file=sys.stderr)
        return EXIT_MAX_SWEEPS
    except NonConvergence as exc:
        print(f"E_NONCONVERGENCE: {exc}", file=sys.stderr)
        return EXIT_MAX_SWEEPS
    except AbcfdeError as exc:
        print(f"E_ERROR: {exc}", file=sys.stderr)
        return EXIT_INVALID


if __name__ == "__main__":
    sys.exit(main())
