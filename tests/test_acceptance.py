"""End-to-end acceptance gate.

Each test prints one [PASS]/[FAIL] line for its criterion before
asserting, so a full run doubles as a checklist.
"""

import math
import time

import numpy as np

from abcfde import (
    Grid,
    OperatorConfig,
    ProblemSpec,
    Strictness,
    ab_integral,
    abc_derivative,
    bracket_maximal,
    estimate_discretization_constant,
    estimate_h_norm,
    estimate_lipschitz_f,
    existence_condition,
    golden_identity_check,
    load_problem,
    ml_one,
    ml_prabhakar,
    ml_two,
    picard_solve,
    sample_box,
    solve_majorant,
    verify_comparison,
)
from abcfde.cli import (
    EXIT_INVALID,
    EXIT_MAX_SWEEPS,
    EXIT_OK,
    EXIT_UNSATISFIED,
    main,
)

from conftest import (
    MANUFACTURED_TEXT,
    constant_forcing_spec,
    manufactured_exact_nodes,
)


def _report(number, label, ok):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {number}: {label}")
    return ok


def test_criterion_1_mittag_leffler_accuracy():
    start = time.perf_counter()
    exp_err = max(
        abs(ml_one(1.0, z) - math.exp(z)) for z in np.linspace(-10.0, 10.0, 21)
    )
    cos_err = max(
        abs(ml_two(2.0, 1.0, -(x**2)) - math.cos(x))
        for x in np.linspace(0.0, 3.0, 31)
    )
    red_err = 0.0
    for a in (0.4, 0.8, 1.2):
        for b in (0.7, 1.0, 1.6):
            for z in (-3.0, -1.0, 0.5, 2.0):
                red_err = max(
                    red_err, abs(ml_prabhakar(a, b, 1.0, z) - ml_two(a, b, z))
                )
        for z in (-3.0, -1.0, 0.5, 2.0):
            red_err = max(red_err, abs(ml_two(a, 1.0, z) - ml_one(a, z)))
    elapsed = time.perf_counter() - start
    ok = exp_err <= 1e-11 and cos_err <= 1e-10 and red_err <= 1e-12 and elapsed < 1.0
    assert _report(
        1,
        f"ML accuracy (exp {exp_err:.2e}, cos {cos_err:.2e}, "
        f"reduction {red_err:.2e}, {elapsed:.2f}s)",
        ok,
    )


def test_criterion_2_golden_identity_convergence():
    start = time.perf_counter()
    cfg = OperatorConfig(0.5)
    grids = [Grid(1.0, N) for N in (64, 128, 256, 512)]
    res = golden_identity_check(1.5, 1.0, cfg, grids)
    elapsed = time.perf_counter() - start
    decreasing = all(e0 > e1 for e0, e1 in zip(res.errors, res.errors[1:]))
    orders_ok = all(o >= 0.9 for o in res.orders)
    ok = decreasing and orders_ok and elapsed < 30.0
    assert _report(
        2,
        f"golden identity orders {[round(o, 3) for o in res.orders]} "
        f"({elapsed:.1f}s)",
        ok,
    )


def test_criterion_3_roundtrip():
    cfg = OperatorConfig(0.5)
    grids = [Grid(1.0, N) for N in (64, 128, 256)]

    def defect(samples_fn):
        out = []
        for grid in grids:
            arr = samples_fn(grid)
            back = ab_integral(abc_derivative(arr, grid, cfg), grid, cfg)
            out.append(float(np.max(np.abs(back - (arr - arr[0])))))
        return out

    const_defects = defect(lambda g: np.full(g.N + 1, 2.0))
    const_ok = all(d <= 1e-12 for d in const_defects)

    results = {}
    for name, fn in [
        ("linear", lambda g: g.nodes),
        ("ml", lambda g: ml_one(0.5, g.nodes**0.5)),
    ]:
        errs = defect(fn)
        orders = [math.log2(e0 / e1) for e0, e1 in zip(errs, errs[1:])]
        results[name] = (errs, orders)
    orders_ok = all(
        all(o >= 0.9 for o in orders) for _, orders in results.values()
    )
    ok = const_ok and orders_ok
    assert _report(
        3,
        "roundtrip orders "
        + ", ".join(
            f"{k}={[round(o, 2) for o in v[1]]}" for k, v in results.items()
        )
        + f", constant sup {max(const_defects):.1e}",
        ok,
    )


def test_criterion_4_manufactured_solve():
    start = time.perf_counter()
    spec = load_problem(MANUFACTURED_TEXT)
    errs = []
    residuals = []
    for N in (64, 128, 256, 512):
        grid = Grid(1.0, N)
        trace = picard_solve(spec, grid)
        errs.append(float(np.max(np.abs(trace.omega - manufactured_exact_nodes(grid)))))
        residuals.append(trace.residual_sup)
    elapsed = time.perf_counter() - start
    monotone = all(e0 > e1 for e0, e1 in zip(errs, errs[1:]))
    res_ok = all(r <= 1e-9 for r in residuals)
    ok = monotone and res_ok and elapsed < 60.0
    assert _report(
        4,
        f"manufactured errors {[f'{e:.2e}' for e in errs]}, "
        f"max residual {max(residuals):.1e} ({elapsed:.1f}s)",
        ok,
    )


def _random_contractive_spec(rng):
    alpha = rng.uniform(0.2, 0.8)
    omega0 = rng.uniform(-0.5, 0.5)
    a = rng.uniform(0.0, 0.3)
    c = rng.uniform(-0.5, 0.5)
    d = rng.uniform(0.0, 0.5)
    return ProblemSpec(
        T=1.0,
        omega0=omega0,
        f=lambda t, w, a=a: 1.0 + a * w,
        g=lambda t, w, c=c, d=d: c * t * (1.0 + d * w),
        cfg=OperatorConfig(alpha),
    )


def test_criterion_5_contraction_consistency():
    rng = np.random.default_rng(2026)
    grid = Grid(1.0, 64)
    checked = 0
    ratios_ok = True
    while checked < 20:
        spec = _random_contractive_spec(rng)
        sample = sample_box(spec, (spec.omega0 - 1.0, spec.omega0 + 1.0))
        report = existence_condition(
            spec, estimate_lipschitz_f(sample), estimate_h_norm(sample)
        )
        if not report.satisfied:
            continue
        checked += 1
        trace = picard_solve(spec, grid, tol=1e-12)
        diffs = [d for d in trace.iterate_diffs[1:] if d > 1e-10]
        for d0, d1 in zip(diffs, diffs[1:]):
            if not d1 / d0 < 1.0:
                ratios_ok = False

    two_sweep_ok = all(
        picard_solve(constant_forcing_spec(omega0=w0, alpha=al), grid).iterations <= 2
        for w0 in (-1.0, 0.0, 2.0)
        for al in (0.3, 0.5, 0.7)
    )
    ok = ratios_ok and two_sweep_ok
    assert _report(
        5,
        f"20 satisfied specs contract (ratios<1: {ratios_ok}), "
        f"closed-form family in <=2 sweeps: {two_sweep_ok}",
        ok,
    )


def test_criterion_6_extremal_ordering():
    spec = load_problem(MANUFACTURED_TEXT)
    grid = Grid(1.0, 64)
    res = bracket_maximal(spec, eps0=0.1, ratio=0.5, levels=4, grid=grid)
    strictly_decreasing = res.ordering_ok

    closed = bracket_maximal(
        constant_forcing_spec(omega0=1.0), eps0=0.1, ratio=0.5, levels=6, grid=grid
    )
    gap_ratios = [g0 / g1 for g0, g1 in zip(closed.sup_gaps, closed.sup_gaps[1:])]
    gaps_ok = all(abs(r - 2.0) / 2.0 < 0.01 for r in gap_ratios)
    ok = strictly_decreasing and gaps_ok
    assert _report(
        6,
        f"manufactured ordering ok: {strictly_decreasing}, closed-form gap "
        f"ratios {[round(r, 3) for r in gap_ratios]}",
        ok,
    )


def test_criterion_7_comparison_theorem():
    grid = Grid(1.0, 64)
    cfg = OperatorConfig(0.5)
    C = estimate_discretization_constant(cfg, grid)
    rng = np.random.default_rng(7)
    eps = 0.5
    violations = 0
    margins_ok = True
    for _ in range(100):
        omega0 = rng.uniform(-1.0, 1.0)
        c1, c2 = rng.uniform(-1.0, 1.0, size=2)
        p1, p2 = rng.uniform(0.5, 2.0, size=2)
        spec = ProblemSpec(
            T=1.0,
            omega0=omega0,
            f=lambda t, w: 1.0,
            g=lambda t, w, c1=c1, c2=c2, p1=p1, p2=p2: c1 * t**p1 + c2 * t**p2,
            cfg=cfg,
        )
        trace = picard_solve(spec, grid)
        nodes = grid.nodes
        omega = trace.omega
        shift = eps * ml_one(0.5, nodes**0.5)
        v_vals = omega - shift
        w_vals = omega + shift

        def v(t, nodes=nodes, vals=v_vals):
            return float(np.interp(t, nodes, vals))

        def w(t, nodes=nodes, vals=w_vals):
            return float(np.interp(t, nodes, vals))

        rep = verify_comparison(
            spec, v, w, grid, mode=Strictness.STRICT, slack_constant=5.0 * C
        )
        if not rep.conclusion_ok:
            violations += 1
        if not np.all(rep.upper_margins[1:] > 0.0):
            margins_ok = False
    ok = violations == 0 and margins_ok
    assert _report(
        7,
        f"{violations}/100 conclusion violations at slack 5*C*h, "
        f"eps-shift upper margins all positive: {margins_ok}",
        ok,
    )


def test_criterion_8_growth_inequality():
    """Growth of D^alpha E_alpha(tau^alpha), checked against true statements.

    The Laplace transform gives the identity
        D^alpha E_alpha(tau^alpha) = B [E_alpha(tau^alpha) - E_alpha(-lam tau^alpha)],
    lam = alpha / (1 - alpha).  The kernel E_alpha(-lam s^alpha) lies in
    (0, 1] and decreases and E_alpha(tau^alpha) increases, so D^alpha lies in
        [B/(1-alpha) E_alpha(-lam tau^alpha) (E_alpha(tau^alpha) - 1),
         B/(1-alpha) (E_alpha(tau^alpha) - 1)].
    The pointwise bound D^alpha >= B/(1-alpha) E_alpha(tau^alpha) fails by
    the O(1) margin B [lam E_alpha(tau^alpha) + E_alpha(-lam tau^alpha)];
    the verdict line reports that deficit.  The samples' tau^(alpha-1)
    slope at 0 makes the operator error O(h^min(2 alpha, 1)), not O(h).
    """
    worst_paper_deficit = -math.inf
    ok = True
    details = []
    for alpha in (0.3, 0.5, 0.7):
        cfg = OperatorConfig(alpha)
        B, lam = cfg.b, cfg.lam
        rate = B / (1.0 - alpha)
        errors = []
        for N in (64, 128, 256, 512):
            grid = Grid(1.0, N)
            s = grid.nodes**alpha
            up = ml_one(alpha, s)
            down = ml_one(alpha, -lam * s)
            num = abc_derivative(up, grid, cfg)
            errors.append(float(np.max(np.abs(num - B * (up - down)))))
            if N != 256:
                continue
            slack = estimate_discretization_constant(cfg, grid) * grid.h
            lower = rate * down * (up - 1.0)
            upper = rate * (up - 1.0)
            bracket_ok = bool(
                np.all((num - lower)[1:] >= -slack)
                and np.all((upper - num)[1:] >= -slack)
            )
            paper_deficit = float(np.max((rate * up - slack - num)[1:]))
        decreasing = all(e0 > e1 for e0, e1 in zip(errors, errors[1:]))
        orders = [math.log2(e0 / e1) for e0, e1 in zip(errors, errors[1:])]
        orders_ok = all(o >= 0.9 * min(2.0 * alpha, 1.0) for o in orders)
        ok = ok and decreasing and orders_ok and bracket_ok
        worst_paper_deficit = max(worst_paper_deficit, paper_deficit)
        details.append(
            f"alpha={alpha}: orders {[round(o, 3) for o in orders]}, "
            f"bracket {'ok' if bracket_ok else 'violated'}"
        )
    assert _report(
        8,
        "identity and growth bracket for D^alpha E_alpha(tau^alpha) ("
        + "; ".join(details)
        + "; stated bound B/(1-alpha) E_alpha misses by up to "
        f"{worst_paper_deficit:.3f})",
        ok,
    )


def test_criterion_9_uniqueness_majorant():
    cfg = OperatorConfig(0.5)
    grid = Grid(1.0, 128)
    m_zero = solve_majorant(lambda t, w: 0.0, cfg, grid)
    zero_ok = float(np.max(np.abs(m_zero))) <= 1e-12

    m_pos = solve_majorant(lambda t, w: math.sqrt(t), cfg, grid)
    positive = bool(np.all(m_pos[1:] > 0.0))
    criterion_failed = float(np.max(np.abs(m_pos))) > 1e-12
    ok = zero_ok and positive and criterion_failed
    assert _report(
        9,
        f"G==0 sup {np.max(np.abs(m_zero)):.1e}; G=sqrt(tau) positive trace "
        f"(sup {np.max(m_pos):.3f}) flags nonuniqueness risk",
        ok,
    )


def test_criterion_10_determinism_and_cli(tmp_path, capsys):
    problem = tmp_path / "p.txt"
    problem.write_text(MANUFACTURED_TEXT)

    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    code_a = main(["solve", str(problem), "--n", "64", "--out", str(a)])
    code_b = main(["solve", str(problem), "--n", "64", "--out", str(b)])
    deterministic = code_a == code_b == EXIT_OK and a.read_bytes() == b.read_bytes()

    bad = tmp_path / "bad.txt"
    bad.write_text("alpha = 2\nT = 1\nomega0 = 0\nf = 1\ng = tau\n")
    invalid_ok = main(["solve", str(bad)]) == EXIT_INVALID

    divergent = tmp_path / "div.txt"
    divergent.write_text("alpha=0.5\nT=1\nomega0=0\nf=1\ng=10*omega+tau\n")
    sweeps_ok = (
        main(
            [
                "solve",
                str(divergent),
                "--n",
                "16",
                "--max-sweeps",
                "5",
                "--out",
                str(tmp_path / "d.csv"),
            ]
        )
        == EXIT_MAX_SWEEPS
    )

    unsat = tmp_path / "unsat.txt"
    unsat.write_text("alpha=0.5\nT=1\nomega0=0\nf=1+omega\ng=tau\n")
    unsat_ok = main(["check", str(unsat)]) == EXIT_UNSATISFIED

    capsys.readouterr()  # drop subcommand chatter before the verdict line
    ok = deterministic and invalid_ok and sweeps_ok and unsat_ok
    assert _report(
        10,
        f"byte-identical reruns: {deterministic}, exit codes "
        f"(invalid {invalid_ok}, max-sweeps {sweeps_ok}, unsatisfied {unsat_ok})",
        ok,
    )
