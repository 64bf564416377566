"""Quick self-check of the benchmark harness at tiny N.

    python3 bench/selfcheck.py

Runs one round of every workload at N = 32, untraced and traced, and
asserts that every metric named in BENCHMARK.json is emitted and that
all outputs pass their checks.  Then it perturbs one node of each solve
output to PERTURB times the solve's own error, and one extremal level,
and asserts that the checks catch both; runs every workload with a wall
cap no task can meet and asserts that each task fails and the run goes
on; checks that each family's error bound holds and is less than PERTURB
times the error at the corners of its range; and cross-checks the oracles
against mpmath and against abcfde itself.  Exits 0 when everything holds.
"""

from __future__ import annotations

import json
import math
import sys

import numpy as np

import run

TINY_N = 32
PERTURB = 5.0  # every error bound is below this many times the error it bounds


def _omega(path, row):
    return float(path.read_text().splitlines()[row + 2].split(",")[1])


def _set_omega(path, row, value):
    lines = path.read_text().splitlines()
    fields = lines[row + 2].split(",")
    fields[1] = format(value, ".17g")
    lines[row + 2] = ",".join(fields)
    path.write_text("\n".join(lines) + "\n")


def corrupt(command, outdir, inst, family):
    """Move one interior node past what its check allows.

    A solve node is moved to PERTURB times the solve's measured error
    away from the oracle, so the check must be that tight to catch it.
    """
    import problems

    row = TINY_N // 2
    if command == "solve":
        path = outdir / "solution.csv"
        exact = problems.oracle(inst)
        err = float(np.max(np.abs(problems.read_csv(path)[:, 1] - exact)))
        _set_omega(path, row, exact[row] + PERTURB * err)
    elif command == "extremal":
        above = _omega(outdir / "extremal_level0.csv", row)
        _set_omega(outdir / "extremal_level1.csv", row, above)


def check_bounds() -> None:
    """err <= bound < PERTURB * err at the corners of every family's range."""
    from abcfde import Grid, load_problem, picard_solve

    import problems

    for name, family in problems.FAMILIES.items():
        for u in (0.0, 0.999):
            for v in (0.0, 0.999):
                inst = family.draw(u, v, "solve", TINY_N)
                omega = picard_solve(load_problem(inst.text()), Grid(inst.T, TINY_N)).omega
                err = float(np.max(np.abs(omega - problems.oracle(inst))))
                bound = family.err_bound(inst)
                assert err <= bound < PERTURB * err, (name, u, v, err, bound)


def check_cap() -> None:
    """A task over the wall cap fails, the run goes on, the wrappers come out."""
    import abcfde.expression
    import problems
    import spans

    points = [(o, n) for o, n, *_ in spans.SPAN_POINTS + spans.LEAF_POINTS]
    before = [o.__dict__[n] for o, n in points]
    builtins = dict(abcfde.expression.BUILTINS)
    for workload in problems.FAMILIES:
        for trace in (False, True):
            res = run.run(workload, seed=0, seconds=0, trace=trace, n=TINY_N,
                          setup_repeats=1, cap=1e-4)
            capped = [p for p in res["problems"] if p.endswith("wall cap")]
            assert res["failed"] == res["attempted"] == len(capped) > 0, res
    assert [o.__dict__[n] for o, n in points] == before
    assert abcfde.expression.BUILTINS == builtins


def check_oracles() -> None:
    import mpmath as mp
    from abcfde import Grid, load_problem, picard_solve

    import problems

    for alpha in (0.5, 0.65):
        tau = np.array([0.1, 0.5, 1.0])
        lam = alpha / (1.0 - alpha)
        want = [
            1 + t**alpha * float(mp.nsum(
                lambda k: (-lam * t**alpha) ** k / mp.gamma(alpha * k + 1 + alpha), [0, mp.inf]))
            for t in tau
        ]
        got = problems.exact_manufactured(alpha, tau)
        assert np.max(np.abs(got - want)) < 1e-13, (alpha, got, want)

    for name in ("nonlinear", "long-horizon"):
        stream = problems.Stream(problems.FAMILIES[name], seed=0, n=TINY_N)
        inst = stream.draw("solve", 0)
        spec = load_problem(inst.text())
        ours = picard_solve(spec, Grid(inst.T, TINY_N)).omega
        ref = problems.reference_solution(inst, refine=1)
        assert np.max(np.abs(ours - ref)) < 1e-9, (name, np.max(np.abs(ours - ref)))


def main() -> int:
    error = run.import_program()
    if error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    names = {
        0: {m["name"] for m in spec["end_to_end"]},
        1: {m["name"] for m in spec["per_layer"]},
    }
    workloads = [w["name"] for w in spec["workloads"]]

    for workload in workloads:
        for trace in (0, 1):
            res = run.run(workload, seed=0, seconds=0, trace=bool(trace), n=TINY_N, setup_repeats=1)
            assert res["correct"], (workload, trace, res["problems"])
            assert set(res["metrics"]) == names[trace], (
                workload, trace, set(res["metrics"]) ^ names[trace])
            for name, metric in res["metrics"].items():
                assert math.isfinite(metric["value"]), (workload, name, metric)
            print(f"ok  {workload} trace={trace}: {len(res['metrics'])} metrics, "
                  f"{res['attempted']} tasks checked")

        res = run.run(workload, seed=0, seconds=0, trace=False, n=TINY_N, setup_repeats=1,
                      corrupt=corrupt)
        caught = sorted(p.split(":")[0] for p in res["problems"])
        assert not res["correct"] and caught == ["extremal", "solve"], res["problems"]
        print(f"ok  {workload}: perturbed nodes caught ({'; '.join(res['problems'])})")

    import problems

    check_cap()
    print("ok  tasks over the wall cap fail and the run goes on")
    check_bounds()
    print(f"ok  error bounds hold and are within {PERTURB:g}x of the errors")
    pair = problems.FAMILIES["nonlinear"].pairs(None)[0]
    assert problems.check_compare(pair, "mode=STRICT hypothesis_ok=True lower_ineq_ok=True "
                                  "upper_ineq_ok=False conclusion_ok=True", 0)
    print("ok  a flipped compare verdict is caught")
    check_oracles()
    print("ok  oracles agree with mpmath and with abcfde")
    return 0


if __name__ == "__main__":
    sys.exit(main())
