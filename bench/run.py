"""End-to-end and per-layer benchmark of the abcfde CLI.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout: the program is imported from
``src/`` next to this directory, and nothing is installed.  The
workloads (``manufactured``, ``nonlinear``, ``long-horizon``) are
problem families from ``problems.py``.  Each run times a fresh
interpreter importing abcfde and loading a problem file (``setup_s``,
several launches spread over the run) and runs tasks of each command
(solve, extremal --levels 4, compare), each on its own seeded instance,
by calling ``abcfde.cli.main(argv)`` in this process (one process, one
thread), until the next task would end after ``--seconds``.  The commands share
the time by the workload's fixed shares.  Every output is checked;
a task that fails a check, raises, or runs past the wall cap counts as
failed.

The host is shared, and its speed drifts by up to 2x over seconds to
minutes.  So the benchmark times a fixed piece of pure-Python work that
does not touch abcfde (``reference_work``) before and after every timed
piece of work (a task, a set-up launch), and, from the alarm handler,
every ``PROBE_EVERY_S`` during an untraced task.  The wall time, less
the probes' own time, is scaled by ``REF_NOMINAL_S`` over the mean
reference time.  The time metrics are thus wall seconds at the
reference speed, the speed at which ``reference_work`` takes
``REF_NOMINAL_S``.  The raw wall medians are printed beside them.

With ``--trace 0`` the last line of stdout is the JSON result with the
end-to-end metrics.  With ``--trace 1`` every task runs twice, untraced
and traced, on sibling instances; the JSON carries the
per-layer metrics (means per traced task) and the spans are written to
``.bench_run/spans-<workload>-seed<seed>.json``.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_run"

COMMANDS = ("solve", "extremal", "compare")
LEVELS = 4
TASK_CAP_S = 60.0  # wall cap of one task
SETUP_REPEATS = 9
REF_REPEATS = 5  # reference timings on each side of a timed piece of work
PROBE_EVERY_S = 0.2  # reference timings during an untraced task
# A round figure near the median of reference_work(), 4 to 5.5 ms, on the
# 2-vCPU VM the baselines were measured on.  It sets only the scale.
REF_NOMINAL_S = 0.004

SETUP_CODE = (
    "import sys; sys.path.insert(0, sys.argv[1]); import abcfde.cli, abcfde.solver; "
    "abcfde.solver.load_problem(open(sys.argv[2]).read())"
)

# per-layer metrics with their units; reported per command as "<command>.<name>"
LAYER_UNITS = {
    "mittag_leffler.calls": "count",
    "mittag_leffler.self_s": "s",
    "expression.calls": "count",
    "expression.self_s": "s",
    "operators.rl_integral.calls": "count",
    "operators.rl_integral.self_s": "s",
    "operators.kernel.calls": "count",
    "operators.kernel.self_s": "s",
    "operators.abc_derivative.self_s": "s",
    "solver.sweeps": "count",
    "solver.rhs_operator.calls": "count",
    "solver.rhs_operator.self_s": "s",
    "solver.sample.calls": "count",
    "solver.sample.self_s": "s",
    "solver.estimate.self_s": "s",
    "solver.picard.self_s": "s",
    "solver.load.self_s": "s",
    "extremal.levels": "count",
    "extremal.self_s": "s",
    "verifier.self_s": "s",
    "verifier.calibration.self_s": "s",
    "cli.self_s": "s",
    "cli.bytes_written": "bytes",
    "trace.coverage": "fraction",
    "trace.leaf_overhead_s": "s",
    "trace.overhead_frac": "fraction",
}
_EVERY = [
    "mittag_leffler.calls", "mittag_leffler.self_s", "expression.calls", "expression.self_s",
    "operators.kernel.calls", "solver.sample.calls", "solver.sample.self_s",
    "solver.load.self_s", "cli.self_s",
    "trace.coverage", "trace.leaf_overhead_s", "trace.overhead_frac",
]
_PICARD = [
    "operators.rl_integral.calls", "operators.rl_integral.self_s", "solver.sweeps",
    "solver.rhs_operator.calls", "solver.rhs_operator.self_s", "solver.picard.self_s",
    "cli.bytes_written",
]
# The layers each command reaches.  Mittag-Leffler calls in nonlinear solve
# and extremal, and kernel builds in every solve and extremal, are
# reported although they are predicted to be 0.
COMMAND_LAYERS = {
    "solve": _EVERY + _PICARD + ["solver.estimate.self_s"],
    "extremal": _EVERY + _PICARD + ["extremal.levels", "extremal.self_s"],
    "compare": _EVERY + [
        "operators.kernel.self_s", "operators.abc_derivative.self_s", "solver.estimate.self_s",
        "verifier.self_s", "verifier.calibration.self_s",
    ],
}


def reference_work() -> float:
    """Wall seconds of a fixed piece of pure-Python work: float arithmetic,
    math calls, dict stores and a sort, the kind of interpreter work
    abcfde does.  It uses nothing from abcfde, so a change to the program
    cannot move it."""
    t0 = time.perf_counter()
    acc = 0.0
    slots = {}
    for i in range(15000):
        x = i * 1e-4
        acc += math.sin(x) * x + (x * x) / (1.0 + x)
        slots[i & 255] = acc
    values = [float(j) for j in range(5000)]
    values.sort(reverse=True)
    return time.perf_counter() - t0


def reference_time() -> float:
    return statistics.median(reference_work() for _ in range(REF_REPEATS))


def at_reference_speed(wall: float, references: list[float]) -> float:
    """wall scaled to the reference speed, by reference timings around and in it.

    The mean, since the wall time sums the host's slowness over the task:
    on nonlinear solves it leaves a spread of 0.07 per task, where the
    median leaves 0.09 and the raw wall time 0.21."""
    return wall * REF_NOMINAL_S / statistics.fmean(references)


class TaskTimeout(BaseException):
    """Raised by the wall-cap alarm; a BaseException so no handler in the
    program under test can swallow it."""


@dataclass
class Task:
    command: str
    wall: float = 0.0
    scaled: float = 0.0  # wall less the probes, at the reference speed
    problems: list[str] = field(default_factory=list)
    err: float | None = None
    bytes_written: int = 0
    traced: bool = False
    layers: dict = field(default_factory=dict)
    completed: bool = False


class Runner:
    """Runs tasks of one workload in a work directory inside the checkout."""

    def __init__(self, family, stream, workdir: Path, tracer=None, cap: float = TASK_CAP_S):
        from abcfde import cli

        self.cli = cli
        self.family = family
        self.stream = stream
        self.workdir = workdir
        self.outdir = workdir / "out"
        self.tracer = tracer
        self.cap = cap
        self.armed = False  # the alarm acts only while a task runs
        self.probing = False
        self.started = 0.0
        self.probes: list[float] = []  # reference timings during the task
        self.probe_spent = 0.0  # wall seconds the probes took from the task
        self.corrupt = None  # hook for the self-check: edits outputs before checking

    def alarm(self, signum, frame):
        if not self.armed:
            return
        entered = time.perf_counter()
        if entered - self.started >= self.cap:
            raise TaskTimeout()
        if self.probing:
            self.probes.append(reference_work())
            self.probe_spent += time.perf_counter() - entered

    def problem_file(self, command: str, k: int, twin: int):
        inst = self.stream.draw(command, k, twin)
        path = self.workdir / f"{command}-{k}-{twin}.txt"
        path.write_text(inst.text())
        return inst, path

    def argv(self, command, inst, path, k):
        out = self.outdir
        n = str(inst.n)
        if command == "solve":
            return ["solve", str(path), "--n", n, "--out", str(out / "solution.csv")], None
        if command == "extremal":
            return ["extremal", str(path), "--n", n, "--levels", str(LEVELS),
                    "--out-prefix", str(out / "extremal")], None
        pair = self.family.pairs(inst)[k % 2]
        argv = ["compare", str(path), "--n", n, "--lower", pair.lower, "--upper", pair.upper]
        if pair.mode == "NONSTRICT":
            argv.append("--nonstrict")
        return argv, pair

    def run(self, command: str, k: int, twin: int = 0, traced: bool = False) -> Task:
        from problems import check_compare, check_extremal, check_solve

        task = Task(command, traced=traced)
        inst, path = self.problem_file(command, k, twin)
        self.outdir.mkdir(exist_ok=True)
        argv, pair = self.argv(command, inst, path, k)
        stdout = io.StringIO()

        def call():
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
                return self.cli.main(argv)

        task_id = None
        before = reference_time()
        self.probes, self.probe_spent = [], 0.0
        # Probes in a traced task would land in the self time of its spans.
        self.probing = not traced
        # The wrappers go in and out outside the capped window, so that the
        # alarm cannot leave them half installed.
        with self.tracer.installed() if traced else contextlib.nullcontext():
            self.armed = True
            self.started = time.perf_counter()
            signal.setitimer(signal.ITIMER_REAL, min(self.cap, PROBE_EVERY_S), PROBE_EVERY_S)
            try:
                if traced:
                    rc, task_id = self.tracer.run_task(call)
                else:
                    rc = call()
                task.wall = time.perf_counter() - self.started - self.probe_spent
                task.completed = True
            except TaskTimeout:
                task.problems.append(f"over the {self.cap:g} s wall cap")
            except Exception as exc:  # the task fails; the run goes on
                task.problems.append(f"raised {exc!r}")
            finally:
                self.armed = False
                signal.setitimer(signal.ITIMER_REAL, 0.0)

        if task.completed:
            references = [before, *self.probes, reference_time()]
            task.scaled = at_reference_speed(task.wall, references)
            task.bytes_written = sum(p.stat().st_size for p in self.outdir.iterdir())
            if self.corrupt is not None:
                self.corrupt(command, self.outdir, inst, self.family)
            try:
                if command == "solve":
                    task.problems, task.err = check_solve(
                        inst, self.family, self.outdir / "solution.csv", rc)
                elif command == "extremal":
                    task.problems = check_extremal(inst, self.outdir / "extremal", LEVELS, rc)
                else:
                    task.problems = check_compare(pair, stdout.getvalue(), rc)
            except (OSError, ValueError) as exc:
                task.problems.append(f"unreadable output: {exc!r}")
            if traced:
                task.layers = dict(self.tracer.task_layers(task_id))
        shutil.rmtree(self.outdir)
        path.unlink()
        return task


def measure_setup(problem: Path) -> tuple[float, float]:
    """Wall seconds, raw and at the reference speed, of a fresh interpreter
    importing abcfde and loading problem."""
    def launch():
        t0 = time.perf_counter()
        subprocess.run(
            [sys.executable, "-c", SETUP_CODE, str(SRC), str(problem)],
            check=True, cwd=ROOT, capture_output=True, timeout=60,
        )
        return time.perf_counter() - t0

    before = reference_time()
    wall = launch()
    return wall, at_reference_speed(wall, [before, reference_time()])


def _median(values, missing):
    """Median, or ``missing`` (a worst-case stand-in) when no task completed."""
    return statistics.median(values) if values else missing


def run(workload: str, seed: int, seconds: float, trace: bool, n: int | None = None,
        setup_repeats: int = SETUP_REPEATS, corrupt=None, cap: float = TASK_CAP_S) -> dict:
    """One benchmark run; returns the result object (plus a "samples" map)."""
    from problems import FAMILIES, Stream
    from spans import Tracer

    family = FAMILIES[workload]
    stream = Stream(family, seed, n)
    workdir = WORK / f"{workload}-seed{seed}-pid{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    tracer = Tracer() if trace else None
    runner = Runner(family, stream, workdir, tracer, cap)
    runner.corrupt = corrupt
    previous = signal.signal(signal.SIGALRM, runner.alarm)
    tasks: list[Task] = []
    try:
        first = workdir / "setup.txt"  # a sibling of the first task's file
        first.write_text(stream.draw(COMMANDS[0], 0, twin=-1).text())
        # Set-up launches are spread over the run, like the tasks, so that
        # their median sees the same machine as the task medians.
        setup = [measure_setup(first)]
        setup_every = seconds / setup_repeats
        # Each pick goes to the command furthest below its share of the time
        # spent so far, so every command's median rests on several tasks and
        # every command's tasks are spread over the whole run.
        spent = dict.fromkeys(COMMANDS, 0.0)
        last = dict.fromkeys(COMMANDS, 0.0)
        count = dict.fromkeys(COMMANDS, 0)
        begin = time.perf_counter()
        deadline = begin + seconds
        while True:
            start = time.perf_counter()
            if start - begin >= len(setup) * setup_every and len(setup) < setup_repeats:
                setup.append(measure_setup(first))
                continue
            command = min(COMMANDS, key=lambda c: spent[c] / family.shares[c])
            if start + last[command] > deadline and count[command]:
                break
            k = count[command]
            tasks.append(runner.run(command, k))
            if trace:
                tasks.append(runner.run(command, k, twin=1, traced=True))
            count[command] += 1
            last[command] = time.perf_counter() - start
            spent[command] += last[command]
        while len(setup) < setup_repeats:
            setup.append(measure_setup(first))
    finally:
        signal.signal(signal.SIGALRM, previous)
        shutil.rmtree(workdir, ignore_errors=True)

    failed = [t for t in tasks if t.problems]
    untraced = [t for t in tasks if t.completed and not t.traced]
    samples = {"setup_s": len(setup)}
    raw = {"setup_s": statistics.median(wall for wall, _ in setup)}
    if trace:
        metrics = layer_metrics(tasks)
        path = WORK / f"spans-{workload}-seed{seed}.json"
        path.write_text(json.dumps(tracer.dump()))
    else:
        metrics = {"setup_s": {"value": statistics.median(s for _, s in setup), "unit": "s"}}
        for command in COMMANDS:
            done = [t for t in untraced if t.command == command]
            metrics[f"{command}_s"] = {"value": _median([t.scaled for t in done], cap), "unit": "s"}
            samples[f"{command}_s"] = len(done)
            raw[f"{command}_s"] = _median([t.wall for t in done], cap)
        errs = [t.err for t in untraced if t.err is not None and math.isfinite(t.err)]
        metrics["solve_err"] = {"value": _median(errs, 1.0), "unit": "abs"}
        samples["solve_err"] = len(errs)
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        metrics["peak_rss_mb"] = {"value": rss_kb / 1024.0, "unit": "MB"}
    return {
        "correct": not failed,
        "attempted": len(tasks),
        "failed": len(failed),
        "metrics": metrics,
        "samples": samples,
        "raw": raw,
        "problems": [f"{t.command}: {p}" for t in failed for p in t.problems],
    }


def layer_metrics(tasks: list[Task]) -> dict:
    """Means per traced task of each command's layers, plus coverage and overhead.

    Coverage is the share of a task's traced wall time that falls in a
    named layer, that is 1 minus the root span's self time over its
    duration.
    """
    out = {}
    for command, names in COMMAND_LAYERS.items():
        traced = [t for t in tasks if t.command == command and t.traced and t.completed]
        plain = [t for t in tasks if t.command == command and not t.traced and t.completed]
        sums = dict.fromkeys(names, 0.0)
        for t in traced:
            for name in names:
                sums[name] += t.layers.get(name, 0.0)
            sums["trace.coverage"] += 1.0 - t.layers["root.self_s"] / t.layers["root.wall_s"]
            if "cli.bytes_written" in sums:
                sums["cli.bytes_written"] += t.bytes_written
        count = max(len(traced), 1)
        for name in names:
            out[f"{command}.{name}"] = {"value": sums[name] / count, "unit": LAYER_UNITS[name]}
        plain_wall = sum(t.scaled for t in plain)
        overhead = sum(t.scaled for t in traced) / plain_wall - 1.0 if plain_wall else 0.0
        out[f"{command}.trace.overhead_frac"]["value"] = overhead
    return out


def import_program() -> str | None:
    """Import abcfde from this checkout's src/; returns an error or None."""
    init = SRC / "abcfde" / "__init__.py"
    if not init.is_file():
        return f"no abcfde sources at {init}"
    sys.path.insert(0, str(SRC))
    import abcfde

    if Path(abcfde.__file__).resolve() != init.resolve():
        return f"imported abcfde from {abcfde.__file__}, not {init}"
    return None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    error = import_program()
    if error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    from problems import FAMILIES

    if args.workload not in FAMILIES:
        print(f"error: unknown workload {args.workload!r}; one of {sorted(FAMILIES)}",
              file=sys.stderr)
        return 2

    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    samples = result.pop("samples")
    raw = result.pop("raw")
    for problem in result.pop("problems"):
        print(f"FAILED {problem}")
    for name, metric in result["metrics"].items():
        count = f"  (n={samples[name]})" if name in samples else ""
        if name in raw and not args.trace:
            count += f"  raw wall median {raw[name]:.6g} s"
        print(f"{name:44s} {metric['value']:.6g} {metric['unit']}{count}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
