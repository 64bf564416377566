"""Spans around the calls into each abcfde layer, recorded from outside.

``Tracer.installed`` replaces public functions at the names their callers
look them up by (``abcfde.solver.rl_integral``, the
``abcfde.expression.BUILTINS`` entries, ``ProblemSpec.f_samples``, ...)
with timing wrappers, and puts the originals back on exit, so untraced
tasks run the unmodified program.  Hot leaf layers (expression and
Mittag-Leffler evaluation, called per node) get no span of their own:
their calls and self time are summed into the enclosing span.

A span's self time is its duration minus the time of the wrapped calls
made directly under it.  The leaf wrapper's own bookkeeping runs outside
its timed window, so it would land in the caller's self time; its cost
per call is calibrated once (``leaf_cost``) and taken out of the caller
again.  The span wrappers' cost stays in their callers (a few hundred
calls per task).  Each task runs under a root span whose self time is
the time no named layer accounts for.
"""

from __future__ import annotations

import contextlib
import statistics
import time
from collections import defaultdict

import abcfde.cli
import abcfde.expression
import abcfde.extremal
import abcfde.operators
import abcfde.solver
import abcfde.verifier

ROOT = "root"


def _sweeps(result):
    return {"solver.sweeps": result.iterations}


def _levels(result):
    return {"extremal.levels": len(result.eps_levels)}


# (owner, attribute, layer, result hook): owner is where the caller looks it up
SPAN_POINTS = [
    (abcfde.cli, "_load", "cli", None),
    (abcfde.cli, "_manifest_digest", "cli", None),
    (abcfde.cli, "_write_trace_csv", "cli", None),
    (abcfde.cli, "_write_summary", "cli", None),
    (abcfde.cli, "load_problem", "solver.load", None),
    (abcfde.cli, "picard_solve", "solver.picard", _sweeps),
    (abcfde.extremal, "picard_solve", "solver.picard", _sweeps),
    (abcfde.cli, "rhs_operator", "solver.rhs_operator", None),
    (abcfde.solver, "rhs_operator", "solver.rhs_operator", None),
    (abcfde.solver.ProblemSpec, "f_samples", "solver.sample", None),
    (abcfde.solver.ProblemSpec, "g_samples", "solver.sample", None),
    (abcfde.cli, "estimate_lipschitz_f", "solver.estimate", None),
    (abcfde.cli, "estimate_h_norm", "solver.estimate", None),
    (abcfde.cli, "existence_condition", "solver.estimate", None),
    (abcfde.verifier, "check_monotone_quotient", "solver.estimate", None),
    (abcfde.solver, "rl_integral", "operators.rl_integral", None),
    (abcfde.verifier, "abc_derivative", "operators.abc_derivative", None),
    (abcfde.operators, "ml_kernel_antiderivative", "operators.kernel", None),
    (abcfde.cli, "bracket_maximal", "extremal", _levels),
    (abcfde.cli, "bracket_minimal", "extremal", _levels),
    (abcfde.cli, "verify_comparison", "verifier", None),
    (abcfde.verifier, "estimate_discretization_constant", "verifier.calibration", None),
]

LEAF_POINTS = [
    (abcfde.expression.Expression, "__call__", "expression"),
    (abcfde.operators, "ml_two", "mittag_leffler"),
    (abcfde.verifier, "ml_prabhakar", "mittag_leffler"),
]
ML_BUILTINS = ("mlf1", "mlf2", "mlf3")


class Span:
    __slots__ = ("id", "parent", "task", "layer", "start", "end", "child", "leaf", "counts")

    def __init__(self, id, parent, task, layer, start):
        self.id, self.parent, self.task, self.layer = id, parent, task, layer
        self.start, self.end, self.child = start, None, 0.0
        self.leaf = {}  # leaf layer -> [calls, self seconds]
        self.counts = {}

    @property
    def self_s(self) -> float:
        return self.end - self.start - self.child

    def record(self) -> dict:
        return {
            "id": self.id, "parent": self.parent, "task": self.task, "layer": self.layer,
            "start": self.start, "end": self.end, "self_s": self.self_s,
            "leaf": self.leaf, "counts": self.counts,
        }


class Tracer:
    """Spans of the traced tasks, kept in memory until ``dump``."""

    def __init__(self):
        self.spans: list[Span] = []
        self.stack: list[Span] = []
        # [seconds, leaf calls] of the wrapped calls directly under the innermost open call
        self.acc = [0.0, 0]
        self.saved: list[tuple] = []
        self.leaf_cost = 0.0
        self.leaf_cost = self._calibrate()

    # -- wrappers -----------------------------------------------------------

    def span(self, layer: str, fn, hook=None):
        def wrapper(*args, **kwargs):
            parent = self.stack[-1] if self.stack else None
            span = Span(
                len(self.spans), parent.id if parent else None,
                parent.task if parent else len(self.spans), layer, time.perf_counter(),
            )
            self.spans.append(span)
            self.stack.append(span)
            outer = self.acc
            inner = self.acc = [0.0, 0]
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                span.child = inner[0] + inner[1] * self.leaf_cost
                self.acc = outer
                outer[0] += span.end - span.start
                self.stack.pop()
            if hook is not None:
                for key, value in hook(result).items():
                    span.counts[key] = span.counts.get(key, 0) + value
            return result

        return wrapper

    def leaf(self, layer: str, fn):
        def wrapper(*args, **kwargs):
            outer = self.acc
            inner = self.acc = [0.0, 0]
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                self.acc = outer
                outer[0] += dt
                outer[1] += 1
                stats = self.stack[-1].leaf.setdefault(layer, [0, 0.0])
                stats[0] += 1
                stats[1] += dt - inner[0] - inner[1] * self.leaf_cost

        return wrapper

    def _calibrate(self, calls: int = 20000, rounds: int = 7) -> float:
        """Seconds per call that the leaf wrapper adds outside its timed window.

        Times a loop of wrapped no-op calls under a scratch span, takes away
        the leaf windows and the same loop around nothing, and keeps the
        median over several rounds.
        """
        def noop():
            return None

        wrapped = self.leaf("calibration", noop)
        self.stack.append(Span(-1, None, -1, "calibration", 0.0))
        costs = []
        try:
            for _ in range(rounds):
                t0 = time.perf_counter()
                for _ in range(calls):
                    pass
                t1 = time.perf_counter()
                self.acc = [0.0, 0]
                for _ in range(calls):
                    wrapped()
                t2 = time.perf_counter()
                costs.append((t2 - t1 - self.acc[0] - (t1 - t0)) / calls)
        finally:
            self.stack.pop()
            self.acc = [0.0, 0]
        return max(statistics.median(costs), 0.0)

    # -- install / uninstall -----------------------------------------------

    def _replace(self, owner, name, new):
        self.saved.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, new)

    @contextlib.contextmanager
    def installed(self):
        """The wrappers in place for the duration of the block."""
        try:
            for owner, name, layer, hook in SPAN_POINTS:
                self._replace(owner, name, self.span(layer, owner.__dict__[name], hook))
            for owner, name, layer in LEAF_POINTS:
                self._replace(owner, name, self.leaf(layer, owner.__dict__[name]))
            builtins = abcfde.expression.BUILTINS
            self.saved.append((builtins, None, dict(builtins)))
            for name in ML_BUILTINS:
                arity, fn = builtins[name]
                builtins[name] = (arity, self.leaf("mittag_leffler", fn))
            yield
        finally:
            while self.saved:
                owner, name, original = self.saved.pop()
                if name is None:
                    owner.update(original)
                else:
                    setattr(owner, name, original)

    def run_task(self, fn):
        """Call fn under a root span; returns (result, task id).

        The task id is the root span's id.  Call it with the wrappers
        installed.
        """
        self.stack.clear()  # a task cut by the wall cap may leave spans open
        self.acc = [0.0, 0]
        task = len(self.spans)
        return self.span(ROOT, fn)(), task

    # -- aggregation -------------------------------------------------------

    def task_layers(self, task: int) -> dict[str, float]:
        """Per-layer calls, self seconds and counts of one task, plus the
        root span's duration, its unattributed self time and the leaf
        wrappers' calibrated cost."""
        out: dict[str, float] = defaultdict(float)
        leaf_calls = 0
        for span in self.spans[task:]:
            if span.task != task:
                break
            out[f"{span.layer}.calls"] += 1
            out[f"{span.layer}.self_s"] += span.self_s
            for key, value in span.counts.items():
                out[key] += value
            for layer, (calls, self_s) in span.leaf.items():
                out[f"{layer}.calls"] += calls
                out[f"{layer}.self_s"] += self_s
                leaf_calls += calls
        root = self.spans[task]
        out["root.wall_s"] = root.end - root.start
        out["trace.leaf_overhead_s"] = leaf_calls * self.leaf_cost
        return out

    def dump(self) -> dict:
        return {"leaf_cost_s": self.leaf_cost, "spans": [span.record() for span in self.spans]}
