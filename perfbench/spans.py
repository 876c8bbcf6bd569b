"""Timing spans around fracsteer's public functions, installed from outside.

Each target is replaced at the module attribute its callers look it up
through (``fracsteer.solver.eval_f`` is what ``solve_mild`` calls), so the
library itself is not edited.  A span records calls, wall time and self time
(wall time minus the wall time of wrapped calls nested inside it), split by
the phase the child is in ("setup" or "run").  With no phase set, a wrapper
calls straight through.

A target that no longer exists is skipped and reported; every metric derived
from it is then left out of the result instead of failing the run, so the
benchmark keeps working after a refactor moves or merges functions.
"""

from __future__ import annotations

import functools
import importlib
import time

# (module, attribute, span name).  Several targets may feed one span name,
# one per module that looks the function up.
TARGETS = [
    ("fracsteer.config", "load_problem", "config.load"),
    ("fracsteer.config", "load_cost", "config.load"),
    ("fracsteer.model", "mittag_leffler", "mittag.ml"),
    ("fracsteer.solver", "mittag_leffler", "mittag.ml"),
    ("fracsteer.solver", "SolutionKernel", "solver.kernel"),
    ("fracsteer.control", "SolutionKernel", "solver.kernel"),
    ("fracsteer.solver", "eval_f", "model.eval_f"),
    ("fracsteer.control", "solve_mild", "solver.solve_mild"),
    ("fracsteer.optimal", "solve_mild", "solver.solve_mild"),
    ("fracsteer.control", "grammian", "control.grammian"),
    ("fracsteer.control", "cho_factor", "control.cho_factor"),
    ("fracsteer.control", "cho_solve", "control.cho_solve"),
    ("fracsteer.control", "synthesize_control", "control.synthesize"),
    ("fracsteer.control", "steer", "control.steer"),
    ("fracsteer.control", "epsilon_sweep", "control.epsilon_sweep"),
    ("fracsteer.optimal", "eval_cost", "optimal.eval_cost"),
    ("fracsteer.optimal", "minimize", "optimal.minimize"),
]

# Spans that are a workload's entry call rather than a layer below it.
ENTRY_SPANS = ("control.epsilon_sweep", "control.steer", "optimal.minimize")


class Recorder:
    def __init__(self):
        self.phase = None
        self.stack = []  # open frames: [name, start, nested wall time]
        self.stats = {}  # (phase, name) -> [calls, wall, self]
        self.counts = {}  # (phase, name) -> int
        self.available = set()
        self.missing = []

    def _enter(self, name):
        frame = [name, time.perf_counter(), 0.0]
        self.stack.append(frame)
        return frame

    def _exit(self, phase, frame):
        name, start, nested = frame
        dur = time.perf_counter() - start
        self.stack.pop()
        if self.stack:
            self.stack[-1][2] += dur
        st = self.stats.setdefault((phase, name), [0, 0.0, 0.0])
        st[0] += 1
        st[2] += dur - nested
        if all(f[0] != name for f in self.stack):  # count recursion once
            st[1] += dur

    def count(self, phase, name, n=1):
        self.counts[(phase, name)] = self.counts.get((phase, name), 0) + n

    def calls(self, phase, name):
        return self.stats.get((phase, name), [0, 0.0, 0.0])[0]

    def wall(self, phase, name):
        return self.stats.get((phase, name), [0, 0.0, 0.0])[1]

    def self_time(self, phase, name):
        return self.stats.get((phase, name), [0, 0.0, 0.0])[2]

    def counted(self, phase, name):
        return self.counts.get((phase, name), 0)

    def _timed(self, name, fn):
        """fn wrapped in a span; per-span bookkeeping lives here."""

        def call(*args, **kwargs):
            phase = self.phase
            if phase is None:
                return fn(*args, **kwargs)
            ml_before = self.calls(phase, "mittag.ml")
            frame = self._enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._exit(phase, frame)
            if name == "solver.kernel" and self.calls(phase, "mittag.ml") > ml_before:
                self.count(phase, "kernel_builds")
            elif name == "solver.solve_mild":
                self.count(phase, "picard_sweeps", len(getattr(result, "residuals", ())))
            return result

        return call

    def install(self):
        """Patch every target that exists; remember the ones that do not."""
        for module_name, attr, name in TARGETS:
            try:
                module = importlib.import_module(module_name)
                orig = getattr(module, attr)
            except (ImportError, AttributeError):
                self.missing.append(f"{module_name}.{attr}")
                continue
            if isinstance(orig, type):
                # a subclass keeps isinstance checks and class attributes
                init = self._timed(name, orig.__init__)
                patched = type(orig.__name__, (orig,), {
                    "__init__": functools.wraps(orig.__init__)(init),
                    "__module__": orig.__module__,
                    "__doc__": orig.__doc__,
                })
            else:
                patched = functools.wraps(orig)(self._timed(name, orig))
            setattr(module, attr, patched)
            self.available.add(name)


def layer_metrics(rec: Recorder, run_s: float) -> dict:
    """Per-layer metrics of one traced operation, as {name: (value, unit)}.

    Setup-phase figures come from the cold set-up before the operation; all
    others from the operation itself.  A metric whose span is missing is
    left out."""
    S, R = "setup", "run"
    have = rec.available.__contains__
    out = {}

    def put(needs, name, value, unit):
        if all(have(n) for n in needs):
            out[name] = (value, unit)

    put(["config.load"], "config.load_s", rec.wall(S, "config.load"), "s")
    put(["solver.kernel"], "mittag.table_s", rec.wall(S, "solver.kernel"), "s")
    ml_calls = rec.calls(S, "mittag.ml") + rec.calls(R, "mittag.ml")
    ml_wall = rec.wall(S, "mittag.ml") + rec.wall(R, "mittag.ml")
    put(["mittag.ml"], "mittag.calls", ml_calls, "count")
    put(["mittag.ml"], "mittag.us_per_call", 1e6 * ml_wall / ml_calls if ml_calls else 0.0, "us")
    put(["mittag.ml", "solver.kernel"], "mittag.kernel_builds_in_run",
        rec.counted(R, "kernel_builds"), "count")

    put(["model.eval_f"], "model.eval_f_calls", rec.calls(R, "model.eval_f"), "count")
    put(["model.eval_f"], "model.eval_f_s", rec.wall(R, "model.eval_f"), "s")

    solves = rec.calls(R, "solver.solve_mild")
    sweeps = rec.counted(R, "picard_sweeps")
    solve_s = rec.wall(R, "solver.solve_mild")
    put(["solver.solve_mild"], "solver.solves", solves, "count")
    put(["solver.solve_mild"], "solver.picard_sweeps", sweeps, "count")
    put(["solver.solve_mild"], "solver.solve_s", solve_s, "s")
    put(["solver.solve_mild"], "solver.self_s", rec.self_time(R, "solver.solve_mild"), "s")
    put(["solver.solve_mild"], "solver.ms_per_sweep", 1e3 * solve_s / sweeps if sweeps else 0.0, "ms")

    put(["control.grammian"], "control.grammian_calls", rec.calls(R, "control.grammian"), "count")
    put(["control.grammian"], "control.grammian_s", rec.wall(R, "control.grammian"), "s")
    put(["control.cho_factor"], "control.cholesky_calls", rec.calls(R, "control.cho_factor"), "count")
    put(["control.cho_factor", "control.cho_solve"], "control.cholesky_s",
        rec.wall(R, "control.cho_factor") + rec.wall(R, "control.cho_solve"), "s")
    put(["control.synthesize"], "control.synthesize_self_s",
        rec.self_time(R, "control.synthesize"), "s")

    put(["optimal.eval_cost"], "optimal.cost_evals", rec.calls(R, "optimal.eval_cost"), "count")
    put(["optimal.eval_cost"], "optimal.eval_cost_s", rec.wall(R, "optimal.eval_cost"), "s")
    put(["optimal.eval_cost"], "optimal.eval_cost_self_s",
        rec.self_time(R, "optimal.eval_cost"), "s")

    # share of the operation spent in layer spans below its entry call
    if any(rec.calls(R, n) for n in ENTRY_SPANS):
        entry_self = sum(rec.self_time(R, n) for n in ENTRY_SPANS)
        out["trace.coverage"] = ((run_s - entry_self) / run_s, "frac")
    return out
