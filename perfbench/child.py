"""One benchmark child process: set up a workload, run its operation, check
the result, and print one JSON line with what it measured.

    python3 perfbench/child.py --mode {run,trace} --workload W --seed N \
        --seconds S

Both modes first run one warm-up set-up, because the first one in a process
is slower (first calls into numpy and scipy); run mode reports its time
apart.

  run    time cold set-ups (config load, ProblemSpec, Grid, kernel table),
         each on freshly imported library modules so no cache survives from
         the one before; then repeat the operation, tracing off, until the
         next repeat would pass S seconds (at least once), checking every
         result;
  trace  install the spans of spans.py on freshly imported library modules,
         then set up and run the operation once under them, and report the
         per-layer figures.

The library is imported from src/ of the checkout this file sits in; without
it the child exits with code 2.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import os
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path
from types import SimpleNamespace

import numpy as np

import speed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
INPUTS = HERE / "inputs"
# Sweep outputs of earlier runs, keyed by the source tree, so every run of
# one commit is compared bit for bit with the first.
DIGESTS = ROOT / ".bench_build" / "perfbench"

FLAGSHIP_TARGET = [0.3, -0.2, 0.1, 0.05]
STEER_EPS = 1e-2
SWEEP_EPS = [1e-1, 1e-2, 1e-3]
OPT_INTERVALS = 8
OPT_BOUND = 10.0
# Cold set-ups per run: at least 3, more while they fit in this many seconds.
SETUP_MIN, SETUP_MAX, SETUP_BUDGET_S = 3, 25, 5.0

WORKLOADS = {
    "steer_flagship_400": SimpleNamespace(kind="steer", dt=1.0 / 400.0, golden="400"),
    "sweep_flagship_200": SimpleNamespace(kind="sweep", dt=1.0 / 200.0, golden="200"),
    "optimize_lq_1d": SimpleNamespace(kind="optimize", dt=0.01, golden=None),
}


def import_library():
    src = ROOT / "src"
    if not (src / "fracsteer" / "__init__.py").is_file():
        print(f"fracsteer sources not found under {src}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(src))
    importlib.import_module("fracsteer.config")


def fresh_library():
    """Re-import every loaded fracsteer module, so the next set-up starts
    with empty module-level caches (the kernel-table cache among them)."""
    names = [m for m in sys.modules if m == "fracsteer" or m.startswith("fracsteer.")]
    for name in names:
        del sys.modules[name]
    for name in names:
        importlib.import_module(name)


def make_inputs(w, seed: int) -> dict:
    """Seed 0 gives the canonical inputs; other seeds perturb the flagship
    target by up to 10% per coefficient, or move the optimizer's start by up
    to 0.01 per parameter.  Both leave the work per run nearly unchanged:
    seeds 0 to 6 all take 11 outer iterations and 204 Picard sweeps per
    flagship steer at dt = 1/200, and 1781 to 1815 cost evaluations per
    minimize (1798 at seed 0)."""
    rng = np.random.default_rng(seed % 2**64)
    if w.kind == "optimize":
        theta0 = rng.uniform(-0.01, 0.01, (OPT_INTERVALS, 1)) if seed else None
        return {"theta0": theta0}
    target = np.zeros(16)
    target[:4] = FLAGSHIP_TARGET
    if seed:
        target[:4] *= 1.0 + 0.1 * rng.uniform(-1.0, 1.0, 4)
    return {"target": target}


def setup(w):
    """Cold set-up through the public API."""
    from fracsteer import config, optimal, solver

    if w.kind == "optimize":
        spec = config.load_problem(INPUTS / "linear1d.json")
        cost = config.load_cost(INPUTS / "cost_quadratic.json")
    else:
        spec = config.load_problem(INPUTS / "flagship.json")
        cost = None
    grid = solver.Grid(spec, w.dt)
    solver.SolutionKernel(spec, grid)
    param = optimal.ControlParameterization.boxed(OPT_INTERVALS, spec.n_modes, OPT_BOUND)
    return SimpleNamespace(spec=spec, grid=grid, cost=cost, param=param)


def operate(w, ctx, inputs):
    from fracsteer import control, optimal

    if w.kind == "steer":
        return control.steer(ctx.spec, ctx.grid, inputs["target"], STEER_EPS, tol=1e-8)
    if w.kind == "sweep":
        return control.epsilon_sweep(ctx.spec, ctx.grid, inputs["target"], SWEEP_EPS, tol=1e-8)
    return optimal.minimize(
        ctx.spec, ctx.grid, ctx.cost, ctx.param,
        opts=optimal.MinimizeOptions(), theta0=inputs["theta0"],
    )


def _rel(a: float, b: float) -> float:
    return abs(a - b) / abs(b)


def _golden_report(w, report, fails):
    golden = json.loads((INPUTS / "golden.json").read_text())["steer_eps_1e-2"][w.golden]
    for key in ("terminal_error", "control_energy"):
        got = getattr(report, key)
        if not _rel(got, golden[key]) <= 1e-9:
            fails.append(f"{key} {got!r} differs from golden {golden[key]!r}")
    if report.outer_iters != golden["outer_iters"]:
        fails.append(f"outer_iters {report.outer_iters} != golden {golden['outer_iters']}")


def _source_digest() -> str:
    h = hashlib.sha256()
    for base in (ROOT / "src", INPUTS):
        for path in sorted(base.rglob("*")):
            if path.is_file() and "__pycache__" not in path.parts:
                h.update(str(path.relative_to(ROOT)).encode())
                h.update(path.read_bytes())
    return h.hexdigest()[:20]


def _same_as_first_run(name: str, seed: int, text: str) -> bool:
    """Record text for this (source tree, workload, seed), or compare with
    the text recorded by the first run."""
    path = DIGESTS / f"{name}-{seed}-{_source_digest()}.txt"
    if path.exists():
        return path.read_text() == text
    DIGESTS.mkdir(parents=True, exist_ok=True)
    tmp = path.with_suffix(f".{os.getpid()}.tmp")
    tmp.write_text(text)
    os.replace(tmp, path)
    return True


def lq_minimum(ctx) -> tuple[float, object]:
    """Exact minimum of the 1-D linear-quadratic cost over the parameter box
    interior, by superposition from P + 1 solves (the dynamics are affine in
    the control).  Needs r = 0, where the history norm equals |x(t)|."""
    from fracsteer import solver

    spec, grid, param, cost = ctx.spec, ctx.grid, ctx.param, ctx.cost
    if spec.n_modes != 1 or spec.delay != 0.0:
        raise ValueError("superposition minimum needs N = 1 and r = 0")
    w = grid.trapezoid_weights(grid.n_fwd)
    zero = solver.ControlSignal.zeros(grid)
    free = solver.solve_mild(spec, zero, tol=1e-13).forward_values()[:, 0]
    X, U = [], []
    for q in range(param.intervals):
        theta = np.zeros((param.intervals, 1))
        theta[q, 0] = 1.0
        uq = param.expand(grid, theta)
        X.append(solver.solve_mild(spec, uq, tol=1e-13).forward_values()[:, 0] - free)
        U.append(uq.samples[:, 0])
    X, U = np.stack(X), np.stack(U)
    a = cost.w_state + cost.w_hist
    c0 = a * float(w @ free**2)
    b = a * X @ (w * free)
    Q = a * (X * w) @ X.T + cost.w_control * (U * w) @ U.T
    theta = np.linalg.solve(Q, -b)
    return c0 + float(b @ theta), theta


def check(name: str, w, ctx, inputs, seed: int, result) -> list:
    """Correctness gate; returns the list of failures (empty: passed)."""
    fails = []
    if w.kind == "steer":
        report, traj, u = result
        err = float(np.linalg.norm(traj.terminal() - inputs["target"]))
        if not report.converged:
            fails.append("steer did not converge")
        if not _rel(report.terminal_error, err) <= 1e-12:
            fails.append(f"reported terminal error {report.terminal_error!r} != |x(T) - h| {err!r}")
        if not _rel(report.control_energy, u.energy()) <= 1e-12:
            fails.append("reported control energy does not match the control")
        if seed == 0:
            _golden_report(w, report, fails)
    elif w.kind == "sweep":
        reports = [e.report for e in result.entries]
        if len(reports) != len(SWEEP_EPS) or any(r is None or not r.converged for r in reports):
            return ["a sweep entry failed or did not converge"]
        errs = [r.terminal_error for r in reports]
        if any(b > a for a, b in zip(errs, errs[1:])):
            fails.append(f"sweep errors increase: {errs}")
        if seed == 0:
            _golden_report(w, reports[SWEEP_EPS.index(STEER_EPS)], fails)
        text = "\n".join(
            f"{r.eps!r} {r.terminal_error!r} {r.control_energy!r} {r.outer_iters}" for r in reports
        )
        if not _same_as_first_run(name, seed, text):
            fails.append("sweep output differs from the first run of this source tree")
    else:
        if not result.converged:
            fails.append("minimize did not converge")
        if any(b > a for a, b in zip(result.history, result.history[1:])):
            fails.append("minimize history increases")
        j_min, theta = lq_minimum(ctx)
        if np.any(np.abs(theta) > OPT_BOUND):
            fails.append("exact minimizer lies outside the box; gate does not apply")
        elif not _rel(result.J_opt, j_min) <= 1e-9:
            fails.append(f"J_opt {result.J_opt!r} is not the exact minimum {j_min!r}")
    return fails


def attempt(name, w, ctx, inputs, seed, clock, errors, rec=None):
    """Run the operation once under clock, traced under rec if given, then
    check it untraced; returns (passed, result or None).  The timing is left
    in clock.last_wall and clock.corrected()."""
    result = None
    if rec is not None:
        rec.phase = "run"
    try:
        try:
            result = clock.measure(lambda: operate(w, ctx, inputs))
        finally:
            if rec is not None:
                rec.phase = None
        fails = check(name, w, ctx, inputs, seed, result)
    except Exception as exc:  # an operation that raised counts as failed
        traceback.print_exc()
        fails = [f"{type(exc).__name__}: {exc}"]
    errors.extend(fails)
    return not fails, result


def outer_iters(w, result) -> int:
    if result is None or w.kind == "optimize":
        return 0
    if w.kind == "steer":
        return result[0].outer_iters
    return sum(e.report.outer_iters for e in result.entries if e.report is not None)


def machine_facts() -> dict:
    import mpmath
    import scipy

    return {
        "cpu_count": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "mpmath": mpmath.__version__,
        "mpmath_backend": mpmath.libmp.BACKEND,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--mode", choices=("run", "trace"), required=True)
    ap.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    args = ap.parse_args(argv)
    import_library()
    w = WORKLOADS[args.workload]
    inputs = make_inputs(w, args.seed)
    out = {}

    clock = speed.SpeedClock()
    clock.measure(lambda: setup(w))
    out["setup_first_wall_s"] = clock.last_wall
    errors = []
    if args.mode == "run":
        setups, setup_probes = [], []
        while len(setups) < SETUP_MIN or (
            len(setups) < SETUP_MAX and sum(setups) + statistics.median(setups) <= SETUP_BUDGET_S
        ):
            fresh_library()
            ctx = clock.measure(lambda: setup(w))
            setups.append(clock.last_wall)
            setup_probes += clock.last_probes
        ops, ok = [], 0
        t_begin = time.perf_counter()
        while True:
            passed, _ = attempt(args.workload, w, ctx, inputs, args.seed, clock, errors)
            ops.append((clock.last_wall, clock.corrected()))
            ok += passed
            if time.perf_counter() - t_begin + statistics.median(wall for wall, _ in ops) > args.seconds:
                break
        out.update(
            # a set-up can be shorter than one probe period: pool their probes
            setup_s=speed.correct(statistics.median(setups), setup_probes),
            setup_wall_s=setups,
            run_s=[c for _, c in ops],
            run_wall_s=[wall for wall, _ in ops],
            attempted=len(ops), failed=len(ops) - ok, errors=errors,
            peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            facts=machine_facts(),
        )
    else:
        import spans

        fresh_library()
        rec = spans.Recorder()
        rec.install()
        rec.phase = "setup"
        ctx = setup(w)
        passed, result = attempt(args.workload, w, ctx, inputs, args.seed, clock, errors, rec)
        layers = spans.layer_metrics(rec, clock.last_wall)
        layers["control.outer_iters"] = (outer_iters(w, result), "count")
        out.update(run_s=clock.corrected(), run_wall_s=clock.last_wall,
                   attempted=1, failed=int(not passed), errors=errors,
                   layers=layers, missing=rec.missing)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
