"""Command-line front end.

Subcommands: ml | solve | steer | sweep | optimize | check.  Each _cmd_*
returns its output text, its manifest parameters and its exit code; `run`
then writes the text and one JSON manifest alongside it (or
<subcommand>.manifest.json in the working directory for stdout-only runs).
Outputs are written atomically via a temp file and rename.  Exit codes:
0 success, 2 configuration error, 3 numerical non-convergence.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import dataclasses
import io
import json
import math
import os
import re
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

from . import __version__
from .config import load_cost, load_problem, load_target
from .control import epsilon_sweep, steer
from .errors import ConfigError, ConvergenceError, EvaluationError, FracsteerError
from .mittag import mittag_leffler
from .optimal import ControlParameterization, MinimizeOptions, minimize
from .solver import (_MAX_STEPS, PICARD_MAX, ControlSignal, Grid, contraction_check,
                     contraction_warnings, solve_mild)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3


def _atomic_write(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.", suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(tmp)
        raise


def _json(obj) -> str:
    """obj as indented JSON.  JSON has no inf or NaN, so a non-finite number
    ends the run with a one-line error instead of writing invalid JSON."""
    try:
        return json.dumps(obj, indent=2, allow_nan=False) + "\n"
    except ValueError as exc:
        raise EvaluationError(f"cannot write a non-finite number as JSON: {exc}",
                              regime="output") from None


def _load(args) -> tuple:
    """The problem of --config and its grid of step --dt."""
    spec = load_problem(args.config)
    return spec, Grid(spec, args.dt)


def _cmd_ml(args) -> tuple[str, dict, int]:
    if args.grid:
        try:
            lo, hi, steps = args.grid.split(",")
            lo, hi, steps = float(lo), float(hi), int(steps)
        except ValueError as exc:
            raise ConfigError(f"--grid must be from,to,steps: {exc}") from exc
        if not 1 <= steps <= _MAX_STEPS:
            raise ConfigError(f"grid steps must be in [1, {_MAX_STEPS}], got {steps}")
        zs = np.linspace(lo, hi, steps)
    else:
        zs = [args.z]
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["alpha", "beta", "z", "value"])
    for z, val in zip(zs, mittag_leffler(args.alpha, args.beta, zs)):
        writer.writerow([args.alpha, args.beta, float(z), repr(float(val))])
    return buf.getvalue(), dict(alpha=args.alpha, beta=args.beta, z=list(map(float, zs))), EXIT_OK


def _trajectory_csv(traj) -> str:
    grid = traj.grid
    buf = io.StringIO()
    writer = csv.writer(buf)
    n = grid.spec.n_modes
    writer.writerow(["t"] + [f"mode_{i}" for i in range(1, n + 1)] + ["is_left_limit"])
    impulse_rows = {grid.fwd_row(m): m for m, _ in grid.kicks}
    for row in range(len(grid)):
        t = grid.times[row]
        is_imp = row in impulse_rows
        writer.writerow([repr(float(v)) for v in (t, *traj.values[row])] + [int(is_imp)])
        if is_imp:
            right = traj.right_value(impulse_rows[row])
            writer.writerow([repr(float(v)) for v in (t, *right)] + [0])
    return buf.getvalue()


def _cmd_solve(args) -> tuple[str, dict, int]:
    spec, grid = _load(args)
    traj = solve_mild(spec, ControlSignal.zeros(grid), tol=args.tol, max_iter=args.max_iter)
    return _trajectory_csv(traj), dict(
        dt=args.dt, tol=args.tol, picard_iters=len(traj.residuals),
        warnings=contraction_warnings(spec),
    ), EXIT_OK


def _cmd_steer(args) -> tuple[str, dict, int]:
    spec, grid = _load(args)
    h = load_target(args.target, spec.n_modes)
    report, traj, u = steer(spec, grid, h, args.eps, tol=args.tol, max_outer=args.max_outer)
    payload = dataclasses.asdict(report)
    payload["terminal_state"] = [float(v) for v in traj.terminal()]
    parameters = dict(dt=args.dt, eps=args.eps, tol=args.tol)
    return _json(payload), parameters, EXIT_OK


def _cmd_sweep(args) -> tuple[str, dict, int]:
    spec, grid = _load(args)
    h = load_target(args.target, spec.n_modes)
    try:
        eps_list = [float(tok) for tok in args.eps_list.split(",") if tok]
    except ValueError as exc:
        raise ConfigError(f"--eps-list must be comma-separated floats: {exc}") from exc
    result = epsilon_sweep(spec, grid, h, eps_list, tol=args.tol, max_outer=args.max_outer)
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["eps", "terminal_error", "control_energy", "outer_iters"])
    for entry in result.entries:
        if entry.report is None:
            writer.writerow([entry.eps, "failed", "failed", entry.error])
        else:
            r = entry.report
            writer.writerow([r.eps, repr(r.terminal_error), repr(r.control_energy), r.outer_iters])
    failed = any(e.report is None for e in result.entries)
    return buf.getvalue(), dict(
        dt=args.dt, eps_list=eps_list, tol=args.tol,
        errors_non_increasing=result.errors_non_increasing,
    ), EXIT_NUMERICAL if failed else EXIT_OK


def _cmd_optimize(args) -> tuple[str, dict, int]:
    spec, grid = _load(args)
    cost = load_cost(args.cost)
    param = ControlParameterization.boxed(args.intervals, spec.n_modes, args.bound)
    result = minimize(spec, grid, cost, param, opts=MinimizeOptions(max_evals=args.max_evals))
    payload = {
        "J_opt": result.J_opt,
        "parameters": [[float(v) for v in row] for row in result.theta_opt],
        "history": result.history,
        "converged": result.converged,
        "n_evals": result.n_evals,
    }
    return _json(payload), dict(
        dt=args.dt, intervals=args.intervals, bound=args.bound, converged=result.converged,
    ), EXIT_OK


def _cmd_check(args) -> tuple[str, dict, int]:
    spec = load_problem(args.config)
    factor = contraction_check(spec, args.eps)
    c = spec.constants
    lines = [
        f"contraction factor (eps={args.eps}): {factor!r}",
        f"  M={c.M!r} M_B={c.M_B!r} K={c.K} l_1={c.l_1!r} l_2={c.l_2!r} l_g={c.l_g!r}",
        f"  |L1|_1/p={c.norm_L1!r} |L2|_1/p={c.norm_L2!r} |M1|_1/p={c.norm_M1!r}",
        f"  contraction satisfied: {factor < 1.0}",
    ]
    return "\n".join(lines) + "\n", dict(eps=args.eps, factor=factor), EXIT_OK


def _write_run(args, text: str, parameters: dict, started: float) -> None:
    """Write a run's text (atomically to --out, else to stdout) and then its
    manifest: to --manifest, else next to --out, else to
    <subcommand>.manifest.json in the working directory.  The manifest is
    encoded first, so a run whose manifest cannot be written writes nothing.
    A flag value JSON cannot hold (an unbounded box, --bound inf) is
    recorded as its repr, the string "inf"."""
    manifest = _json({
        "subcommand": args.subcommand,
        "tool_version": __version__,
        "config": getattr(args, "config", None),
        "parameters": {k: repr(v) if isinstance(v, float) and not math.isfinite(v) else v
                       for k, v in parameters.items()},
        "outputs": [args.out] if args.out else [],
        "duration_s": round(time.monotonic() - started, 6),
    })
    if args.out:
        _atomic_write(Path(args.out), text)
    else:
        sys.stdout.write(text)
    default = f"{args.out}.manifest.json" if args.out else f"{args.subcommand}.manifest.json"
    _atomic_write(Path(args.manifest or default), manifest)


class _Parser(argparse.ArgumentParser):
    """Usage errors (a malformed value, a missing flag) end the run with the
    one `error:` line of every other configuration fault.  No option starts
    with "-" and a digit, "inf" or "nan": such a token is a value (-1e4)."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"^-(\.?\d|inf|nan)", re.IGNORECASE)

    def error(self, message):
        raise ConfigError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="fracsteer",
        description="Fractional impulsive-delay steering and optimal-control toolkit",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def common(p, config=True, dt=True):
        if config:
            p.add_argument("--config", required=True, help="problem JSON file")
            if dt:
                p.add_argument("--dt", type=float, required=True, help="grid step")
        p.add_argument("--out", help="output file (stdout when omitted)")
        p.add_argument("--manifest", help="manifest path override")

    p = sub.add_parser("ml", help="evaluate the Mittag-Leffler kernel")
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--beta", type=float, required=True)
    points = p.add_mutually_exclusive_group(required=True)
    points.add_argument("--z", type=float)
    points.add_argument("--grid", help="z sweep as from,to,steps")
    common(p, config=False)
    p.set_defaults(func=_cmd_ml)

    p = sub.add_parser("solve", help="solve the mild formulation for u = 0")
    common(p)
    p.add_argument("--tol", type=float, default=1e-10)
    p.add_argument("--max-iter", type=int, default=PICARD_MAX)
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("steer", help="synthesize the regularized steering control")
    common(p)
    p.add_argument("--target", required=True, help="target state JSON file")
    p.add_argument("--eps", type=float, required=True)
    p.add_argument("--tol", type=float, default=1e-8)
    p.add_argument("--max-outer", type=int, default=120)
    p.set_defaults(func=_cmd_steer)

    p = sub.add_parser("sweep", help="steer across a decreasing list of eps")
    common(p)
    p.add_argument("--target", required=True)
    p.add_argument("--eps-list", required=True, help="comma-separated, decreasing")
    p.add_argument("--tol", type=float, default=1e-8)
    p.add_argument("--max-outer", type=int, default=120)
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("optimize", help="minimize the performance index")
    common(p)
    p.add_argument("--cost", required=True, help="cost JSON file")
    p.add_argument("--intervals", type=int, required=True, help="control intervals P")
    p.add_argument("--bound", type=float, default=10.0, help="admissible box half-width")
    p.add_argument("--max-evals", type=int, default=4000)
    p.set_defaults(func=_cmd_optimize)

    p = sub.add_parser("check", help="print the contraction factor and constants")
    common(p, dt=False)
    p.add_argument("--eps", type=float, required=True)
    p.set_defaults(func=_cmd_check)
    return parser


def run(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        started = time.monotonic()
        # a non-finite value ends the run with a one-line error below, so
        # numpy's overflow/invalid warnings on the way there are noise
        with np.errstate(all="ignore"):
            text, parameters, code = args.func(args)
        try:
            _write_run(args, text, parameters, started)
        except OSError as exc:
            raise ConfigError(f"cannot write output: {exc}") from exc
        return code
    except (ConvergenceError, EvaluationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except FracsteerError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except SystemExit as exc:  # --help and --version
        return exc.code or EXIT_OK


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
