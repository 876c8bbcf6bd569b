"""fracsteer benchmark: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace {0,1}

Run from the root of a checkout.  Each run starts its measuring children one
at a time (child.py), with BLAS/OpenMP pinned to one thread and
FRACSTEER_THREADS unset, so the epsilon sweep runs serially.

--trace 0 prints the end-to-end metrics of one untraced child: set-up time
(median of its cold set-ups), operation time (median of its repeats), both
corrected for the host's speed (speed.py), peak RSS, and the share of
operations that passed their correctness gate.
--trace 1 runs the untraced child and then a traced one, and prints the
per-layer metrics plus the tracing overhead between the two.

The line before the result holds the details: every sample, the errors, the
spans that could not be installed, machine facts and the load at start.
The workloads and metrics are described in perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("steer_flagship_400", "sweep_flagship_200", "optimize_lq_1d")
RUN_DEADLINE_S = 170.0
PINNED_ENV = {
    name: "1"
    for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                 "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
}


class ChildFailed(RuntimeError):
    pass


def run_child(mode: str, args, deadline: float) -> dict:
    env = {k: v for k, v in os.environ.items() if k != "FRACSTEER_THREADS"}
    env.update(PINNED_ENV)
    cmd = [sys.executable, str(HERE / "child.py"), "--mode", mode,
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds)]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired as exc:  # run() has killed and reaped it
        raise ChildFailed(f"{mode} child timed out") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise ChildFailed(f"{mode} child exited with code {proc.returncode}")
    return json.loads(lines[-1])


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be >= 1")
    if not (ROOT / "src" / "fracsteer" / "__init__.py").is_file():
        print(f"no fracsteer sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + RUN_DEADLINE_S
    details = {"workload": args.workload, "seed": args.seed, "load_at_start": os.getloadavg()}

    try:
        plain = run_child("run", args, deadline)
        traced = run_child("trace", args, deadline) if args.trace else None
    except ChildFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    run_s = statistics.median(plain["run_s"])
    attempted, failed = plain["attempted"], plain["failed"]
    details.update({k: plain[k] for k in ("facts", "setup_s", "setup_first_wall_s", "setup_wall_s",
                                          "run_s", "run_wall_s", "errors")})
    if traced is None:
        metrics = {
            "setup_s": (plain["setup_s"], "s"),
            "run_s": (run_s, "s"),
            "peak_rss_mb": (plain["peak_rss_mb"], "MB"),
            "ops_ok_frac": ((attempted - failed) / attempted, "frac"),
        }
    else:
        metrics = dict(traced["layers"])
        metrics["trace.overhead_frac"] = (traced["run_s"] / run_s - 1.0, "frac")
        attempted += traced["attempted"]
        failed += traced["failed"]
        details.update(traced_run_s=traced["run_s"], traced_run_wall_s=traced["run_wall_s"],
                       missing_spans=traced["missing"],
                       errors=plain["errors"] + traced["errors"])

    print(json.dumps(details))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
