"""The benchmark's traced runs wrap library functions by module attribute
(perfbench/spans.py, TARGETS).  A target that stops resolving is skipped
there without failing the run, and every per-layer metric built on it drops
out of the result, so a rename or a deletion must fail here instead."""

import importlib
import json
import runpy
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPANS = ROOT / "perfbench" / "spans.py"

KNOWN_MISSING = set()


def test_every_span_target_resolves():
    # run_path executes the file's definitions only: no span is installed
    missing = set()
    for module_name, attr, _ in runpy.run_path(str(SPANS))["TARGETS"]:
        if not hasattr(importlib.import_module(module_name), attr):
            missing.add(f"{module_name}.{attr}")
    assert missing <= KNOWN_MISSING


def _refuse(constant):
    raise ValueError(f"non-finite number {constant} in the result line")


def test_traced_steer_run_prints_a_well_formed_result():
    # a traced run can exit 0 and still print a result line the benchmark
    # cannot use; run one end to end (about 5 s)
    cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload",
           "steer_flagship_400", "--seed", "0", "--seconds", "1", "--trace", "1"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1], parse_constant=_refuse)
    assert result["correct"] is True
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    assert {m["name"] for m in declared} <= set(result["metrics"])


def test_every_workload_passes_its_correctness_gate(monkeypatch, tmp_path):
    # the benchmark's gates in process, in well under a second: the golden
    # steer report, the exact LQ minimum, and a second sweep bit for bit
    # equal to the first
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))  # child imports speed
    child = importlib.import_module("child")
    monkeypatch.setattr(child, "DIGESTS", tmp_path)
    for name, w in child.WORKLOADS.items():
        ctx, inputs = child.setup(w), child.make_inputs(w, 0)
        for _ in range(2):
            result = child.operate(w, ctx, inputs)
            assert child.check(name, w, ctx, inputs, 0, result) == [], name
