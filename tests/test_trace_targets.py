"""The benchmark's traced runs wrap library functions by module attribute
(perfbench/spans.py, TARGETS).  A target that stops resolving is skipped
there without failing the run, and every per-layer metric built on it drops
out of the result, so a rename or a deletion must fail here instead."""

import importlib
import runpy
from pathlib import Path

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"

# gone since the kernel table is built in array code
KNOWN_MISSING = {"fracsteer.solver.mittag_leffler"}


def test_every_span_target_resolves():
    # run_path executes the file's definitions only: no span is installed
    missing = set()
    for module_name, attr, _ in runpy.run_path(str(SPANS))["TARGETS"]:
        if not hasattr(importlib.import_module(module_name), attr):
            missing.add(f"{module_name}.{attr}")
    assert missing <= KNOWN_MISSING
