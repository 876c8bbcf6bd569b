"""No module of the package imports a name it never uses, or scipy.  No
linter comes with the test extras, so this walks each module's syntax tree: a
name an import binds must appear as a name somewhere in the module (an
attribute's base, a call, an annotation), and no import anywhere in it, a
function body included, names scipy: numpy is the one dependency."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "fracsteer"
# __init__ imports its names to re-export them
MODULES = sorted(p.name for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """Names bound by the imports of source that no expression reads."""
    tree = ast.parse(source)
    bound = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            # "import scipy.linalg" binds scipy
            bound |= {a.asname or a.name.partition(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound |= {a.asname or a.name for a in node.names}
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(bound - used)


def test_finds_an_unused_import():
    source = "import os\nimport scipy.linalg as la\nfrom .model import A, B\nA(la)\n"
    assert unused_imports(source) == ["B", "os"]


@pytest.mark.parametrize("module", MODULES)
def test_module_uses_every_name_it_imports(module):
    assert unused_imports((PACKAGE / module).read_text()) == []


def imported_packages(source: str) -> list[str]:
    """Top-level packages that source imports anywhere: at module level, in
    a class or in a function body."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found.update(a.name.partition(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            found.add(node.module.partition(".")[0])
    return sorted(found)


def test_finds_an_import_time_scipy_import():
    source = (
        "import numpy as np\nfrom scipy.fft import rfft\nfrom .model import A\n"
        "class K:\n    import scipy.linalg\n"
    )
    assert imported_packages(source) == ["numpy", "scipy"]
    # an import inside a function runs only on that function's route, and
    # counts as well
    assert imported_packages("def f():\n    from scipy.special import hyp1f1\n") == ["scipy"]


@pytest.mark.parametrize("module", MODULES + ["__init__.py"])
def test_module_does_not_import_scipy_when_imported(module):
    # scipy.fft and scipy.linalg added 33 MB to every process, and scipy's
    # hyp1f1 served alpha = 1 alone; numpy does the work of all three, and
    # no import, at module level or in a function, names scipy
    assert "scipy" not in imported_packages((PACKAGE / module).read_text())
