"""No module of the package imports a name it never uses, or scipy when it
is imported.  No linter comes with the test extras, so this walks each
module's syntax tree: a name an import binds must appear as a name somewhere
in the module (an attribute's base, a call, an annotation), and scipy may be
imported only inside a function, which runs on the one route that needs it."""

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


def import_time_modules(source: str) -> list[str]:
    """Top-level packages that source imports when it is itself imported:
    every import outside a function body."""
    found = set()

    def visit(node):
        if isinstance(node, ast.Import):
            found.update(a.name.partition(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            found.add(node.module.partition(".")[0])
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            for child in ast.iter_child_nodes(node):
                visit(child)

    visit(ast.parse(source))
    return sorted(found)


def test_finds_an_import_time_scipy_import():
    source = (
        "import numpy as np\nfrom scipy.fft import rfft\nfrom .model import A\n"
        "class K:\n    import scipy.linalg\n"
        "def f():\n    from scipy.special import hyp1f1\n"
    )
    assert import_time_modules(source) == ["numpy", "scipy"]
    assert import_time_modules("def f():\n    import scipy.special\n") == []


@pytest.mark.parametrize("module", MODULES + ["__init__.py"])
def test_module_does_not_import_scipy_when_imported(module):
    # scipy.fft and scipy.linalg added 33 MB to every process; only
    # mittag._alpha_one imports scipy, inside the function
    assert "scipy" not in import_time_modules((PACKAGE / module).read_text())
