"""No module of the package imports a name it never uses.  No linter comes
with the test extras, so this walks each module's syntax tree: a name an
import binds must appear as a name somewhere in the module (an attribute's
base, a call, an annotation)."""

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
