"""Every top-level import of a library module is used in that module."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "cubenergy"
# the package's __init__ imports names to re-export them
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def _unused_imports(source: str):
    """Names bound by the module-level imports of ``source`` that no
    expression of the module reads, in import order."""
    tree = ast.parse(source)
    bound = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            bound += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [a.asname or a.name for a in node.names]
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [name for name in bound if name not in used]


def test_the_check_sees_every_module():
    assert {p.name for p in MODULES} >= {"energy.py", "legendre.py", "cli.py"}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_uses_its_imports(path):
    assert _unused_imports(path.read_text()) == []


def test_unused_import_check_catches_a_leftover():
    source = ("from __future__ import annotations\n"
              "import math\nimport os.path\n"
              "from typing import Dict, List as L\n"
              "def f(x: Dict) -> int:\n    return math.floor(x)\n")
    assert _unused_imports(source) == ["os", "L"]
