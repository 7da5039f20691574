"""Every module-level import in the package is read by its module.

No linter ships with the toolchain, so this is the unused-import check.
``__init__`` is excepted: its imports are the package's exports.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "noisynet"
MODULES = sorted(p.name for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list:
    """Names bound by a module-level import that the module never reads."""
    tree = ast.parse(source)
    bound = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            bound += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [a.asname or a.name for a in node.names]
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [name for name in bound if name not in read]


def test_unused_imports_finds_only_unread_names():
    source = (
        "from __future__ import annotations\n"
        "import a.b\nimport c\nfrom d import e, f as g\nc.x(g)\n"
    )
    assert unused_imports(source) == ["a", "e"]


@pytest.mark.parametrize("module", MODULES)
def test_module_reads_every_import(module):
    assert unused_imports((PACKAGE / module).read_text()) == []
