"""Every module-level import in the package is read by its module, every
import inside a function defers a module that ``import noisynet`` does
not load, every module-level private name is read somewhere in the
package, and every method or property of a package class is read by the
package, the tests or perfbench.

No linter ships with the toolchain, so these are the unused-import and
dead-code checks.  ``__init__`` is excepted from the first: its imports
are the package's exports.
"""

import ast
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "noisynet"
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


def function_level_imports(source: str, package: str) -> list:
    """The module each import inside a function of ``source`` names, in line
    order, a relative import resolved in ``package``: ``from . import m``
    names ``package.m`` and ``from .m import f`` names ``package.m``."""
    functions = [
        n for n in ast.walk(ast.parse(source))
        if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef))
    ]
    imports = {
        n for f in functions for n in ast.walk(f) if isinstance(n, (ast.Import, ast.ImportFrom))
    }
    names = []
    for node in sorted(imports, key=lambda n: (n.lineno, n.col_offset)):
        if isinstance(node, ast.Import):
            names += [a.name for a in node.names]
        elif node.module is None:
            names += [f"{package}.{a.name}" for a in node.names]
        else:
            names.append(f"{package}.{node.module}" if node.level else node.module)
    return names


def test_function_level_imports_resolves_each_form():
    source = (
        "import os\nfrom a import b\ndef f():\n    import x.y\n"
        "    from . import m, n\n    def g():\n        from .k import z\n"
        "class C:\n    def h(self):\n        from scipy.stats import binom\n"
    )
    assert function_level_imports(source, "pkg") == [
        "x.y", "pkg.m", "pkg.n", "pkg.k", "scipy.stats",
    ]


@pytest.fixture(scope="module")
def loaded_by_the_package() -> set:
    """The modules a fresh ``import noisynet`` loads."""
    code = (
        f"import sys; sys.path.insert(0, {str(PACKAGE.parent)!r}); "
        "import noisynet; print(*sys.modules, sep='\\n')"
    )
    result = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True
    )
    return set(result.stdout.split())


@pytest.mark.parametrize("module", MODULES)
def test_function_level_imports_defer_a_module(module, loaded_by_the_package):
    """A function-level import of a module the package loads anyway defers
    nothing; it belongs at the module top."""
    names = function_level_imports((PACKAGE / module).read_text(), "noisynet")
    assert [n for n in names if n in loaded_by_the_package] == []


def _private_defs(stmt) -> list:
    """The private names (``_x``, not dunders) a module-level def, class or
    assignment binds."""
    if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
        names = [stmt.name]
    elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
        targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
        names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
    else:
        names = []
    return [n for n in names if n.startswith("_") and not n.startswith("__")]


def _reads(stmt) -> tuple:
    """``(names, attributes)`` that ``stmt`` reads: its ``Name`` loads, and
    its attribute names with the names it imports by ``from ... import``."""
    names, attrs = set(), set()
    for n in ast.walk(stmt):
        if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
            names.add(n.id)
        elif isinstance(n, ast.Attribute):
            attrs.add(n.attr)
        elif isinstance(n, ast.ImportFrom):
            attrs.update(a.name for a in n.names)
    return names, attrs


def unread_private_names(sources: dict) -> list:
    """``module.name`` for each module-level private name in the ``{module:
    source}`` map that no statement reads besides the one defining it; a
    bare name is read only in its own module."""
    stmts = [
        (m, stmt, _reads(stmt)) for m, text in sorted(sources.items()) for stmt in ast.parse(text).body
    ]
    return [
        f"{m}.{name}"
        for m, d, _ in stmts
        for name in _private_defs(d)
        if not any(
            name in attrs or (m2 == m and name in names)
            for m2, s, (names, attrs) in stmts
            if s is not d
        )
    ]


def test_unread_private_names_finds_only_unread_names():
    sources = {
        "a": "def _rec(n):\n    return _rec(n)\n_k = _x = _z = _w = 1\n"
             "def f():\n    return _k\n",
        "b": "import a\nfrom a import _x\n_y = a._z\nclass _C: pass\ndef g():\n    return _w\n",
    }
    assert unread_private_names(sources) == ["a._rec", "a._w", "b._y", "b._C"]


def test_package_reads_every_private_name():
    sources = {p.stem: p.read_text() for p in PACKAGE.glob("*.py")}
    assert unread_private_names(sources) == []


def _attribute_reads(node) -> Counter:
    """How often ``node`` reads each attribute name, a string constant
    counting as a read of the name it spells."""
    return Counter(
        n.attr if isinstance(n, ast.Attribute) else n.value
        for n in ast.walk(node)
        if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load)
        or isinstance(n, ast.Constant) and isinstance(n.value, str)
    )


def unread_methods(package: dict, sources: dict) -> list:
    """``module.Class.name`` for each method or property (not a dunder) of a
    module-level class in the ``{module: source}`` map ``package`` that no
    code in ``sources`` reads besides its own body.  A string constant is
    a read, as perfbench installs its wrappers by name with ``getattr``."""
    reads = Counter()
    for text in sources.values():
        reads.update(_attribute_reads(ast.parse(text)))
    return [
        f"{m}.{cls.name}.{f.name}"
        for m, text in sorted(package.items())
        for cls in ast.parse(text).body
        if isinstance(cls, ast.ClassDef)
        for f in cls.body
        if isinstance(f, ast.FunctionDef) and not f.name.startswith("__")
        and reads[f.name] == _attribute_reads(f)[f.name]
    ]


def test_unread_methods_finds_only_unread_methods():
    package = {
        "a": "class A:\n    def __init__(self):\n        self.rec = 0\n"
             "    def used(self):\n        return 1\n"
             "    def rec(self):\n        return self.rec()\n"
             "    @property\n    def prop(self):\n        return 1\n"
             "    def named(self):\n        pass\n",
    }
    sources = {**package, "b": "import a\na.A().used()\ngetattr(a.A, 'named')\n"}
    assert unread_methods(package, sources) == ["a.A.rec", "a.A.prop"]


def test_every_method_is_read():
    package = {p.stem: p.read_text() for p in PACKAGE.glob("*.py")}
    sources = {
        str(p): p.read_text()
        for d in (PACKAGE, ROOT / "tests", ROOT / "perfbench")
        for p in d.glob("*.py")
    }
    assert unread_methods(package, sources) == []
