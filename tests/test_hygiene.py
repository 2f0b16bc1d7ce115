"""Source hygiene: no module of the package imports a name it never uses,
and every import sits at module level.

A stdlib-only stand-in for an unused-import lint.  `__init__.py` is left
out of the unused-import check because its imports are the package's
public re-exports.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "sitecolim"
ALL_MODULES = sorted(PACKAGE.glob("*.py"))
MODULES = [p for p in ALL_MODULES if p.name != "__init__.py"]


def unused_imports(source):
    """(line, name) of every imported name that is never loaded."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if getattr(node, "module", None) == "__future__":
                continue
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported.setdefault(name, node.lineno)
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    used |= {n.value.id for n in ast.walk(tree)
             if isinstance(n, ast.Attribute) and isinstance(n.value, ast.Name)}
    return sorted((line, name) for name, line in imported.items()
                  if name not in used)


def test_unused_imports_detected():
    src = "import os\nimport sys as system\nfrom a import b, c\nprint(c)\n"
    assert unused_imports(src) == [(1, "os"), (2, "system"), (3, "b")]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def local_imports(source):
    """(line, function) of every import statement inside a function."""
    tree = ast.parse(source)
    found = set()
    for fn in ast.walk(tree):
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            found.update((node.lineno, fn.name) for node in ast.walk(fn)
                         if isinstance(node, (ast.Import, ast.ImportFrom)))
    return sorted(found)


def test_local_imports_detected():
    src = ("import os\n"
           "def f():\n    import sys\n    def g():\n        from a import b\n"
           "class C:\n    def m(self):\n        import re\n")
    assert local_imports(src) == [(3, "f"), (5, "f"), (5, "g"), (8, "m")]


@pytest.mark.parametrize("path", ALL_MODULES, ids=lambda p: p.name)
def test_no_function_local_imports(path):
    assert local_imports(path.read_text()) == []
