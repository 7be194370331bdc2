"""Every name a kreinmod module imports is used in that module, and every
private module-level helper is used somewhere in the package.

No linter runs on the package, so a deletion that leaves an import or a
helper behind would go unnoticed; this reads each module's syntax tree
instead.  ``__init__.py`` is left out of the import check: its imports are
the package's re-exports.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "kreinmod"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                # ``import a.b`` binds ``a``
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted(f"{name} (line {line})" for name, line in imported.items()
                  if name not in used)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_detects_an_unused_import():
    source = "from __future__ import annotations\nimport os\nfrom a import b, c\nc()\n"
    assert unused_imports(source) == ["b (line 3)", "os (line 2)"]


def referenced_names(node) -> set[str]:
    """Every name a syntax tree reads: plain names, attributes and the names
    an import binds from another module."""
    names = set()
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            names.add(n.id)
        elif isinstance(n, ast.Attribute):
            names.add(n.attr)
        elif isinstance(n, ast.ImportFrom):
            names.update(alias.name for alias in n.names)
    return names


def dead_helpers(sources: dict[str, str]) -> list[str]:
    """Module-level ``_name`` functions and classes that no top-level
    statement of any module reads, other than their own definition."""
    helpers, used = [], set()
    for module, source in sources.items():
        for stmt in ast.parse(source).body:
            defines = isinstance(
                stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
            ) and stmt.name.startswith("_")
            if defines:
                helpers.append((module, stmt.name))
            used |= referenced_names(stmt) - ({stmt.name} if defines else set())
    return sorted(f"{module}: {name}" for module, name in helpers if name not in used)


def test_no_dead_private_helpers():
    sources = {p.name: p.read_text(encoding="utf-8") for p in PACKAGE.glob("*.py")}
    assert dead_helpers(sources) == []


def test_detects_a_dead_helper():
    sources = {
        "a.py": "def _used():\n    pass\n\n\ndef _dead(n):\n    return _dead(n - 1)\n",
        "b.py": "from a import _used\n\n\nclass _Gone:\n    pass\n",
    }
    assert dead_helpers(sources) == ["a.py: _dead", "b.py: _Gone"]
