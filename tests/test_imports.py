"""Source hygiene: every module of the package uses each name it imports."""

import ast
from pathlib import Path

import adprep

PACKAGE = Path(adprep.__file__).parent


def unused_imports(source: str) -> list[str]:
    """Names a module imports but never reads. `__future__` imports are
    directives, not names; a re-exporting `__init__` is not checked."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(f"{name} (line {line})" for name, line in imported.items() if name not in used)


def test_unused_imports_are_found():
    source = "from __future__ import annotations\nimport os, time\nfrom x import a as b, c\nos.sep\nc()\n"
    assert unused_imports(source) == ["b (line 3)", "time (line 2)"]


def test_package_modules_use_every_import():
    modules = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
    assert modules
    unused = {
        p.name: found for p in modules if (found := unused_imports(p.read_text(encoding="utf-8")))
    }
    assert unused == {}
