"""Source hygiene: every module of the package uses each name it imports, and
every function and class it defines is named outside the tests."""

import ast
import re
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


def unnamed_definitions(modules: dict[str, str], elsewhere: str) -> list[str]:
    """Top-level functions and classes of `modules` ({file name: source})
    whose name appears in no module outside the definition's own lines, nor
    in `elsewhere`."""
    found = []
    for name, source in modules.items():
        lines = source.splitlines()
        for node in ast.parse(source).body:
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            outside = "\n".join(lines[: node.lineno - 1] + lines[node.end_lineno :])
            others = [text for other, text in modules.items() if other != name]
            if not re.search(rf"\b{node.name}\b", "\n".join([outside, *others, elsewhere])):
                found.append(f"{name}:{node.name}")
    return found


def test_unnamed_definitions_are_found():
    modules = {
        "a.py": "def used():\n    pass\n\ndef recurses():\n    return recurses()\n",
        "b.py": "class Kept:\n    pass\n\nused()\n",
    }
    assert unnamed_definitions(modules, "Kept") == ["a.py:recurses"]


def test_every_definition_has_a_caller_outside_the_tests():
    """A function or class the package defines is named elsewhere in the
    package or in perfbench/; code only the tests call gets a real caller or
    goes. A re-export from `__init__` is not a caller."""
    modules = {
        p.name: p.read_text(encoding="utf-8")
        for p in sorted(PACKAGE.glob("*.py"))
        if p.name != "__init__.py"
    }
    perfbench = Path(__file__).resolve().parent.parent / "perfbench"
    elsewhere = "\n".join(p.read_text(encoding="utf-8") for p in sorted(perfbench.glob("*.py")))
    assert unnamed_definitions(modules, elsewhere) == []


def strptime_uses(modules: dict[str, str]) -> list[str]:
    """Lines of `modules` ({file name: source}) whose code names strptime (a
    name, an attribute or an import; prose does not count), outside
    expr.py's `_parse_date`, whose format comes from the user."""
    found = []
    for name, source in modules.items():
        tree = ast.parse(source)
        allowed = set()
        if name == "expr.py":
            for node in tree.body:
                if isinstance(node, ast.FunctionDef) and node.name == "_parse_date":
                    allowed = set(range(node.lineno, node.end_lineno + 1))
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                names = [node.id]
            elif isinstance(node, ast.Attribute):
                names = [node.attr]
            elif isinstance(node, ast.alias):
                names = [node.name, node.asname or ""]
            else:
                continue
            if any("strptime" in n for n in names) and node.lineno not in allowed:
                found.append(f"{name}:{node.lineno}")
    return sorted(set(found))


def test_strptime_uses_are_found():
    modules = {
        "expr.py": "def _parse_date(t, f):\n    return datetime.strptime(t, f)\n",
        "x.py": '"""strptime in prose."""\nimport _strptime\nfrom time import strptime as p\n'
        "datetime.strptime(a, b)\n",
    }
    assert strptime_uses(modules) == ["x.py:2", "x.py:3", "x.py:4"]
    assert strptime_uses({"x.py": modules["expr.py"]}) == ["x.py:2"]


def test_dates_are_read_by_the_date_kernel_only():
    """strptime is called only where the format comes from the user; every
    fixed date pattern goes through expr.date_reader."""
    modules = {p.name: p.read_text(encoding="utf-8") for p in sorted(PACKAGE.glob("*.py"))}
    assert strptime_uses(modules) == []
