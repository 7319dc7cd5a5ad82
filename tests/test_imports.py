"""Source hygiene: every module of the package uses each name it imports,
every function, class and public method it defines is called outside the
tests, every default of a function is passed by some caller or listed
with its reason, and the package exports exactly the names README
documents."""

import ast
import inspect
import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import adprep
from adprep.expr import _ISO_FORMATS, _date_pattern
from adprep.operators import DATE_PATTERNS
from adprep.synthesis import CANONICAL_DATE

try:
    from re import _parser as regex_parser
except ImportError:  # Python 3.10
    import sre_parse as regex_parser

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


def _references(tree: ast.AST, attributes_only: bool = False) -> list[tuple[int, str]]:
    """(line, name) for each code reference in `tree`: an attribute read,
    and unless `attributes_only` also a name read or an imported name.
    Docstrings and comments hold none."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            found.append((node.lineno, node.attr))
        elif attributes_only:
            continue
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            found.append((node.lineno, node.id))
        elif isinstance(node, ast.alias):
            found.append((node.lineno, node.name))
    return found


def unnamed_definitions(modules: dict[str, str], elsewhere: dict[str, str]) -> list[str]:
    """Top-level functions and classes of `modules` ({file name: source}),
    and the public methods and properties of those classes, that no code
    calls. A function or class is called when code outside its own lines
    reads or imports its name, in `modules` or in `elsewhere`; a method or
    property when code outside its own lines reads `.name`."""
    trees = {name: ast.parse(source) for name, source in modules.items()}
    every = {name: _references(tree) for name, tree in trees.items()}
    reads = {name: _references(tree, attributes_only=True) for name, tree in trees.items()}
    names_elsewhere, reads_elsewhere = set(), set()
    for source in elsewhere.values():
        tree = ast.parse(source)
        names_elsewhere.update(ref for _, ref in _references(tree))
        reads_elsewhere.update(ref for _, ref in _references(tree, attributes_only=True))
    found = []
    for name, tree in trees.items():
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            checks = [(node, node.name, every, names_elsewhere)]
            if isinstance(node, ast.ClassDef):
                checks += [
                    (method, f"{node.name}.{method.name}", reads, reads_elsewhere)
                    for method in node.body
                    if isinstance(method, (ast.FunctionDef, ast.AsyncFunctionDef))
                    and not method.name.startswith("_")
                ]
            for definition, label, refs, refs_elsewhere in checks:
                own = range(definition.lineno, definition.end_lineno + 1)
                if definition.name not in refs_elsewhere and not any(
                    ref == definition.name and (other != name or line not in own)
                    for other, module_refs in refs.items()
                    for line, ref in module_refs
                ):
                    found.append(f"{name}:{label}")
    return found


def test_unnamed_definitions_are_found():
    modules = {
        "a.py": '"""Prose names Prose and .hidden."""\n\ndef used():\n    pass\n\n'
        "def recurses():\n    return recurses()\n\n"
        "class Box:\n    def get(self):\n        return self.get()\n\n"
        "    def put(self):\n        pass\n\n"
        "    @property\n    def size(self):\n        return 0\n\n"
        "    def _private(self):\n        pass\n\n"
        "# Orphan() is only in a comment\nclass Orphan:\n    pass\n\n"
        "class Prose:\n    def hidden(self):\n        pass\n",
        "b.py": "from a import used\nclass Kept:\n    pass\n\nused()\nBox().put()\nput = 1\n",
    }
    elsewhere = {"bench.py": "import a\nKept\nx.size\nget()\n"}
    assert unnamed_definitions(modules, elsewhere) == [
        "a.py:recurses", "a.py:Box.get", "a.py:Orphan", "a.py:Prose", "a.py:Prose.hidden",
    ]


# public names no code calls that stay anyway, each with its reason
UNNAMED_ALLOWED = []


def test_every_definition_has_a_caller_outside_the_tests():
    """A function or class the package defines, or a public method or
    property of one of its classes, is called elsewhere in the package or in
    perfbench/; code only the tests call gets a real caller or goes. Only
    code counts: a docstring, a comment or a re-export from `__init__` is
    not a caller."""
    modules = {
        p.name: p.read_text(encoding="utf-8")
        for p in sorted(PACKAGE.glob("*.py"))
        if p.name != "__init__.py"
    }
    perfbench = Path(__file__).resolve().parent.parent / "perfbench"
    elsewhere = {p.name: p.read_text(encoding="utf-8") for p in sorted(perfbench.glob("*.py"))}
    assert unnamed_definitions(modules, elsewhere) == UNNAMED_ALLOWED


def unpassed_defaults(
    modules: dict[str, str], elsewhere: dict[str, str], public: bool = False
) -> list[str]:
    """`file:function(param)` for each defaulted parameter of a private
    function or method of `modules` (one leading underscore, not a dunder)
    that no call in `modules` or `elsewhere` passes, by keyword or by
    position. With `public`, the same for each public function or method and
    each `__init__`, which is labelled and called by its class name. Calls
    are matched on the called name (`f(...)`, `x.f(...)`); a method's
    positions skip `self`, and a call with `*args` or `**kwargs` passes
    every parameter."""
    trees = {name: ast.parse(source) for name, source in modules.items()}
    calls: dict[str, list[ast.Call]] = {}
    for tree in [*trees.values(), *map(ast.parse, elsewhere.values())]:
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                func = node.func
                called = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                calls.setdefault(called, []).append(node)
    found = []
    for name, tree in trees.items():
        owners = {
            id(f): cls.name
            for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef) for f in cls.body
            if isinstance(f, (ast.FunctionDef, ast.AsyncFunctionDef))
            and not any(getattr(d, "id", None) == "staticmethod" for d in f.decorator_list)
        }
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            called = node.name
            if node.name == "__init__" and public and id(node) in owners:
                called = owners[id(node)]
            elif node.name.startswith("_") == public or node.name.startswith("__"):
                continue
            args = node.args
            positional = [a.arg for a in args.posonlyargs + args.args][id(node) in owners:]
            first = len(positional) - len(args.defaults)
            defaulted = [(i, positional[i]) for i in range(first, len(positional))]
            defaulted += [
                (None, a.arg) for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None
            ]
            for i, param in defaulted:
                if not any(
                    any(k.arg in (param, None) for k in call.keywords)
                    or any(isinstance(a, ast.Starred) for a in call.args)
                    or (i is not None and len(call.args) > i)
                    for call in calls.get(called, ())
                ):
                    found.append(f"{name}:{called}({param})")
    return found


def test_unpassed_defaults_are_found():
    modules = {
        "a.py": "def _f(a, b=1, *, c=2, d=3):\n    pass\n\n"
        "def _g(a=1, b=2):\n    pass\n\n"
        "def __h__(a=1):\n    pass\n\n"
        "def public(a=1):\n    pass\n\n"
        "class Box:\n    def _m(self, a=1, b=2):\n        pass\n\n"
        "    @staticmethod\n    def _s(a=1):\n        pass\n\n"
        "    def _k(self, a=1):\n        pass\n\n"
        "_f(0, c=5)\nBox()._m(0)\nx._k(**kw)\n",
        "b.py": "from a import _g\n_g(*args)\n",
    }
    elsewhere = {"bench.py": "Box._s(1)\n"}
    assert unpassed_defaults(modules, elsewhere) == ["a.py:_f(b)", "a.py:_f(d)", "a.py:_m(b)"]
    modules = {
        "a.py": "def f(a, b=1, *, c=2):\n    pass\n\n"
        "def _g(a=1):\n    pass\n\n"
        "class Box:\n    def __init__(self, a=1, b=2):\n        pass\n\n"
        "    def get(self, k=0):\n        pass\n\n"
        "    def __eq__(self, other=None):\n        pass\n\n"
        "f(0, c=1)\nBox(0)\n",
    }
    elsewhere = {"bench.py": "Box(1).get(k=1)\n"}
    assert unpassed_defaults(modules, elsewhere, public=True) == ["a.py:f(b)", "a.py:Box(b)"]


def test_every_private_default_is_passed_somewhere():
    """A defaulted parameter of a private function that no caller in the
    package or perfbench/ passes is a knob nothing turns: the default is the
    only value it takes, so it goes."""
    modules = {p.name: p.read_text(encoding="utf-8") for p in sorted(PACKAGE.glob("*.py"))}
    perfbench = Path(__file__).resolve().parent.parent / "perfbench"
    elsewhere = {p.name: p.read_text(encoding="utf-8") for p in sorted(perfbench.glob("*.py"))}
    assert unpassed_defaults(modules, elsewhere) == []


# public defaults that no caller passes but that stay, each with its reason
PUBLIC_DEFAULTS_ALLOWED = {
    "agent.py:HttpChatPolicy(timeout)":
        "a library caller's slow endpoint may need longer than the 120 s default",
    "agent.py:HttpChatPolicy(headers)":
        "a library caller's endpoint that wants an API key reads it from a header",
    "cli.py:main(argv)": "`python -m adprep` calls main() so that argparse reads sys.argv",
    "synthesis.py:corrupt_table(attempts)":
        "bounds the draws per table; synthesize_task keeps the default",
    "tables.py:make_table(description)": "the table description a Schema holds, as its builder",
    "tables.py:table_from_csv_text(schema)":
        "types csv text by a known schema, as read_table(schema=) types a file",
}


def test_every_public_default_is_passed_somewhere():
    """The public twin of the check above: a defaulted parameter of a
    public function, method or `__init__` that no call in the package or
    perfbench/ passes is a knob only the tests turn, so it goes or is listed
    in PUBLIC_DEFAULTS_ALLOWED with its reason."""
    modules = {p.name: p.read_text(encoding="utf-8") for p in sorted(PACKAGE.glob("*.py"))}
    perfbench = Path(__file__).resolve().parent.parent / "perfbench"
    elsewhere = {p.name: p.read_text(encoding="utf-8") for p in sorted(perfbench.glob("*.py"))}
    found = unpassed_defaults(modules, elsewhere, public=True)
    assert sorted(found) == sorted(PUBLIC_DEFAULTS_ALLOWED)


def _lines_of(tree: ast.AST, path: str) -> set[int]:
    """The lines of the function at dotted `path` (nested defs) in `tree`."""
    for name in path.split("."):
        tree = next((node for node in tree.body
                     if isinstance(node, ast.FunctionDef) and node.name == name), None)
        if tree is None:
            return set()
    return set(range(tree.lineno, tree.end_lineno + 1))


def name_uses(modules: dict[str, str], word: str, allowed: tuple[str, str]) -> list[str]:
    """Lines of `modules` ({file name: source}) whose code names `word` (a
    name, an attribute or an import; prose does not count), outside the one
    function `allowed` names as (file name, dotted function path)."""
    found = []
    for name, source in modules.items():
        tree = ast.parse(source)
        allowed_lines = _lines_of(tree, allowed[1]) if name == allowed[0] else set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                names = [node.id]
            elif isinstance(node, ast.Attribute):
                names = [node.attr]
            elif isinstance(node, ast.alias):
                names = [node.name, node.asname or ""]
            else:
                continue
            if any(word in n for n in names) and node.lineno not in allowed_lines:
                found.append(f"{name}:{node.lineno}")
    return sorted(set(found))


def strptime_uses(modules: dict[str, str]) -> list[str]:
    """Lines of `modules` that name strptime outside expr.py's `_parse_date`,
    whose format comes from the user."""
    return name_uses(modules, "strptime", ("expr.py", "_parse_date"))


def strftime_uses(modules: dict[str, str]) -> list[str]:
    """Lines of `modules` that name strftime outside the fallback of
    expr.date_writer, which writes the directives it does not compile."""
    return name_uses(modules, "strftime", ("expr.py", "date_writer.fallback"))


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


def test_strftime_uses_are_found():
    modules = {
        "expr.py": "def date_writer(f):\n    def fallback(d):\n        return d.strftime(f)\n"
        "    return d.strftime(f)\n",
        "x.py": '"""strftime in prose."""\nfrom time import strftime\ndt.strftime("%Y")\n',
    }
    assert strftime_uses(modules) == ["expr.py:4", "x.py:2", "x.py:3"]


def test_dates_are_written_by_the_date_kernel_only():
    """strftime is called only in expr.date_writer's fallback, for the
    directives the kernel does not compile: the kernel is the one way to
    write a date."""
    modules = {p.name: p.read_text(encoding="utf-8") for p in sorted(PACKAGE.glob("*.py"))}
    assert strftime_uses(modules) == []


def test_the_grammar_is_read_in_expr_only():
    """expr's parser reads both call text and DSL text, and print_value
    writes every literal, so outside expr.py no module names the lexer's
    tokens, the finite-real check, the nesting cap or the string writer;
    agent.split_chain alone reads call tokens, to cut a chain at its arrows."""
    modules = {
        p.name: p.read_text(encoding="utf-8") for p in sorted(PACKAGE.glob("*.py")) if p.name != "expr.py"
    }
    assert name_uses(modules, "tokenize", ("agent.py", "split_chain")) == []
    for word in ("Token", "real_literal", "MAX_DEPTH", "_string_literal"):
        assert name_uses(modules, word, ("", "")) == [], word


# regex syntax that `re` takes only from Python 3.11: an atomic group or a
# possessive quantifier, as text and as the opcodes re's parser gives them
NEWER_REGEX = re.compile(r"\(\?>|[*+?}]\+")
NEWER_REGEX_OPCODES = {"ATOMIC_GROUP", "POSSESSIVE_REPEAT"}


def oldest_python() -> tuple[int, int]:
    """The oldest Python that pyproject.toml's requires-python admits."""
    text = (Path(__file__).parents[1] / "pyproject.toml").read_text(encoding="utf-8")
    major, minor = re.search(r'requires-python = ">=(\d+)\.(\d+)"', text).groups()
    return int(major), int(minor)


def newer_syntax(modules: dict[str, str], version: tuple[int, int]) -> list[str]:
    """Lines of `modules` that Python `version` cannot parse, and, below
    3.11, string literals holding regex syntax of 3.11."""
    found = []
    for name, source in modules.items():
        try:
            tree = ast.parse(source, feature_version=version)
        except SyntaxError as exc:
            found.append(f"{name}:{exc.lineno}")
            continue
        if version < (3, 11):
            found += [
                f"{name}:{node.lineno}" for node in ast.walk(tree)
                if isinstance(node, ast.Constant) and isinstance(node.value, str)
                and NEWER_REGEX.search(node.value)
            ]
    return sorted(set(found))


def regex_opcodes(node) -> set[str]:
    """The names of the opcodes in a regex as re's parser gives it."""
    if isinstance(node, regex_parser.SubPattern):
        node = node.data
    if isinstance(node, (list, tuple)):
        return set().union(*map(regex_opcodes, node))
    name = getattr(node, "name", None)
    return {name} if isinstance(node, int) and isinstance(name, str) else set()


def test_newer_syntax_is_found():
    modules = {"x.py": 'X = f"(?>{a})"\nY = "a*+"\ntry:\n    pass\nexcept* E:\n    pass\n'}
    # except* is 3.11 syntax; the parser names the line it stops at
    assert [line.split(":")[0] for line in newer_syntax(modules, (3, 10))] == ["x.py"]
    del modules["x.py"]
    modules["y.py"] = 'X = f"(?>{a})"\nY = "a*+"\nZ = "(?:a)b+"\n'
    assert newer_syntax(modules, (3, 10)) == ["y.py:1", "y.py:2"]
    assert newer_syntax(modules, (3, 11)) == []
    if sys.version_info >= (3, 11):
        assert regex_opcodes(regex_parser.parse("(?>a)|b*+")) >= NEWER_REGEX_OPCODES


def test_the_package_needs_no_newer_python():
    """Every module parses as the oldest Python that pyproject.toml admits,
    and the date readers' regexes use nothing that `re` takes only from
    3.11. It runs on any interpreter, in place of importing the package on
    the oldest one."""
    modules = {p.name: p.read_text(encoding="utf-8") for p in sorted(PACKAGE.glob("*.py"))}
    assert newer_syntax(modules, oldest_python()) == []
    for pattern in (*DATE_PATTERNS, *_ISO_FORMATS, CANONICAL_DATE):
        parsed = regex_parser.parse(_date_pattern(pattern)[0], re.IGNORECASE)
        assert regex_opcodes(parsed) & NEWER_REGEX_OPCODES == set(), pattern


def _is_python(exe: str, version: str) -> bool:
    """Whether `exe` starts and reports itself as Python `version`."""
    try:
        done = subprocess.run(
            [exe, "-c", "import sys; print('%d.%d' % sys.version_info[:2])"],
            capture_output=True, text=True, timeout=30,
        )
    except OSError:
        return False
    return done.returncode == 0 and done.stdout.strip() == version


def find_python(version: str) -> str | None:
    """An interpreter of Python `version`: `python<version>` on PATH if it
    runs (a pyenv shim of a version not selected does not), else the one in
    `pyenv prefix <version>`, or None."""
    candidates = [shutil.which(f"python{version}")]
    pyenv = shutil.which("pyenv")
    if pyenv is not None:
        done = subprocess.run([pyenv, "prefix", version], capture_output=True, text=True, timeout=30)
        if done.returncode == 0 and done.stdout.strip():
            prefix = done.stdout.strip().splitlines()[0]
            candidates.append(str(Path(prefix) / "bin" / f"python{version}"))
    return next((exe for exe in candidates if exe and _is_python(exe, version)), None)


def test_the_cli_runs_on_the_oldest_python(tmp_path):
    """synth, validate, run and score from the source tree on the oldest
    Python that pyproject.toml admits, each exiting 0, the gt policy at 100%."""
    version = "%d.%d" % oldest_python()
    exe = find_python(version)
    if exe is None:
        pytest.skip(f"no Python {version} interpreter on PATH or in pyenv")
    env = {**os.environ, "PYTHONPATH": str(PACKAGE.parent), "PYTHONDONTWRITEBYTECODE": "1"}

    def adprep_cli(*args: str) -> str:
        done = subprocess.run(
            [exe, "-m", "adprep", *args],
            cwd=tmp_path, env=env, capture_output=True, text=True, timeout=60,
        )
        assert done.returncode == 0, (args, done.stderr)
        return done.stdout

    adprep_cli("synth", "suite", "--tasks", "3", "--seed", "1")
    assert "3/3 bundles verify" in adprep_cli("validate", "suite")
    ran = json.loads(adprep_cli("run", "suite", "--policy", "gt", "--log-dir", "logs", "--json"))
    scored = json.loads(adprep_cli("score", "suite", "logs", "--json"))
    assert (ran["n_tasks"], ran["accuracy"]) == (scored["n_tasks"], scored["accuracy"]) == (3, 100.0)


# the functions allowed to write a file: the package's one writer, and the
# script file ExeCode hands to its subprocess
FILE_WRITERS = {("tables.py", "_write_text"), ("operators.py", "SubprocessScriptBackend.run")}
TEMP_FILES = {"NamedTemporaryFile", "TemporaryFile", "mkstemp"}


def _is_write(call: ast.Call) -> bool:
    """Whether `call` opens a file for writing: open() with a w, a, x or +
    mode (or a mode that is not a literal), os.open, .write_text,
    .write_bytes or a temporary file."""
    func = call.func
    name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
    if name in ("write_text", "write_bytes") and isinstance(func, ast.Attribute):
        return True
    if name in TEMP_FILES:
        return True
    if name != "open":
        return False
    owner = func.value.id if isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name) else None
    if owner == "os":
        return True
    # open(path, mode) and io.open(path, mode); a path's .open(mode)
    position = 1 if isinstance(func, ast.Name) or owner in ("io", "builtins") else 0
    modes = [k.value for k in call.keywords if k.arg == "mode"] or call.args[position : position + 1]
    if not modes:
        return False
    mode = modes[0]
    if not (isinstance(mode, ast.Constant) and isinstance(mode.value, str)):
        return True
    return any(c in mode.value for c in "wax+")


def file_writes(modules: dict[str, str]) -> list[str]:
    """Lines of `modules` ({file name: source}) that open a file for writing
    outside the FILE_WRITERS functions."""
    found = []
    for name, source in modules.items():
        tree = ast.parse(source)
        allowed = set()
        scopes = [(node, node.name) for node in tree.body if isinstance(node, ast.FunctionDef)]
        for node in tree.body:
            if isinstance(node, ast.ClassDef):
                scopes += [(f, f"{node.name}.{f.name}") for f in node.body if isinstance(f, ast.FunctionDef)]
        for node, qualname in scopes:
            if (name, qualname) in FILE_WRITERS:
                allowed.update(range(node.lineno, node.end_lineno + 1))
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and _is_write(node) and node.lineno not in allowed:
                found.append((name, node.lineno))
    return [f"{name}:{line}" for name, line in sorted(set(found))]


def test_file_writes_are_found():
    modules = {
        "tables.py": "def _write_text(p, t):\n    os.open(p, 1)\n",
        "x.py": 'open(p)\nopen(p, "rb")\nopen(p, "w")\nopen(p, mode="a")\nio.open(p, "r+")\n'
        'Path(p).open("x")\nPath(p).open()\nos.open(p, 0)\np.write_text("t")\np.write_bytes(b"")\n'
        'tempfile.NamedTemporaryFile(suffix=".py")\nopen(p, m)\n'
        'class SubprocessScriptBackend:\n    def run(self):\n        mkstemp()\n',
    }
    assert file_writes(modules) == [f"x.py:{n}" for n in (3, 4, 5, 6, 8, 9, 10, 11, 12, 15)]
    assert file_writes({"x.py": modules["tables.py"]}) == ["x.py:2"]


def test_files_are_written_by_the_one_writer_only():
    """Every file the package writes goes through tables._write_text, which
    rewrites a file in place; a second writer could bring back the
    truncate-to-zero flush it avoids."""
    modules = {p.name: p.read_text(encoding="utf-8") for p in sorted(PACKAGE.glob("*.py"))}
    assert file_writes(modules) == []


# modules only `--policy http`, ExeCode's subprocess backend and `run --threads`
# above 1 need; each is imported inside the one function that uses it
DEFERRED_MODULES = ("urllib.request", "http.client", "ssl", "subprocess", "concurrent.futures")

IMPORT_GUARD = """
import sys
from adprep import cli

def check(after):
    loaded = [m for m in DEFERRED if m in sys.modules]
    assert not loaded, f"{after} loaded {loaded}"

DEFERRED = sys.argv[1].split(",")
suite, logs = sys.argv[2:]
check("import adprep.cli")
for argv in (
    ["synth", suite, "--tasks", "3", "--seed", "1"],
    ["run", suite, "--policy", "gt", "--threads", "1", "--log-dir", logs],
    ["score", suite, logs],
):
    assert cli.main(argv) == 0, argv
    check(argv[0])
"""


def test_commands_import_only_what_they_use(tmp_path):
    """A fresh interpreter that imports the CLI, synthesizes a suite, runs
    the gt policy on it and scores the logs loads none of the network,
    process or thread-pool machinery that only other paths need."""
    env = {**os.environ, "PYTHONPATH": str(PACKAGE.parent)}
    done = subprocess.run(
        [sys.executable, "-c", IMPORT_GUARD, ",".join(DEFERRED_MODULES),
         str(tmp_path / "suite"), str(tmp_path / "logs")],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr[-2000:]


ROOT = Path(__file__).resolve().parent.parent


def documented_names(readme: str) -> set[str]:
    """The names in the first column of the table under README's "Library
    use": the public surface README documents."""
    section = re.search(r"^## Library use\n(.*?)(?=^## |\Z)", readme, re.DOTALL | re.M).group(1)
    return set(re.findall(r"^\| `(\w+)` \|", section, re.M))


def adprep_reads(readme: str, sources: dict[str, str]) -> list[tuple[str, str]]:
    """(where, X) for each `adprep.X` in a code block of `readme` or in the
    code of `sources` ({file name: source}), and each X imported by `from
    adprep import X`. README's python blocks are read as code, its other
    blocks as text."""
    blocks = {
        f"README.md block {i}": (lang, block)
        for i, (lang, block) in enumerate(re.findall(r"^```(\w*)\n(.*?)^```", readme, re.DOTALL | re.M))
    }
    found = [
        (where, x) for where, (lang, block) in blocks.items() if lang != "python"
        for x in re.findall(r"\badprep\.(\w+)", block)
    ]
    code = {**sources, **{where: block for where, (lang, block) in blocks.items() if lang == "python"}}
    for name, source in code.items():
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Attribute) and getattr(node.value, "id", None) == "adprep":
                found.append((name, node.attr))
            elif isinstance(node, ast.ImportFrom) and node.module == "adprep" and not node.level:
                found += [(name, alias.name) for alias in node.names]
    return found


def test_adprep_reads_and_documented_names_are_found():
    readme = (
        "## Library use\n\n```python\nimport adprep\nfrom adprep import Table, Gone\n"
        "adprep.tables.read_table\n```\n\n```text\n$ python -m adprep.cli\nadprep.Lost\n```\n\n"
        "| name | what it is |\n| --- | --- |\n| `Table` | a table |\n| `Hidden` | `Other` |\n\n"
        "## Next\n\n| `Outside` | not in the section |\n"
    )
    assert documented_names(readme) == {"Table", "Hidden"}
    sources = {"bench.py": '"""adprep.Prose"""\nimport adprep\nadprep.agent.parse_reply\n'
               "from adprep import tables, Missing\nfrom .adprep import Relative\n"}
    assert sorted(adprep_reads(readme, sources)) == [
        ("README.md block 0", "Gone"), ("README.md block 0", "Table"),
        ("README.md block 0", "tables"), ("README.md block 1", "Lost"),
        ("README.md block 1", "cli"), ("bench.py", "Missing"),
        ("bench.py", "agent"), ("bench.py", "tables"),
    ]


def test_the_package_exports_exactly_the_names_readme_documents():
    """`adprep.__all__`, the public names the package binds, and the first
    column of README's "Library use" table are one set of names; a name
    README does not document lives in its own module only."""
    exported = set(adprep.__all__)
    assert len(exported) == len(adprep.__all__)
    bound = {n for n, v in vars(adprep).items() if not n.startswith("_") and not inspect.ismodule(v)}
    documented = documented_names((ROOT / "README.md").read_text(encoding="utf-8"))
    assert sorted(exported - documented) == [], "exported, but not in README's table"
    assert sorted(documented - exported) == [], "in README's table, but not exported"
    assert bound == exported


def test_every_adprep_name_readme_and_perfbench_read_exists():
    """Each `adprep.X` that a README code block or perfbench/ reads is a
    submodule or an exported name, so trimming `__all__` cannot break an
    example or the benchmark."""
    sources = {p.name: p.read_text(encoding="utf-8") for p in sorted((ROOT / "perfbench").glob("*.py"))}
    modules = {p.stem for p in PACKAGE.glob("*.py")}
    reads = adprep_reads((ROOT / "README.md").read_text(encoding="utf-8"), sources)
    assert reads
    assert [(where, x) for where, x in reads if x not in modules and x not in adprep.__all__] == []
