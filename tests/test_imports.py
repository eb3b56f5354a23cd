"""Every module of the package (but ``__init__.py``, which re-exports)
and every test module uses each name it imports, every public definition
and every defaulted parameter of the package has a user outside the
tests, and importing the package loads no heavy module."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import mapglue

PACKAGE = Path(mapglue.__file__).parent
BENCH = Path(__file__).parent.parent / "bench"
MODULES = sorted([p for p in PACKAGE.glob("*.py") if p.name != "__init__.py"]
                 + list(Path(__file__).parent.glob("*.py")))


def _imported(tree: ast.Module) -> dict[str, int]:
    """The names that the imports of ``tree`` bind, with their lines."""
    out = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                # "import a.b" binds a
                name = alias.asname or alias.name.split(".")[0]
                out[name] = node.lineno
    return out


def _used(tree: ast.Module) -> set[str]:
    """The names that ``tree`` reads, also inside quoted annotations."""
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        for ann in (getattr(node, "annotation", None),
                    getattr(node, "returns", None)):
            for c in ast.walk(ann) if ann is not None else ():
                # a quoted annotation such as "PlanarMap | None"
                if isinstance(c, ast.Constant) and isinstance(c.value, str):
                    used.update(n.id for n in ast.walk(ast.parse(c.value))
                                if isinstance(n, ast.Name))
    return used


def test_modules_are_found():
    names = {p.name for p in MODULES}
    assert {"maps.py", "cli.py", "test_maps.py", "test_imports.py",
            "relabelling.py"} <= names


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_import(path):
    tree = ast.parse(path.read_text(), str(path))
    unused = sorted((line, name) for name, line in _imported(tree).items()
                    if name not in _used(tree))
    assert not unused, f"{path.name}: unused imports {unused}"


# Public definitions that only the tests reach, each kept for a reason.
TEST_ONLY = {
    "brute_count_forest": "the count_forest oracle; the counts suite is "
                          "to call it (ROADMAP item 10)",
    "ChiSquareReport.passed": "criterion 10's uniformity threshold; the "
                              "library reports the p-value itself",
}


def _reached(node: ast.AST) -> set[str]:
    """The names that ``node`` reads, takes as attributes or imports."""
    out = _used(node)
    for n in ast.walk(node):
        if isinstance(n, ast.Attribute):
            out.add(n.attr)
        elif isinstance(n, ast.alias):
            out.add(n.name)
    return out


def _parts(stmt: ast.stmt) -> list[tuple[ast.AST, str | None]]:
    """The parts of a top-level statement whose uses are collected apart,
    each with the name it defines (None when it defines none): the
    statement itself, or for a class its bases, keywords and decorators
    and each statement of its body, so that a method is not its own
    user."""
    if not isinstance(stmt, ast.ClassDef):
        return [(stmt, getattr(stmt, "name", None))]
    header = stmt.bases + stmt.keywords + stmt.decorator_list
    return [(n, None) for n in header] + [
        (n, getattr(n, "name", None)) for n in stmt.body]


def test_every_public_definition_has_a_user():
    """Each public top-level function and class of the package, and each
    public method and property of a public class, is used outside its own
    definition, in the package (``__init__.py`` counts, so an export is a
    use) or in the bench, unless TEST_ONLY names it.  A class using its own
    name does not count; methods are matched by bare name, so a method is
    taken as used whenever a method of the same name on another class is
    (``BubbleMap.dart_count`` passes on ``PlanarMap.dart_count``'s users;
    SHARED_NAMES lists each such name with a user of every definition)."""
    assert BENCH.is_dir()
    defined, reached = set(), set()
    for path in sorted(PACKAGE.glob("*.py")) + sorted(BENCH.glob("*.py")):
        for stmt in ast.parse(path.read_text(), str(path)).body:
            owner = getattr(stmt, "name", None)
            public = (path.parent == PACKAGE and owner is not None
                      and not owner.startswith("_"))
            if public:
                defined.add(owner)
            for node, name in _parts(stmt):
                if (public and isinstance(stmt, ast.ClassDef) and name
                        and not name.startswith("_")):
                    defined.add(f"{owner}.{name}")
                reached |= _reached(node) - {owner, name}
    unused = {n for n in defined if n.rpartition(".")[2] not in reached}
    assert not sorted(unused - set(TEST_ONLY)), "no user"
    assert sorted(set(TEST_ONLY) - unused) == [], \
        "TEST_ONLY names a definition that is gone or has a user"


# The public method and property names that two or more public classes
# define, each with a user in the package of every class's definition, as
# ``module.function`` or ``module.Class.method``: the test above matches
# methods by bare name, so it cannot tell these definitions apart.
SHARED_NAMES = {
    "dart_count": {"PlanarMap": "sampler.export_decorated",
                   "BubbleMap": "bubbles.Circuit.__post_init__"},
}


def _definition(dotted: str) -> ast.AST:
    module, *names = dotted.split(".")
    node = ast.parse((PACKAGE / f"{module}.py").read_text())
    for name in names:
        node = next(n for n in node.body if getattr(n, "name", None) == name)
    return node


def test_shared_member_names_are_reviewed():
    """Every method or property name that two public classes of the
    package define is in SHARED_NAMES, with the classes that define it,
    and each user named there reads the name."""
    shared: dict[str, set[str]] = {}
    for path in sorted(PACKAGE.glob("*.py")):
        for stmt in ast.parse(path.read_text(), str(path)).body:
            if (isinstance(stmt, ast.ClassDef)
                    and not stmt.name.startswith("_")):
                for n in stmt.body:
                    if (isinstance(n, ast.FunctionDef)
                            and not n.name.startswith("_")):
                        shared.setdefault(n.name, set()).add(stmt.name)
    assert {name: classes for name, classes in shared.items()
            if len(classes) > 1} == {name: set(users) for name, users
                                     in SHARED_NAMES.items()}
    for name, users in SHARED_NAMES.items():
        for user in users.values():
            assert name in {n.attr for n in ast.walk(_definition(user))
                            if isinstance(n, ast.Attribute)}, user


# Defaulted parameters that only the tests pass, each kept for a reason.
TEST_ONLY_PARAMETERS = {
    "main.argv": "the tests drive the CLI in process",
    "brute_count_decorated.e": "criterion 6's general-map oracle",
    "tree_marginal_test.drawn": "criterion 10 reuses its draws",
}


def _defaulted(path: Path):
    """``(function name, parameter name, positional index or None)`` for
    each defaulted parameter of the public functions of ``path`` and the
    public methods of its public classes.  The index counts the arguments
    a call passes, so a method's ``self`` or ``cls`` is not counted (the
    package has no static method)."""
    for stmt in ast.parse(path.read_text(), str(path)).body:
        if isinstance(stmt, ast.FunctionDef):
            funcs = [(stmt, 0)]
        elif isinstance(stmt, ast.ClassDef) and not stmt.name.startswith("_"):
            funcs = [(n, 1) for n in stmt.body
                     if isinstance(n, ast.FunctionDef)]
        else:
            continue
        for fn, skip in funcs:
            if fn.name.startswith("_"):
                continue
            args = fn.args
            positional = args.posonlyargs + args.args
            first = len(positional) - len(args.defaults)
            for i, arg in enumerate(positional[first:], first):
                yield fn.name, arg.arg, i - skip
            for arg, default in zip(args.kwonlyargs, args.kw_defaults):
                if default is not None:
                    yield fn.name, arg.arg, None


def _callee(func: ast.expr) -> str | None:
    return getattr(func, "id", None) or getattr(func, "attr", None)


def _passed(tree: ast.Module) -> set[tuple[str, str | int]]:
    """``(callee, keyword)`` and ``(callee, positional index)`` for each
    argument a call in ``tree`` passes, ``"*"`` and ``"**"`` standing for
    unpacked arguments; the bench's ``tr.call(name, fn, *args)`` is a call
    of ``fn``."""
    out = set()
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        name, args = _callee(node.func), node.args
        if name == "call" and len(args) >= 2:
            name, args = _callee(args[1]), args[2:]
        for i, arg in enumerate(args):
            out.add((name, "*" if isinstance(arg, ast.Starred) else i))
        for kw in node.keywords:
            out.add((name, kw.arg or "**"))
    return out


def test_every_defaulted_parameter_has_a_user():
    """Each defaulted parameter of a public function or method of the
    package is passed, by position or by keyword, by some call in the
    package or the bench, unless TEST_ONLY_PARAMETERS names it.
    Functions are matched by bare name, and a call that unpacks ``*args``
    or ``**kwargs`` passes every parameter of its kind."""
    passed = set()
    for path in sorted(PACKAGE.glob("*.py")) + sorted(BENCH.glob("*.py")):
        passed |= _passed(ast.parse(path.read_text(), str(path)))
    unused = set()
    for path in sorted(PACKAGE.glob("*.py")):
        for fn, param, index in _defaulted(path):
            keys = {param, "**"} | ({index, "*"} if index is not None
                                    else set())
            if not any((fn, k) in passed for k in keys):
                unused.add(f"{fn}.{param}")
    assert not sorted(unused - set(TEST_ONLY_PARAMETERS)), "never passed"
    assert sorted(set(TEST_ONLY_PARAMETERS) - unused) == [], \
        "TEST_ONLY_PARAMETERS names a parameter that is gone or passed"


# Each of these adds megabytes to the resident memory of every process
# that imports mapglue: hashlib loads OpenSSL, and scipy (with numpy) is
# imported only inside tree_marginal_test.
HEAVY = ("hashlib", "_hashlib", "scipy", "numpy")


def test_import_loads_no_heavy_module():
    code = ("import sys\n"
            "import mapglue, mapglue.cli, mapglue.verify\n"
            f"print(sorted(m for m in {HEAVY!r} if m in sys.modules))\n")
    env = {**os.environ, "PYTHONPATH": str(PACKAGE.parent)}
    done = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, check=True)
    assert done.stdout.strip() == "[]"


def test_a_sample_draw_loads_no_hashlib():
    """The sampler's digests come from the builtin ``_sha256``: one
    ``sample`` draw leaves hashlib (and OpenSSL) unloaded."""
    code = ("import io, sys\n"
            "import mapglue, mapglue.cli\n"
            "sys.stdout = io.StringIO()\n"
            "code = mapglue.cli.main(['sample', '--q', '4', '--faces', '1', "
            "'--tree-edges', '1', '--seed', '1', '--count', '1'])\n"
            "text, sys.stdout = sys.stdout.getvalue(), sys.__stdout__\n"
            "print(code, text.startswith('decorated '), sorted(m for m in "
            "('hashlib', '_hashlib') if m in sys.modules))\n")
    env = {**os.environ, "PYTHONPATH": str(PACKAGE.parent)}
    env.pop("MAPGLUE_CATALOG_DIR", None)
    done = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, check=True)
    assert done.stdout.strip() == "0 True []"
