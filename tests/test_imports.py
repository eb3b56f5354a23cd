"""Every module of the package (but ``__init__.py``, which re-exports)
and every test module uses each name it imports, every public definition
of the package has a user outside the tests, and importing the package
loads no heavy module."""

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
    "bubble_rerooted": "criterion 7's rooted-anywhere oracle (ROADMAP "
                       "item 1)",
    "bubble_canonical_key": "criterion 7's rooted-anywhere oracle "
                            "(ROADMAP item 1)",
    "forest_to_line": "the forest record, whose fate ROADMAP item 9 "
                      "decides",
    "forest_from_line": "the forest record, whose fate ROADMAP item 9 "
                        "decides",
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
    name does not count; methods are matched by bare name."""
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
