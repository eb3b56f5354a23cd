"""Every module of the package (but ``__init__.py``, which re-exports)
and every test module uses each name it imports."""

import ast
from pathlib import Path

import pytest

import mapglue

PACKAGE = Path(mapglue.__file__).parent
MODULES = sorted([p for p in PACKAGE.glob("*.py") if p.name != "__init__.py"]
                 + list(Path(__file__).parent.glob("test_*.py")))


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
    assert {"maps.py", "cli.py", "test_maps.py", "test_imports.py"} <= names


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_import(path):
    tree = ast.parse(path.read_text(), str(path))
    unused = sorted((line, name) for name, line in _imported(tree).items()
                    if name not in _used(tree))
    assert not unused, f"{path.name}: unused imports {unused}"
