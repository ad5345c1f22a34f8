"""Every name a module imports is used in that module.

A stdlib ``ast`` scan of the package and of the test suite: a name bound by
an ``import`` counts as used when it is read anywhere in the module or
listed in the module's ``__all__``.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
MODULES = sorted([*(ROOT / "src" / "lpbdeg").glob("*.py"), *(ROOT / "tests").glob("*.py")])


def _imported(tree):
    """(name, line) of every name bound by an import, ``__future__`` aside."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                if alias.name != "*":
                    yield alias.asname or alias.name, node.lineno


def _used(tree):
    """Every name the module reads, and the names in its ``__all__``."""
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used.update(ast.literal_eval(node.value))
    return used


@pytest.mark.parametrize("path", MODULES, ids=lambda p: str(p.relative_to(ROOT)))
def test_every_imported_name_is_used(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    used = _used(tree)
    unused = [f"{name} (line {line})" for name, line in _imported(tree) if name not in used]
    assert unused == []


def test_the_scan_sees_an_unused_import():
    tree = ast.parse("import os\nfrom typing import Iterable, Sequence\n\nx: Sequence[int] = []\n")
    used = _used(tree)
    assert [name for name, _ in _imported(tree) if name not in used] == ["os", "Iterable"]
