"""Every function, method and class of the package has a caller outside the tests.

A stdlib ``ast`` scan: a function, method or class defined in ``src/lpbdeg``
(dunders aside) counts as called when its name is read anywhere in ``src/``
or ``perfbench/`` outside its own definition, as a name or an attribute, or
when it is listed in ``lpbdeg.__all__``.  A name that only the tests read is
public API carried for the tests alone; it goes, or it is listed below with
its reason.
"""

import ast
from collections import Counter
from pathlib import Path

import lpbdeg

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = sorted((ROOT / "src" / "lpbdeg").glob("*.py"))
CALLERS = [*PACKAGE, *sorted((ROOT / "perfbench").glob("*.py"))]

TEST_ONLY = {
    # sparse.diff: the partial derivative the forms tests build their curl
    # oracle from, against the derivative gathers of the integrability table
    "diff",
    # Packing.pack_terms: packs exponent-tuple dicts, the kernel tests' operands
    "pack_terms",
    # TruncatedPoly.is_zero and ProjectiveOneForm.is_zero: what the tests assert
    "is_zero",
}


def _read(node):
    """Every name read in the subtree, as a name or as an attribute."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            yield sub.id
        elif isinstance(sub, ast.Attribute):
            yield sub.attr


def _definitions(tree):
    """(name, line, node) of every function, method and class, dunders aside."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            if not (node.name.startswith("__") and node.name.endswith("__")):
                yield node.name, node.lineno, node


def _uncalled(package, callers, exported):
    """``name (label:line)`` of each definition in ``package`` that no caller reads.

    ``package`` and ``callers`` map a label to a parsed module; the modules
    of ``package`` are callers too.
    """
    reads = Counter(name for tree in callers.values() for name in _read(tree))
    return [
        f"{name} ({label}:{line})"
        for label, tree in package.items()
        for name, line, node in _definitions(tree)
        # reads inside the definition itself, a recursive call say, do not count
        if name not in exported and reads[name] == Counter(_read(node))[name]
    ]


def _parse(paths):
    return {str(p.relative_to(ROOT)): ast.parse(p.read_text(), filename=str(p)) for p in paths}


def test_every_definition_has_a_caller_outside_the_tests():
    uncalled = _uncalled(_parse(PACKAGE), _parse(CALLERS), set(lpbdeg.__all__))
    assert [u for u in uncalled if u.split()[0] not in TEST_ONLY] == []
    # and the allowlist names only definitions that still have no caller
    assert {u.split()[0] for u in uncalled} == TEST_ONLY


def test_the_scan_sees_an_uncalled_definition():
    package = {
        "m": ast.parse(
            "def used(): return 1\n"
            "def recursive(n): return recursive(n - 1) if n else 0\n"
            "def exported(): pass\n"
            "class Box:\n"
            "    def __init__(self): self.x = used()\n"
            "    def method(self): pass\n"
            "    def called(self): pass\n"
        )
    }
    callers = {**package, "bench": ast.parse("Box().called()\n")}
    assert _uncalled(package, callers, {"exported"}) == ["recursive (m:2)", "method (m:6)"]
