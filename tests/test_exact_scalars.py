"""No module but :mod:`lpbdeg.exact` converts a scalar with ``Fraction(x)``.

``Fraction`` of one argument accepts a float, a ``Decimal`` or a string and
returns a value that looks exact, which is how inexact input used to slip
past the scalar check.  Every incoming scalar goes through
``exact.normalize`` instead.  This stdlib ``ast`` scan fails on each
one-argument ``Fraction(...)`` call in the package, outside ``exact.py``,
whose argument is not an integer literal; ``Fraction(a, b)`` of two
arguments refuses floats itself and is allowed.

A ``bool`` is an ``int`` to Python, and ``True`` would print where a 1
belongs, so it is refused as a scalar and as an exponent too.
"""

import ast
from fractions import Fraction
from pathlib import Path

import pytest

from lpbdeg.exact import UniPoly, lagrange_interpolate, normalize
from lpbdeg.forms import ProjectiveOneForm
from lpbdeg.polyring import TruncatedPoly, power_sums, product_shifted_linear
from lpbdeg.sparse import Packing

ROOT = Path(__file__).resolve().parents[1]
MODULES = sorted(p for p in (ROOT / "src" / "lpbdeg").glob("*.py") if p.name != "exact.py")


def _is_int_literal(node):
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
        node = node.operand
    return isinstance(node, ast.Constant) and type(node.value) is int


def _conversions(tree):
    """Line of every one-argument ``Fraction`` call on a non-literal."""
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
        args = [*node.args, *(kw.value for kw in node.keywords)]
        if name == "Fraction" and len(args) == 1 and not _is_int_literal(args[0]):
            yield node.lineno


@pytest.mark.parametrize("path", MODULES, ids=lambda p: str(p.relative_to(ROOT)))
def test_no_one_argument_fraction_conversion(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    assert [f"line {line}" for line in _conversions(tree)] == []


def test_the_scan_sees_a_conversion():
    source = "Fraction(c)\nFraction(1)\nFraction(-2)\nFraction(a, b)\nfractions.Fraction(0.5)\nFraction(numerator=x)\n"
    assert list(_conversions(ast.parse(source))) == [1, 5, 6]


@pytest.mark.parametrize(
    "make",
    [
        lambda: normalize(True),
        lambda: normalize(False),
        lambda: UniPoly((True, 2)),
        lambda: UniPoly((1, 2))(True),
        lambda: lagrange_interpolate([(0, True)]),
        lambda: lagrange_interpolate([(True, 1)]),
        lambda: TruncatedPoly(Packing(1, 2, 2), {(1,): True}),
        lambda: TruncatedPoly.one(Packing(2, 2, 2)).scale(True),
        lambda: ProjectiveOneForm(2, 0, ({(1, 0, 0): True}, {}, {})),
    ],
    ids=["normalize-true", "normalize-false", "unipoly", "unipoly-call", "value", "node", "class", "scale", "form"],
)
def test_a_bool_is_not_an_exact_scalar(make):
    with pytest.raises(ValueError, match="not an exact scalar"):
        make()


def test_a_bool_is_not_an_exponent():
    with pytest.raises(ValueError, match="non-integer exponent"):
        TruncatedPoly(Packing(2, 2, 2), {(True, 0): 1, (0, True): 1})
    with pytest.raises(ValueError, match=r"bad exponent \(True, 0, 0\)"):
        ProjectiveOneForm(2, 0, ({(True, 0, 0): 1}, {}, {}))
    # an int exponent beside a bad one in the same coefficient
    with pytest.raises(ValueError, match=r"bad exponent \(0, 1, False\)"):
        ProjectiveOneForm(2, 0, ({(1, 0, 0): 1, (0, 1, False): 1}, {}, {}))
    # (True, 0) would pack to the key of (1, 0)
    for expo in ((True, 0), (0, False), (1.0, 0)):
        with pytest.raises(ValueError, match="is not an int"):
            Packing(2, 3).pack(expo)


@pytest.mark.parametrize(
    "roots",
    [
        {(1, 0): 1.5, (0, 1): 1.5},
        {(1, 0): Fraction(3, 2), (0, 1): Fraction(3, 2)},
        {(1, 0): True, (0, 1): True},
        {(True, False): 1, (False, True): 1},
        {(True, False): True, (False, True): True},
        {(1.0, 0): 1, (0, 1.0): 1},
    ],
    ids=["float-multiplicity", "fraction-multiplicity", "bool-multiplicity", "bool-form", "bool-both", "float-form"],
)
def test_roots_are_int_forms_with_int_multiplicities(roots):
    ring = Packing(2, 2, 2)
    with pytest.raises(ValueError, match="must be integers"):
        power_sums(roots, ring, 2)
    with pytest.raises(ValueError, match="must be integers"):
        product_shifted_linear(roots, ring)
