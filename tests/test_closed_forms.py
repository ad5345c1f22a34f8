"""The committed closed forms for n = 5..8 in ``closed_forms.json``.

No published formula exists beyond n = 4, so each polynomial is checked
against both degree routes at sample nodes, against the reciprocity
P(-4-d) = (-1)^n P(d) as a polynomial identity, and against the factor
d(d+1)(d+2)(d+3)(d+4) that both published forms have.  The stored forms,
with the published P_3 and P_4, are also checked without recomputing any
degree: the leading coefficient against the Pluecker degree, and integer
positive values on a range of d.
"""

import json
from fractions import Fraction
from math import factorial
from pathlib import Path

import pytest

from lpbdeg.exact import UniPoly
from lpbdeg.foliation import METHOD_BOTH, closed_form, degree_lpb, reference_polynomial
from lpbdeg.grassmann import GrassContext

DATA = json.loads((Path(__file__).parent / "closed_forms.json").read_text())["coefficients"]


def _poly(n: int) -> UniPoly:
    return UniPoly(Fraction(c) for c in DATA[str(n)])


def _stored(n: int) -> UniPoly:
    """The published P_3 and P_4, and the committed P_5 .. P_8."""
    return reference_polynomial(n) if n < 5 else _poly(n)


def _mirrored(poly: UniPoly) -> UniPoly:
    """``poly(-4 - d)`` as a polynomial in d."""
    arg = UniPoly((-4, -1))
    out = UniPoly()
    for c in reversed(poly.coeffs):
        out = out * arg + UniPoly.constant(c)
    return out


def test_data_covers_n_5_to_8():
    assert sorted(DATA, key=int) == ["5", "6", "7", "8"]
    for n in range(5, 9):
        assert _poly(n).degree == 9 * (n - 2)


@pytest.mark.parametrize("n", [5, 6, 7, 8])
def test_closed_form_matches_both_routes(n):
    poly = _poly(n)
    for d in (2, 3):
        assert poly(d) == degree_lpb(d, n, method=METHOD_BOTH)


@pytest.mark.parametrize("n", [5, 6, 7, 8])
def test_closed_form_is_reciprocal(n):
    poly = _poly(n)
    assert _mirrored(poly) == poly * (-1) ** n


@pytest.mark.parametrize("n", [5, 6, 7, 8])
def test_closed_form_has_the_factor_d_to_d_plus_4(n):
    poly = _poly(n)
    assert all(poly(-k) == 0 for k in range(5))


def test_n5_entry_matches_a_fresh_closed_form():
    assert closed_form(5) == _poly(5)


@pytest.mark.parametrize("n", [3, 4, 5, 6, 7, 8])
def test_stored_form_leads_with_the_plucker_degree(n):
    # the coefficient of d^(3g) is deg G(3, n + 1) / (3^g g!), with g = 3(n - 2)
    g = 3 * (n - 2)
    lead = _stored(n).coeffs[3 * g]
    assert lead == Fraction(GrassContext(3, n + 1).plucker_degree(), 3**g * factorial(g))
    assert lead == Fraction(2, 3**g * factorial(n - 2) * factorial(n - 1) * factorial(n))


@pytest.mark.parametrize("n", [3, 4, 5, 6, 7, 8])
def test_stored_form_is_a_positive_integer_on_d_2_to_40(n):
    poly = _stored(n)
    for d in range(2, 41):
        value = poly(d)
        assert value.denominator == 1 and value > 0, d
