"""The committed closed forms for n = 5..8 in ``closed_forms.json``.

No published formula exists beyond n = 4, so each polynomial is checked
against both degree routes at sample nodes, against the reciprocity
P(-4-d) = (-1)^n P(d) as a polynomial identity, and against the factor
d(d+1)(d+2)(d+3)(d+4) that both published forms have.  The stored forms,
with the published P_3 and P_4, are also checked without recomputing any
degree: the leading coefficient against the Pluecker degree, the next
two coefficients in N = d + 2 against the Schubert ratio (n - 1)/(3n - 7),
and integer positive values on a range of d.
"""

import json
from fractions import Fraction
from math import comb, factorial
from pathlib import Path

import pytest

from lpbdeg.exact import UniPoly
from lpbdeg.foliation import METHOD_BOTH, closed_form, degree_lpb, reference_polynomial
from lpbdeg.grassmann import GrassContext
from ring_helpers import e1_power, elementary

DATA = json.loads((Path(__file__).parent / "closed_forms.json").read_text())["coefficients"]


def _poly(n: int) -> UniPoly:
    return UniPoly(Fraction(c) for c in DATA[str(n)])


def _stored(n: int) -> UniPoly:
    """The published P_3 and P_4, and the committed P_5 .. P_8."""
    return reference_polynomial(n) if n < 5 else _poly(n)


def _composed(poly: UniPoly, arg: UniPoly) -> UniPoly:
    """``poly(arg)`` as a polynomial, by Horner's rule."""
    out = UniPoly()
    for c in reversed(poly.coeffs):
        out = out * arg + UniPoly.constant(c)
    return out


def _mirrored(poly: UniPoly) -> UniPoly:
    """``poly(-4 - d)`` as a polynomial in d."""
    return _composed(poly, UniPoly((-4, -1)))


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


@pytest.mark.parametrize("n", [3, 4, 5, 6, 7, 8])
def test_stored_form_in_n_has_no_second_term_and_a_known_third(n):
    # in N = d + 2 the reciprocity makes P_n even or odd, so N^(3g - 1) is
    # absent, and the N^(3g - 2) term is g (3n - 11) / 2 times the leading one
    g = 3 * (n - 2)
    in_n = _composed(_stored(n), UniPoly((-2, 1)))
    lead = in_n.coeffs[3 * g]
    assert in_n.coeffs[3 * g - 1] == 0
    assert in_n.coeffs[3 * g - 2] == Fraction(g * (3 * n - 11), 2) * lead
    assert in_n.coeffs[3 * g - 2] / lead == [-3, 3, 18, 42, 75, 117][n - 3]


@pytest.mark.parametrize("n", [3, 4, 5, 6, 7, 8])
def test_schubert_ratio_behind_the_third_term(n):
    # the ratio that collapses the N^(3g - 2) coefficient to g (3n - 11) / 2
    ctx = GrassContext(3, n + 1)
    g = ctx.g
    e2_e1 = ctx.integrate(elementary(ctx.ring, 2) * e1_power(ctx.ring, g - 2))
    assert Fraction(e2_e1, ctx.integrate(e1_power(ctx.ring, g))) == Fraction(n - 1, 3 * n - 7)


def _h_vector(poly: UniPoly, g: int) -> list[Fraction]:
    """h_0 .. h_D of ``sum_d P(d) z^d = h(z) / (1 - z)^(D+1)``, D = 3g.

    ``h_t = sum_j (-1)^j C(D+1, j) P(t - j)``, the sum stopping at j = t
    since the series starts at d = 0 (Stanley, *Enumerative Combinatorics*
    I, section 4.3).
    """
    top = 3 * g
    return [sum((-1) ** j * comb(top + 1, j) * poly(t - j) for j in range(t + 1)) for t in range(top + 1)]


@pytest.mark.parametrize("n", [3, 4, 5, 6, 7, 8])
def test_h_vector_is_integral_palindromic_and_supported_on_1_to_3g_minus_4(n):
    g = 3 * (n - 2)
    poly = _stored(n)
    h = _h_vector(poly, g)
    assert all(c.denominator == 1 for c in h)
    # support and palindrome: the zeros at d = 0 .. -4 and the reciprocity
    # P(-4 - d) = (-1)^n P(d)
    assert h[0] == 0
    assert all(c == 0 for c in h[3 * g - 3 :])
    assert all(h[t] == h[3 * g - 3 - t] for t in range(3 * g - 2))
    assert sum(h) == factorial(3 * g) * poly.coeffs[3 * g]
    # observed on the stored data, not proved
    assert all(c > 0 for c in h[1 : 3 * g - 3])


def test_h_vector_of_p3():
    assert _h_vector(_stored(3), 3)[1:6] == [40 * c for c in (2, 13, 26, 13, 2)]
