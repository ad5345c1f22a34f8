"""The exponent box of the Grassmannian ring, against unboxed oracles.

Over G(3, m) every class is computed in ``Q[x] / (deg > cap, x_i^m)``.
Each boxed operation must equal the unboxed one with the monomials that
have an exponent above ``m - 1`` removed.  The oracles below run in the
unboxed ring and live only here.
"""

from collections import Counter
from fractions import Fraction
from itertools import permutations
from math import factorial

from hypothesis import given
from hypothesis import strategies as st

from lpbdeg import sparse
from lpbdeg.bundles import (
    Minus,
    Plus,
    Sym,
    TAUT,
    Tensor,
    chern_character_graded,
    chern_roots,
    dual,
    total_segre,
)
from lpbdeg.foliation import METHOD_CH_PARTITION, METHOD_CHERN_QUOTIENT, degree_lpb, pullback_forms_bundle
from lpbdeg.grassmann import GrassContext
from lpbdeg.polyring import TruncatedPoly, inverse_unit_series, product_shifted_linear
from lpbdeg.sparse import Packing
from permutation_helpers import orbits_of

coeffs = st.integers(min_value=-6, max_value=6)


def _in_box(p, box):
    """``p`` with every term that has an exponent above ``box`` removed."""
    kept = {e: c for e, c in p.sorted_terms() if max(e) <= box}
    return TruncatedPoly(p.nvars, p.cap, kept, box=box)


@st.composite
def grass_rings(draw):
    """(ctx, cap): a G(3, m) with m = 4..7 and a cap up to its dimension."""
    ctx = GrassContext(3, draw(st.integers(4, 7)))
    return ctx, draw(st.integers(0, ctx.g))


@st.composite
def unboxed_polys(draw, cap):
    terms = {}
    for _ in range(draw(st.integers(0, 6))):
        expo = tuple(draw(st.integers(0, cap)) for _ in range(3))
        c = draw(coeffs)
        for image in set(permutations(expo)):
            terms[image] = terms.get(image, 0) + c
    return TruncatedPoly(3, cap, terms)


@given(grass_rings(), st.data())
def test_boxed_product_drops_only_out_of_box_terms(case, data):
    ctx, cap = case
    p, q = data.draw(unboxed_polys(cap)), data.draw(unboxed_polys(cap))
    boxed_p, boxed_q = _in_box(p, ctx.box), _in_box(q, ctx.box)
    assert boxed_p * boxed_q == _in_box(p * q, ctx.box)
    assert boxed_p**3 == _in_box(p**3, ctx.box)


@given(grass_rings(), st.data())
def test_boxed_inverse_drops_only_out_of_box_terms(case, data):
    ctx, cap = case
    p = data.draw(unboxed_polys(cap))
    unit = p - TruncatedPoly.constant(3, cap, p.constant_term() - 1)
    assert inverse_unit_series(_in_box(unit, ctx.box)) == _in_box(inverse_unit_series(unit), ctx.box)


@given(grass_rings(), st.lists(st.tuples(coeffs, coeffs, coeffs), max_size=6))
def test_boxed_chern_product_drops_only_out_of_box_terms(case, forms):
    ctx, cap = case
    roots = Counter(orbits_of(forms))
    boxed = product_shifted_linear(roots, cap, 3, box=ctx.box)
    assert boxed == _in_box(product_shifted_linear(roots, cap, 3), ctx.box)


def test_moment_table_lists_only_monomials_in_the_box():
    # over G(3, 8) the top grade keeps 28 of its C(17, 2) = 136 monomials
    ctx = GrassContext(3, 8)
    boxed = sparse.monomial_tree(Packing(3, ctx.g, ctx.box))
    assert len(boxed[-1][1]) == 28
    assert len(sparse.monomial_tree(Packing(3, ctx.g, ctx.g))[-1][1]) == 136
    assert all(max(Packing(3, ctx.g).unpack(k)) <= ctx.box for _, keys, _ in boxed for k in keys)


exprs = st.sampled_from(
    [
        TAUT,
        dual(TAUT),
        Sym(2, dual(TAUT)),
        Plus(TAUT, dual(TAUT)),
        Minus(Sym(2, dual(TAUT)), TAUT),
        Minus(Tensor(Sym(2, TAUT), TAUT), Sym(3, TAUT)),
    ]
)


def _character_unboxed(expr, ctx, degree, cap):
    """Sum of signed powers of the roots over degree!, multiplied out."""
    ring = Packing(3, cap, cap)
    total = {}
    for form, m in chern_roots(expr, ctx).signed.items():
        linear = {ring.var(v): a for v, a in enumerate(form) if a}
        power = {0: m}
        for _ in range(degree):
            power = sparse.mul(power, linear, ring.keep)
        sparse.add(total, power)
    return TruncatedPoly(3, cap, ring.unpack_terms(total)).scale(Fraction(1, factorial(degree)))


@given(exprs, grass_rings(), st.data())
def test_boxed_character_drops_only_out_of_box_terms(expr, case, data):
    ctx, cap = case
    degree = data.draw(st.integers(0, cap))
    got = chern_character_graded(expr, ctx, degree, cap)
    assert got == [_in_box(_character_unboxed(expr, ctx, j, cap), ctx.box) for j in range(degree + 1)]


def _total_chern_unboxed(expr, ctx, cap):
    # the quotient of the two parts, each a product of honest roots
    roots = chern_roots(expr, ctx)
    num = product_shifted_linear(roots.positive, cap, 3)
    return num * inverse_unit_series(product_shifted_linear(roots.negative, cap, 3))


@given(exprs, grass_rings())
def test_boxed_segre_drops_only_out_of_box_terms(expr, case):
    ctx, cap = case
    unboxed = inverse_unit_series(_total_chern_unboxed(expr, ctx, cap))
    assert total_segre(expr, ctx, cap) == _in_box(unboxed, ctx.box)


def _degree_unboxed(d, n):
    """The quotient route of ``degree_lpb`` with no exponent box."""
    ctx = GrassContext(3, n + 1)
    chern = _total_chern_unboxed(pullback_forms_bundle(d), ctx, ctx.g)
    return ctx.integrate(inverse_unit_series(chern).graded_part(ctx.g))


def test_degrees_match_the_unboxed_ring():
    for n in (5, 6):
        for d in range(0, 4):
            expected = _degree_unboxed(d, n)
            assert degree_lpb(d, n, method=METHOD_CHERN_QUOTIENT) == expected
            assert degree_lpb(d, n, method=METHOD_CH_PARTITION) == expected
