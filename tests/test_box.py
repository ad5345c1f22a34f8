"""The exponent box of the Grassmannian ring, against unboxed oracles.

Over G(3, m) every class is computed in ``GrassContext.ring``,
``Q[x] / (deg > g, x_i^m)``; the ring operations are also tested at caps
below g.  Each boxed operation must equal the unboxed one with the
monomials that have an exponent above ``m - 1`` removed.  The oracles
below run in the unboxed ring and live only here.
"""

from collections import Counter
from fractions import Fraction
from math import factorial

from hypothesis import given
from hypothesis import strategies as st

from lpbdeg import sparse
from lpbdeg.bundles import chern_character_graded, chern_roots
from lpbdeg.foliation import METHOD_BOTH, METHOD_CH_PARTITION, METHOD_CHERN_QUOTIENT, degree_lpb
from lpbdeg.grassmann import GrassContext
from lpbdeg.polyring import TruncatedPoly, inverse_unit_series, product_shifted_linear
from lpbdeg.sparse import Packing
from permutation_helpers import orbits_of, symmetrize
from ring_helpers import e1_power, truncated_mul, unit_series
from root_oracle import TAUT, Dual, PullbackForms, Sym, signed_roots_by_pairs

coeffs = st.integers(min_value=-6, max_value=6)


def _in_box(p, box):
    """``p`` with every term that has an exponent above ``box`` removed."""
    kept = {e: c for e, c in p.sorted_terms() if max(e) <= box}
    return TruncatedPoly(Packing(p.nvars, p.cap, box), kept)


grassmannians = st.integers(4, 7).map(lambda m: GrassContext(3, m))


@st.composite
def grass_rings(draw):
    """(ctx, cap): a G(3, m) with m = 4..7 and a cap up to its dimension."""
    ctx = draw(grassmannians)
    return ctx, draw(st.integers(0, ctx.g))


@st.composite
def unboxed_polys(draw, cap):
    count = draw(st.integers(0, 6))
    terms = {tuple(draw(st.integers(0, cap)) for _ in range(3)): draw(coeffs) for _ in range(count)}
    return TruncatedPoly(Packing(3, cap, cap), symmetrize(terms))


@given(grass_rings(), st.data())
def test_boxed_product_drops_only_out_of_box_terms(case, data):
    ctx, cap = case
    p, q = data.draw(unboxed_polys(cap)), data.draw(unboxed_polys(cap))
    boxed_p, boxed_q = _in_box(p, ctx.box), _in_box(q, ctx.box)
    assert (boxed_p * boxed_q).terms == _in_box(p * q, ctx.box).terms
    assert (boxed_p * boxed_p * boxed_p).terms == _in_box(p * p * p, ctx.box).terms


@given(grass_rings(), st.data())
def test_boxed_inverse_drops_only_out_of_box_terms(case, data):
    ctx, cap = case
    p = data.draw(unboxed_polys(cap))
    unit = unit_series(p)
    assert inverse_unit_series(_in_box(unit, ctx.box)).terms == _in_box(inverse_unit_series(unit), ctx.box).terms


@given(grass_rings(), st.lists(st.tuples(coeffs, coeffs, coeffs), max_size=6))
def test_boxed_chern_product_drops_only_out_of_box_terms(case, forms):
    ctx, cap = case
    roots = Counter(orbits_of(forms))
    boxed = product_shifted_linear(roots, Packing(3, cap, ctx.box))
    assert boxed.terms == _in_box(product_shifted_linear(roots, Packing(3, cap, cap)), ctx.box).terms


def test_moment_table_lists_only_monomials_in_the_box():
    # over G(3, 8) the top grade keeps 28 of its C(17, 2) = 136 monomials
    ctx = GrassContext(3, 8)
    boxed = sparse.monomial_tree(ctx.ring)
    assert len(boxed[-1][1]) == 28
    assert len(sparse.monomial_tree(Packing(3, ctx.g, ctx.g))[-1][1]) == 136
    assert all(max(Packing(3, ctx.g).unpack(k)) <= ctx.box for _, keys, _ in boxed for k in keys)


# the root maps of these bundles over the 3-planes, from the oracle
root_maps = st.sampled_from(
    [
        TAUT,
        Dual(TAUT),
        Sym(2, Dual(TAUT)),
        Dual(PullbackForms(0)),
        Sym(2, PullbackForms(0)),
        PullbackForms(1),
    ]
).map(lambda expr: signed_roots_by_pairs(expr, 3))


def _character_unboxed(roots, ctx, degree):
    """Sum of signed powers of the roots over degree!, multiplied out: ch_degree."""
    ring = Packing(3, ctx.g, ctx.g)
    total = {}
    for form, m in roots.items():
        linear = {ring.var(v): a for v, a in enumerate(form) if a}
        power = {0: m}
        for _ in range(degree):
            power = truncated_mul(power, linear, ring)
        sparse.add(total, power)
    return TruncatedPoly(ring, ring.unpack_terms(total)).scale(Fraction(1, factorial(degree)))


@given(root_maps, grassmannians, st.data())
def test_boxed_character_drops_only_out_of_box_terms(roots, ctx, data):
    degree = data.draw(st.integers(0, ctx.g))
    got = chern_character_graded(roots, ctx, degree)
    # piece j is j! ch_j, the integer power sum
    expected = [_in_box(_character_unboxed(roots, ctx, j).scale(factorial(j)), ctx.box) for j in range(degree + 1)]
    assert [p.terms for p in got] == [p.terms for p in expected]


def _segre(roots, ring):
    """The total Segre class of the bundle with ``roots``, in ``ring``."""
    return inverse_unit_series(product_shifted_linear(roots, ring))


@given(root_maps, grassmannians)
def test_boxed_segre_drops_only_out_of_box_terms(roots, ctx):
    unboxed = _segre(roots, Packing(3, ctx.g, ctx.g))
    assert _segre(roots, ctx.ring).terms == _in_box(unboxed, ctx.box).terms


def _degree_unboxed(d, n):
    """The quotient route of ``degree_lpb`` with no exponent box."""
    ctx = GrassContext(3, n + 1)
    segre = _segre(chern_roots(d, ctx).signed, Packing(3, ctx.g, ctx.g))
    return ctx.integrate(segre.graded_part(ctx.g))


def test_degrees_match_the_unboxed_ring():
    for n in (5, 6):
        for d in range(0, 4):
            expected = _degree_unboxed(d, n)
            assert degree_lpb(d, n, method=METHOD_CHERN_QUOTIENT) == expected
            assert degree_lpb(d, n, method=METHOD_CH_PARTITION) == expected


def test_the_ring_of_a_grassmannian_is_one_value():
    ctx = GrassContext(3, 6)
    assert ctx.ring == Packing(3, ctx.g, ctx.box) == Packing(3, 9, 5)
    assert ctx.ring is ctx.ring and GrassContext(3, 6).ring == ctx.ring
    roots = chern_roots(2, ctx).signed
    assert _segre(roots, ctx.ring).ring is ctx.ring
    assert all(piece.ring is ctx.ring for piece in chern_character_graded(roots, ctx, ctx.g))


def test_every_integrated_class_lives_in_the_ring_of_its_grassmannian(monkeypatch):
    seen = []
    integrate = GrassContext.integrate

    def recording(ctx, cls):
        seen.append((ctx, cls.ring))
        return integrate(ctx, cls)

    monkeypatch.setattr(GrassContext, "integrate", recording)
    ctx = GrassContext(3, 6)
    assert ctx.plucker_degree() == 42
    assert seen == [(ctx, ctx.ring)] and seen[0][1] is ctx.ring
    seen.clear()
    # both routes of one degree
    degree_lpb(2, 5, method=METHOD_BOTH)
    assert len(seen) == 2
    assert all(ring is context.ring == Packing(3, 9, 5) for context, ring in seen)


def test_plucker_degree_in_the_box_matches_the_unboxed_ring():
    # the calibration: e_1^g integrates alike with the box at m - 1 and at the cap
    for m in range(4, 10):
        ctx = GrassContext(3, m)
        assert ctx.plucker_degree() == ctx.integrate(e1_power(Packing(3, ctx.g, ctx.g), ctx.g)), m
