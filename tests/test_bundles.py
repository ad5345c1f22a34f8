import tracemalloc
from fractions import Fraction
from math import comb, factorial, prod

import pytest
from hypothesis import given
from hypothesis import strategies as st

from lpbdeg import bundles, sparse
from lpbdeg.bundles import RootSet, chern_character_graded, chern_roots, dual
from lpbdeg.foliation import METHOD_BOTH, degree_lpb
from lpbdeg.grassmann import GrassContext
from lpbdeg.polyring import TruncatedPoly, exponents_of_degree, inverse_unit_series, product_shifted_linear
from ring_helpers import elementary, plus
from root_oracle import TAUT, Dual, PullbackForms, Sym, signed_roots_by_pairs, tensor_roots

CTX = GrassContext(3, 6)


def _roots(expr):
    """The roots of an oracle expression over the 3-planes of ``CTX``."""
    return signed_roots_by_pairs(expr, 3)


def test_taut_roots_are_negated_variables():
    roots = RootSet(_roots(TAUT))
    assert not roots.negative
    assert roots.signed == {(-1, 0, 0): 1, (0, -1, 0): 1, (0, 0, -1): 1}
    assert roots.positive == roots.signed


def test_dual_negates_roots():
    assert dual(_roots(TAUT)) == {(0, 0, 1): 1, (0, 1, 0): 1, (1, 0, 0): 1}
    assert dual({}) == {}


def test_sym_power_counts():
    roots = RootSet(_roots(Sym(2, Dual(TAUT))))
    assert roots.virtual_rank == 6  # multisets of size 2 from 3 roots
    assert len(roots.signed) == 6  # all distinct
    assert roots.signed[(1, 1, 0)] == 1
    assert roots.signed[(2, 0, 0)] == 1
    assert _roots(Sym(0, TAUT)) == {(0, 0, 0): 1}


def test_sym_respects_multiplicity():
    # PullbackForms(1) has rank 8, with the root -(1, 1, 1) twice
    roots = RootSet(_roots(Sym(2, PullbackForms(1))))
    assert roots.virtual_rank == 36  # multisets of size 2 from 8 roots
    # 3 multisets of the double root and 3 pairs of simple roots
    assert roots.signed[(-2, -2, -2)] == 6


@pytest.mark.parametrize("k", [1, 2, 3, 4])
@pytest.mark.parametrize("d", [*range(13), 40])
def test_pullback_forms_match_the_expanded_difference(k, d):
    # the closed form against Sym^{d+1}T (x) T - Sym^{d+2}T expanded root by root
    want = signed_roots_by_pairs(PullbackForms(d), k)
    got = bundles._signed_roots(d, k)
    assert type(got) is dict
    assert got == want
    assert dual(got) == signed_roots_by_pairs(Dual(PullbackForms(d)), k)
    # rank k C(d + k, k - 1) - C(d + k + 1, k - 1): (d + 1)(d + 3) at k = 3, 0 at k = 1
    assert sum(want.values()) == k * comb(d + k, k - 1) - comb(d + k + 1, k - 1)


def test_signed_roots_peak_near_the_map_they_return():
    # each run of forms is written straight into the map, and no second
    # map of that size is ever built beside it
    tracemalloc.start()
    try:
        got = bundles._signed_roots(200, 3)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(got) == comb(204, 2) - 3
    assert peak <= 1.5 * held


def test_minus_cancels_to_honest_bundle():
    # Sym^{d+1}T (x) T - Sym^{d+2}T leaves no negative multiplicity
    for d in range(4):
        roots = chern_roots(d, CTX)
        assert not roots.negative
        assert roots.positive == roots.signed
        assert roots.virtual_rank == (d + 1) * (d + 3)


def test_total_chern_of_taut_and_dual():
    expected_dual, expected = {}, {}
    for i in range(4):
        e = elementary(CTX.ring, i).terms
        sparse.add(expected_dual, e)
        sparse.add(expected, e, (-1) ** i)
    assert product_shifted_linear(_roots(Dual(TAUT)), CTX.ring).terms == expected_dual
    assert product_shifted_linear(_roots(TAUT), CTX.ring).terms == expected


def test_total_chern_of_virtual_is_quotient():
    # c(Sym^{d+1}T (x) T - Sym^{d+2}T) = c(Sym^{d+1}T (x) T) / c(Sym^{d+2}T)
    for d in range(3):
        got = product_shifted_linear(chern_roots(d, CTX).signed, CTX.ring)
        numerator = product_shifted_linear(tensor_roots(_roots(Sym(d + 1, TAUT)), _roots(TAUT)), CTX.ring)
        expected = numerator * inverse_unit_series(product_shifted_linear(_roots(Sym(d + 2, TAUT)), CTX.ring))
        assert got.terms == expected.terms


exprs = st.sampled_from(
    [
        TAUT,
        Dual(TAUT),
        Sym(2, TAUT),
        Sym(2, Dual(TAUT)),
        PullbackForms(0),
        PullbackForms(1),
        Dual(PullbackForms(1)),
        Sym(2, PullbackForms(0)),
    ]
)


@given(exprs, st.integers(4, 6))
def test_segre_inverts_chern(expr, m):
    ctx = GrassContext(3, m)
    c = product_shifted_linear(signed_roots_by_pairs(expr, 3), ctx.ring)
    s = inverse_unit_series(c)
    assert (c * s).terms == {0: 1}


def test_character_low_degrees_explicit():
    e1 = elementary(CTX.ring, 1)
    e2 = elementary(CTX.ring, 2)
    ch0, ch1, ch2 = chern_character_graded(_roots(Dual(TAUT)), CTX, 2)
    assert ch0.terms == {0: 3}
    assert ch1.terms == e1.terms
    assert chern_character_graded(_roots(TAUT), CTX, 1)[1].terms == e1.scale(-1).terms
    # ch_2 = (power sum p_2) / 2 = (e1^2 - 2 e2) / 2
    assert ch2.terms == plus(e1 * e1, e2, -2).scale(Fraction(1, 2)).terms
    assert [p.terms for p in chern_character_graded(_roots(Dual(TAUT)), CTX, 0)] == [ch0.terms]


def test_character_of_virtual_subtracts():
    # ch(Sym^{d+1}T (x) T - Sym^{d+2}T) = ch(Sym^{d+1}T) ch(T) - ch(Sym^{d+2}T), grade by grade
    g = CTX.g
    for d in range(3):
        got = chern_character_graded(chern_roots(d, CTX).signed, CTX, g)
        left = chern_character_graded(_roots(Sym(d + 1, TAUT)), CTX, g)
        right = chern_character_graded(_roots(TAUT), CTX, g)
        minus = chern_character_graded(_roots(Sym(d + 2, TAUT)), CTX, g)
        for j in range(g + 1):
            product = TruncatedPoly(CTX.ring, {})
            for i in range(j + 1):
                product = plus(product, left[i] * right[j - i])
            assert got[j].terms == plus(product, minus[j], -1).terms, (d, j)


def _character_by_multinomials(roots, ctx, degree):
    """ch_j = sum over signed roots of form^j / j!, each power expanded by the
    multinomial theorem, keeping the exponents in the box of ``ctx``."""
    signed = roots.items()
    pieces = []
    for j in range(degree + 1):
        terms = {}
        for e in exponents_of_degree(ctx.k, j):
            if max(e) <= ctx.box:
                weight = Fraction(factorial(j) // prod(map(factorial, e)), factorial(j))
                terms[e] = weight * sum(m * prod(a**i for a, i in zip(form, e)) for form, m in signed)
        pieces.append(TruncatedPoly(ctx.ring, terms))
    return pieces


@pytest.mark.parametrize("n, d", [(5, 2), (6, 3)])
def test_character_at_degree_shape_matches_multinomial_expansion(n, d):
    # the pieces the character route integrates: grade g over G(3, n + 1)
    ctx = GrassContext(3, n + 1)
    roots = dual(chern_roots(d, ctx).signed)
    got = chern_character_graded(roots, ctx, ctx.g)
    assert [p.terms for p in got] == [p.terms for p in _character_by_multinomials(roots, ctx, ctx.g)]
    assert got[0].terms == {0: (d + 1) * (d + 3)}


def test_character_rejects_asymmetric_roots():
    # every bundle has symmetric roots, so stand in for a broken map
    with pytest.raises(ValueError, match="symmetric"):
        chern_character_graded({(1, 0, 0): 1}, CTX, 2)


def test_character_degree_validation():
    with pytest.raises(ValueError):
        chern_character_graded(_roots(TAUT), CTX, -1)
    with pytest.raises(ValueError):
        chern_character_graded(_roots(TAUT), CTX, CTX.g + 1)


def test_both_routes_read_one_enumeration_of_the_roots(monkeypatch):
    # the two routes of one degree share the map, the character route
    # reading it negated; count the outermost enumerations
    real, depth, calls = bundles._signed_roots, [0], []

    def counted(*args):
        calls.append(depth[0])
        depth[0] += 1
        try:
            return real(*args)
        finally:
            depth[0] -= 1

    monkeypatch.setattr(bundles, "_signed_roots", counted)
    assert degree_lpb(2, 5, method=METHOD_BOTH) == 259757260
    assert calls.count(0) == 1
