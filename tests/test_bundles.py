import tracemalloc
from collections import Counter
from fractions import Fraction
from itertools import combinations_with_replacement
from math import comb, factorial, prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lpbdeg import bundles, sparse
from lpbdeg.bundles import (
    Dual,
    PullbackForms,
    RootSet,
    Sym,
    TAUT,
    chern_character_graded,
    chern_roots,
    dual,
    total_chern,
    total_segre,
)
from lpbdeg.foliation import pullback_forms_bundle
from lpbdeg.grassmann import GrassContext
from lpbdeg.polyring import TruncatedPoly, exponents_of_degree, inverse_unit_series, product_shifted_linear
from ring_helpers import elementary, plus
from root_oracle import signed_roots_by_pairs, tensor_roots

CTX = GrassContext(3, 6)


def test_taut_roots_are_negated_variables():
    roots = chern_roots(TAUT, CTX)
    assert not roots.negative
    assert roots.signed == {(-1, 0, 0): 1, (0, -1, 0): 1, (0, 0, -1): 1}
    assert roots.positive == roots.signed


def test_dual_negates_roots():
    roots = chern_roots(dual(TAUT), CTX)
    assert roots.signed == {(0, 0, 1): 1, (0, 1, 0): 1, (1, 0, 0): 1}


def test_sym_power_counts():
    roots = chern_roots(Sym(2, dual(TAUT)), CTX)
    assert roots.virtual_rank == 6  # multisets of size 2 from 3 roots
    assert len(roots.signed) == 6  # all distinct
    assert roots.signed[(1, 1, 0)] == 1
    assert roots.signed[(2, 0, 0)] == 1
    assert chern_roots(Sym(0, TAUT), CTX).signed == {(0, 0, 0): 1}


def test_sym_respects_multiplicity():
    # PullbackForms(1) has rank 8, with the root -(1, 1, 1) twice
    roots = chern_roots(Sym(2, PullbackForms(1)), CTX)
    assert roots.virtual_rank == 36  # multisets of size 2 from 8 roots
    # 3 multisets of the double root and 3 pairs of simple roots
    assert roots.signed[(-2, -2, -2)] == 6


def _sym_reference(base, power):
    # the splitting principle read literally: one root per multiset of
    # roots, a root of the base listed as often as its multiplicity
    listed = [f for f, m in base.items() for _ in range(m)]
    roots = Counter()
    for picks in combinations_with_replacement(listed, power):
        form = (0, 0, 0)
        for f in picks:
            form = tuple(a + b for a, b in zip(form, f))
        roots[form] += 1
    return RootSet(dict(roots))


@given(
    st.sampled_from(
        [
            TAUT,
            dual(TAUT),
            Sym(2, TAUT),
            PullbackForms(0),
            PullbackForms(1),
            Dual(PullbackForms(1)),
        ]
    ),
    st.integers(0, 8),
)
def test_sym_roots_match_summed_picks(operand, power):
    base = chern_roots(operand, CTX).positive
    assert chern_roots(Sym(power, operand), CTX) == _sym_reference(base, power)


# the oracle walks at most this many multisets or pairs of roots per node
_ORACLE_BUDGET = 600


def _oracle_work(expr, k):
    """An upper bound on the total multiplicity of the roots of ``expr``."""
    if expr == TAUT:
        return k
    if isinstance(expr, Dual):
        return _oracle_work(expr.operand, k)
    if isinstance(expr, Sym):
        return comb(_oracle_work(expr.operand, k) + expr.power - 1, expr.power)
    # the pairs of the tensor product and the multisets of Sym^{d+2}T
    return k * comb(k + expr.d, expr.d + 1) + comb(k + expr.d + 1, expr.d + 2)


@st.composite
def _expressions(draw, k, depth):
    """A tree of depth at most ``depth`` that the oracle walks within its budget.

    Its leaves are ``TAUT``, its dual and ``PullbackForms(d)`` for d in
    0 .. 3, whose roots of multiplicity 2 or more (from d = 1 at k >= 3)
    give a symmetric power above them repeated base roots, and whose
    roots at k = 1 are none.  A symmetric power takes a power in 0 .. 6
    that keeps the budget.
    """
    kind = draw(st.sampled_from(["dual", "sym"] if depth else ["leaf"]))
    if kind == "leaf":
        return draw(st.sampled_from([TAUT, dual(TAUT), *map(PullbackForms, range(4))]))
    operand = draw(_expressions(k, depth - 1))
    if kind == "dual":
        return Dual(operand)
    top = max(p for p in range(7) if _oracle_work(Sym(p, operand), k) <= _ORACLE_BUDGET)
    return Sym(draw(st.integers(0, top)), operand)


@settings(max_examples=200)
@given(st.integers(1, 4).flatmap(lambda k: st.tuples(st.just(k), _expressions(k, 3))))
def test_signed_roots_match_the_root_by_root_oracle(case):
    k, expr = case
    got = bundles._signed_roots(expr, k)
    assert type(got) is dict
    assert min(got.values(), default=1) > 0
    assert got == signed_roots_by_pairs(expr, k)


@pytest.mark.parametrize("k", [1, 2, 3, 4])
@pytest.mark.parametrize("d", [*range(13), 40])
def test_pullback_forms_match_the_expanded_difference(k, d):
    # the closed form against Sym^{d+1}T (x) T - Sym^{d+2}T expanded root by root
    want = signed_roots_by_pairs(PullbackForms(d), k)
    assert bundles._signed_roots(PullbackForms(d), k) == want
    assert bundles._signed_roots(Dual(PullbackForms(d)), k) == signed_roots_by_pairs(Dual(PullbackForms(d)), k)
    # rank k C(d + k, k - 1) - C(d + k + 1, k - 1): (d + 1)(d + 3) at k = 3, 0 at k = 1
    assert sum(want.values()) == k * comb(d + k, k - 1) - comb(d + k + 1, k - 1)


def test_signed_roots_peak_near_the_map_they_return():
    # the map of Sym^{d+2}T is reweighted in place, and no second map of
    # that size is ever built beside it
    tracemalloc.start()
    try:
        got = bundles._signed_roots(pullback_forms_bundle(200), 3)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(got) == comb(204, 2) - 3
    assert peak <= 1.5 * held


def test_negative_symmetric_power_rejected():
    with pytest.raises(ValueError, match="nonnegative"):
        Sym(-1, TAUT)


def test_minus_cancels_to_honest_bundle():
    # Sym^{d+1}T (x) T - Sym^{d+2}T leaves no negative multiplicity
    for d in range(4):
        roots = chern_roots(PullbackForms(d), CTX)
        assert not roots.negative
        assert roots.positive == roots.signed
        assert roots.virtual_rank == (d + 1) * (d + 3)


def test_total_chern_of_taut_and_dual():
    expected_dual, expected = {}, {}
    for i in range(4):
        e = elementary(CTX.ring, i).terms
        sparse.add(expected_dual, e)
        sparse.add(expected, e, (-1) ** i)
    assert total_chern(dual(TAUT), CTX).terms == expected_dual
    assert total_chern(TAUT, CTX).terms == expected


def test_total_chern_of_virtual_is_quotient():
    # c(Sym^{d+1}T (x) T - Sym^{d+2}T) = c(Sym^{d+1}T (x) T) / c(Sym^{d+2}T)
    for d in range(3):
        got = total_chern(PullbackForms(d), CTX)
        tensor = tensor_roots(signed_roots_by_pairs(Sym(d + 1, TAUT), 3), signed_roots_by_pairs(TAUT, 3))
        numerator = product_shifted_linear(tensor, CTX.ring)
        expected = numerator * inverse_unit_series(total_chern(Sym(d + 2, TAUT), CTX))
        assert got.terms == expected.terms


exprs = st.sampled_from(
    [
        TAUT,
        dual(TAUT),
        Sym(2, TAUT),
        Sym(2, dual(TAUT)),
        PullbackForms(0),
        PullbackForms(1),
        Dual(PullbackForms(1)),
        Sym(2, PullbackForms(0)),
    ]
)


@given(exprs, st.integers(4, 6))
def test_segre_inverts_chern(expr, m):
    ctx = GrassContext(3, m)
    c = total_chern(expr, ctx)
    s = total_segre(expr, ctx)
    assert (c * s).terms == {0: 1}


def test_character_low_degrees_explicit():
    e1 = elementary(CTX.ring, 1)
    e2 = elementary(CTX.ring, 2)
    ch0, ch1, ch2 = chern_character_graded(dual(TAUT), CTX, 2)
    assert ch0.terms == {0: 3}
    assert ch1.terms == e1.terms
    assert chern_character_graded(TAUT, CTX, 1)[1].terms == e1.scale(-1).terms
    # ch_2 = (power sum p_2) / 2 = (e1^2 - 2 e2) / 2
    assert ch2.terms == plus(e1 * e1, e2, -2).scale(Fraction(1, 2)).terms
    assert [p.terms for p in chern_character_graded(dual(TAUT), CTX, 0)] == [ch0.terms]


def test_character_of_virtual_subtracts():
    # ch(Sym^{d+1}T (x) T - Sym^{d+2}T) = ch(Sym^{d+1}T) ch(T) - ch(Sym^{d+2}T), grade by grade
    g = CTX.g
    for d in range(3):
        got = chern_character_graded(PullbackForms(d), CTX, g)
        left = chern_character_graded(Sym(d + 1, TAUT), CTX, g)
        right = chern_character_graded(TAUT, CTX, g)
        minus = chern_character_graded(Sym(d + 2, TAUT), CTX, g)
        for j in range(g + 1):
            product = TruncatedPoly(CTX.ring, {})
            for i in range(j + 1):
                product = plus(product, left[i] * right[j - i])
            assert got[j].terms == plus(product, minus[j], -1).terms, (d, j)


def _character_by_multinomials(expr, ctx, degree):
    """ch_j = sum over signed roots of form^j / j!, each power expanded by the
    multinomial theorem, keeping the exponents in the box of ``ctx``."""
    signed = chern_roots(expr, ctx).signed.items()
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
    expr = dual(pullback_forms_bundle(d))
    got = chern_character_graded(expr, ctx, ctx.g)
    assert [p.terms for p in got] == [p.terms for p in _character_by_multinomials(expr, ctx, ctx.g)]
    assert got[0].terms == {0: (d + 1) * (d + 3)}


def test_character_rejects_asymmetric_roots(monkeypatch):
    # every bundle expression has symmetric roots, so stand in for a broken one
    monkeypatch.setattr(bundles, "_signed_roots", lambda expr, k: {(1, 0, 0): 1})
    with pytest.raises(ValueError, match="symmetric"):
        chern_character_graded(TAUT, CTX, 2)


def test_character_degree_validation():
    with pytest.raises(ValueError):
        chern_character_graded(TAUT, CTX, -1)
    with pytest.raises(ValueError):
        chern_character_graded(TAUT, CTX, CTX.g + 1)
