from collections import Counter
from fractions import Fraction
from itertools import combinations_with_replacement
from math import factorial, prod

import pytest
from hypothesis import given
from hypothesis import strategies as st

from lpbdeg import bundles
from lpbdeg.bundles import (
    Dual,
    Minus,
    Plus,
    RootSet,
    Sym,
    TAUT,
    Tensor,
    chern_character_graded,
    chern_roots,
    dual,
    total_chern,
    total_segre,
)
from lpbdeg.foliation import pullback_forms_bundle
from lpbdeg.grassmann import GrassContext
from lpbdeg.polyring import TruncatedPoly, elementary_symmetric, exponents_of_degree, inverse_unit_series

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
    doubled = Plus(dual(TAUT), dual(TAUT))
    roots = chern_roots(Sym(2, doubled), CTX)
    assert roots.virtual_rank == 21  # multisets of size 2 from 6 roots
    assert roots.signed[(1, 1, 0)] == 4


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
            Plus(TAUT, dual(TAUT)),
            Plus(TAUT, TAUT),
            Tensor(TAUT, dual(TAUT)),
            Minus(TAUT, TAUT),
        ]
    ),
    st.integers(0, 8),
)
def test_sym_roots_match_summed_picks(operand, power):
    base = chern_roots(operand, CTX).positive
    assert chern_roots(Sym(power, operand), CTX) == _sym_reference(base, power)


def test_sym_of_virtual_rejected():
    virtual = Minus(TAUT, Sym(1, dual(TAUT)))
    with pytest.raises(ValueError):
        chern_roots(Sym(2, virtual), CTX)
    with pytest.raises(ValueError):
        Sym(-1, TAUT)


def test_tensor_roots_add():
    roots = chern_roots(Tensor(dual(TAUT), dual(TAUT)), CTX)
    assert roots.virtual_rank == 9
    assert roots.signed[(1, 1, 0)] == 2
    assert roots.signed[(2, 0, 0)] == 1


def test_minus_cancels_to_honest_bundle():
    expr = Minus(Plus(TAUT, dual(TAUT)), dual(TAUT))
    roots = chern_roots(expr, CTX)
    assert not roots.negative
    assert roots == chern_roots(TAUT, CTX)
    assert roots.virtual_rank == 3


def test_minus_keeps_uncancelled_negative_part():
    roots = chern_roots(Minus(TAUT, Sym(2, dual(TAUT))), CTX)
    assert roots.negative == chern_roots(Sym(2, dual(TAUT)), CTX).signed
    assert roots.positive == chern_roots(TAUT, CTX).signed
    assert roots.virtual_rank == 3 - 6


def test_total_chern_of_taut_and_dual():
    cap = 3
    e = [elementary_symmetric(3, cap, i) for i in range(4)]
    expected_dual = e[0] + e[1] + e[2] + e[3]
    assert total_chern(dual(TAUT), CTX, cap) == expected_dual
    expected = e[0] - e[1] + e[2] - e[3]
    assert total_chern(TAUT, CTX, cap) == expected


def test_total_chern_of_virtual_is_quotient():
    cap = 2
    expr = Minus(dual(TAUT), TAUT)
    got = total_chern(expr, CTX, cap)
    expected = total_chern(dual(TAUT), CTX, cap) * inverse_unit_series(total_chern(TAUT, CTX, cap))
    assert got == expected


exprs = st.sampled_from(
    [
        TAUT,
        dual(TAUT),
        Sym(2, TAUT),
        Sym(2, dual(TAUT)),
        Tensor(dual(TAUT), dual(TAUT)),
        Plus(TAUT, dual(TAUT)),
        Minus(Sym(2, dual(TAUT)), TAUT),
        Minus(Tensor(Sym(2, TAUT), TAUT), Sym(3, TAUT)),
    ]
)


@given(exprs, st.integers(1, 4))
def test_segre_inverts_chern(expr, cap):
    c = total_chern(expr, CTX, cap)
    s = total_segre(expr, CTX, cap)
    assert c * s == TruncatedPoly.one(3, cap)


@given(exprs, exprs, st.integers(0, 3))
def test_character_additive_on_sums(left, right, j):
    cap = 3
    combined = chern_character_graded(Plus(left, right), CTX, j, cap)
    pairs = zip(chern_character_graded(left, CTX, j, cap), chern_character_graded(right, CTX, j, cap))
    assert combined == [a + b for a, b in pairs]
    assert len(combined) == j + 1


def test_character_low_degrees_explicit():
    cap = 2
    e1 = elementary_symmetric(3, cap, 1)
    e2 = elementary_symmetric(3, cap, 2)
    ch0, ch1, ch2 = chern_character_graded(dual(TAUT), CTX, 2, cap)
    assert ch0 == TruncatedPoly.constant(3, cap, 3)
    assert ch1 == e1
    assert chern_character_graded(TAUT, CTX, 1, cap)[1] == -e1
    # ch_2 = (power sum p_2) / 2 = (e1^2 - 2 e2) / 2
    assert ch2 == (e1 * e1 - e2.scale(2)).scale(Fraction(1, 2))
    assert chern_character_graded(dual(TAUT), CTX, 0, cap) == [ch0]


def test_character_of_virtual_subtracts():
    cap = 2
    expr = Minus(dual(TAUT), dual(TAUT))
    assert all(piece.is_zero for piece in chern_character_graded(expr, CTX, 2, cap))


def _character_by_multinomials(expr, ctx, degree, cap):
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
        pieces.append(TruncatedPoly(ctx.k, cap, terms, box=ctx.box))
    return pieces


@pytest.mark.parametrize("n, d", [(5, 2), (6, 3)])
def test_character_at_degree_shape_matches_multinomial_expansion(n, d):
    # the pieces the character route integrates: grade g over G(3, n + 1)
    ctx = GrassContext(3, n + 1)
    expr = dual(pullback_forms_bundle(d))
    got = chern_character_graded(expr, ctx, ctx.g, ctx.g)
    assert got == _character_by_multinomials(expr, ctx, ctx.g, ctx.g)
    assert got[0] == TruncatedPoly.constant(3, ctx.g, (d + 1) * (d + 3), box=ctx.box)


def test_character_rejects_asymmetric_roots(monkeypatch):
    # every bundle expression has symmetric roots, so stand in for a broken one
    monkeypatch.setattr(bundles, "_signed_roots", lambda expr, k: {(1, 0, 0): 1})
    with pytest.raises(ValueError, match="symmetric"):
        chern_character_graded(TAUT, CTX, 2, 2)


def test_character_degree_validation():
    with pytest.raises(ValueError):
        chern_character_graded(TAUT, CTX, -1, 2)
    with pytest.raises(ValueError):
        chern_character_graded(TAUT, CTX, 3, 2)
