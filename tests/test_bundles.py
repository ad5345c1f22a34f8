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
from lpbdeg.polyring import TruncatedPoly, exponents_of_degree, inverse_unit_series
from ring_helpers import elementary, plus
from root_oracle import signed_roots_by_pairs

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


# the oracle walks at most this many multisets or pairs of roots per node
_ORACLE_BUDGET = 600


def _oracle_work(expr, k):
    """An upper bound on the total |multiplicity| of the roots of ``expr``."""
    if expr == TAUT:
        return k
    if isinstance(expr, Dual):
        return _oracle_work(expr.operand, k)
    if isinstance(expr, Sym):
        return comb(_oracle_work(expr.operand, k) + expr.power - 1, expr.power)
    if isinstance(expr, Tensor):
        return _oracle_work(expr.left, k) * _oracle_work(expr.right, k)
    return _oracle_work(expr.left, k) + _oracle_work(expr.right, k)


@st.composite
def _expressions(draw, k, depth):
    """A tree of depth at most ``depth`` that the oracle walks within its budget.

    Its leaves are ``TAUT`` and its dual, so that a difference one level
    up can be properly virtual.  A symmetric power takes a power in 0 .. 6
    that keeps the budget, and a tensor product over the budget is drawn
    as a sum.
    """
    kind = draw(st.sampled_from(["dual", "sym", "tensor", "plus", "minus"] if depth else ["leaf"]))
    if kind == "leaf":
        return draw(st.sampled_from([TAUT, dual(TAUT)]))
    left = draw(_expressions(k, depth - 1))
    if kind == "dual":
        return Dual(left)
    if kind == "sym":
        top = max(p for p in range(7) if _oracle_work(Sym(p, left), k) <= _ORACLE_BUDGET)
        return Sym(draw(st.integers(0, top)), left)
    right = draw(_expressions(k, depth - 1))
    if kind == "tensor" and _oracle_work(left, k) * _oracle_work(right, k) <= _ORACLE_BUDGET:
        return Tensor(left, right)
    return Minus(left, right) if kind == "minus" else Plus(left, right)


@settings(max_examples=200)
@given(st.integers(1, 4).flatmap(lambda k: st.tuples(st.just(k), _expressions(k, 3))))
def test_signed_roots_match_the_root_by_root_oracle(case):
    k, expr = case
    try:
        want = signed_roots_by_pairs(expr, k)
    except ValueError:
        with pytest.raises(ValueError, match="properly virtual"):
            bundles._signed_roots(expr, k)
        return
    got = bundles._signed_roots(expr, k)
    assert type(got) is dict
    assert 0 not in got.values()
    assert got == want


@pytest.mark.parametrize(
    "expr",
    [
        Tensor(pullback_forms_bundle(100), TAUT),
        Minus(Tensor(dual(TAUT), pullback_forms_bundle(100)), pullback_forms_bundle(100)),
    ],
    ids=["tensor", "minus"],
)
def test_signed_roots_match_the_oracle_past_one_chunk(expr):
    # merges of more than one chunk of forms, with unequal multiplicities
    got = bundles._signed_roots(expr, 3)
    assert len(got) > bundles._CHUNK
    assert len(set(got.values())) > 2
    assert got == signed_roots_by_pairs(expr, 3)


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
    expected_dual, expected = {}, {}
    for i in range(4):
        e = elementary(CTX.ring, i).terms
        sparse.add(expected_dual, e)
        sparse.add(expected, e, (-1) ** i)
    assert total_chern(dual(TAUT), CTX).terms == expected_dual
    assert total_chern(TAUT, CTX).terms == expected


def test_total_chern_of_virtual_is_quotient():
    expr = Minus(dual(TAUT), TAUT)
    got = total_chern(expr, CTX)
    expected = total_chern(dual(TAUT), CTX) * inverse_unit_series(total_chern(TAUT, CTX))
    assert got.terms == expected.terms


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


@given(exprs, st.integers(4, 6))
def test_segre_inverts_chern(expr, m):
    ctx = GrassContext(3, m)
    c = total_chern(expr, ctx)
    s = total_segre(expr, ctx)
    assert (c * s).terms == {0: 1}


@given(exprs, exprs, st.integers(0, 3))
def test_character_additive_on_sums(left, right, j):
    combined = chern_character_graded(Plus(left, right), CTX, j)
    pairs = zip(chern_character_graded(left, CTX, j), chern_character_graded(right, CTX, j))
    assert [p.terms for p in combined] == [plus(a, b).terms for a, b in pairs]
    assert len(combined) == j + 1


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
    expr = Minus(dual(TAUT), dual(TAUT))
    assert all(piece.terms == {} for piece in chern_character_graded(expr, CTX, 2))


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
