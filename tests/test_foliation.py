import json
from fractions import Fraction
from math import prod
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lpbdeg import foliation, sparse
from lpbdeg.bundles import _signed_roots, chern_roots
from lpbdeg.exact import lagrange_interpolate
from lpbdeg.foliation import (
    InternalInconsistencyError,
    METHOD_BOTH,
    METHOD_CH_PARTITION,
    METHOD_CHERN_QUOTIENT,
    closed_form,
    closed_form_full_nodes,
    degree_lpb,
    lpb_invariants,
    reference_formula,
    reference_polynomial,
    virtual_rank_check,
)
from lpbdeg.grassmann import GrassContext
from lpbdeg.polyring import exponents_of_degree


def test_reference_formula_pinned_values():
    # recomputed by hand from the published displays before freezing
    assert reference_formula(3, 2) == 1320
    assert reference_formula(3, 3) == 10640
    assert reference_formula(3, 4) == 57120  # (20/27) * 56 * 51 * 27
    assert reference_formula(3, 1) == 80
    assert reference_formula(3, 0) == 0
    assert reference_formula(4, 2) == 739000


def test_reference_formula_validation():
    with pytest.raises(ValueError):
        reference_formula(5, 2)
    with pytest.raises(ValueError):
        reference_formula(3, -1)
    with pytest.raises(ValueError):
        reference_formula(4, 0)


def test_reference_polynomial_n3():
    poly = reference_polynomial(3)
    assert poly.degree == 9
    assert poly.coefficient(9) == Fraction(1, 162)
    assert poly.coefficient(0) == 0
    for d in range(0, 7):
        assert poly(d) == reference_formula(3, d)


def test_reference_polynomial_n4():
    poly = reference_polynomial(4)
    assert poly.degree == 18
    for d in range(1, 5):
        assert poly(d) == reference_formula(4, d)
    with pytest.raises(ValueError):
        reference_polynomial(5)


def test_degree_pinned_values():
    assert degree_lpb(2, 3) == 1320
    assert degree_lpb(3, 3) == 10640
    assert degree_lpb(4, 3) == 57120
    assert degree_lpb(1, 3) == 80
    assert degree_lpb(0, 3) == 0


def test_degree_matches_published_form_on_a_range():
    for d in range(0, 9):
        assert degree_lpb(d, 3) == reference_formula(3, d)


def test_degree_validation():
    with pytest.raises(ValueError):
        degree_lpb(-1, 3)
    with pytest.raises(ValueError):
        degree_lpb(2, 2)
    with pytest.raises(ValueError):
        degree_lpb(2, 3, method="fastest")
    with pytest.raises(ValueError, match="ambient projective dimension must be at least 3"):
        virtual_rank_check(2, 2)
    with pytest.raises(ValueError, match="nonnegative"):
        virtual_rank_check(-1, 3)


@pytest.mark.parametrize(
    "call, args",
    [
        (lpb_invariants, (2.5, 3)),
        (reference_formula, (3.0, 2)),
        (degree_lpb, (True, 3)),
        (degree_lpb, (2, 3.0)),
        (degree_lpb, (2.0, 3)),
        (closed_form, (3.0,)),
        (virtual_rank_check, (Fraction(2), 3)),
        (virtual_rank_check, (2, 2.5)),
        (virtual_rank_check, (2, 3.0)),
        (reference_polynomial, (3.0,)),
    ],
)
def test_degree_functions_refuse_an_n_or_d_that_is_not_an_int(monkeypatch, call, args):
    # before any work: neither engine nor published form is reached
    monkeypatch.setattr(foliation, "GrassContext", _refuse)
    monkeypatch.setattr(foliation, "reference_polynomial", _refuse)
    with pytest.raises(ValueError, match="must be an int"):
        call(*args)


def test_methods_agree_small_grid():
    for d in range(0, 4):
        quotient = degree_lpb(d, 3, method=METHOD_CHERN_QUOTIENT)
        characters = degree_lpb(d, 3, method=METHOD_CH_PARTITION)
        both = degree_lpb(d, 3, method=METHOD_BOTH)
        assert quotient == characters == both


def test_character_route_n4():
    assert degree_lpb(2, 4, method=METHOD_CH_PARTITION) == 739000


def _stored_degree(d, n):
    """The degree from the published P_4 or the committed P_5 of ``closed_forms.json``."""
    if n == 4:
        return reference_formula(4, d)
    coeffs = json.loads((Path(__file__).parent / "closed_forms.json").read_text())["coefficients"][str(n)]
    return sum(Fraction(c) * d**i for i, c in enumerate(coeffs))


def _refuse(*args, **kwargs):
    raise AssertionError("this kernel belongs to the other route")


@pytest.mark.parametrize("n, d", [(4, 2), (5, 3)])
def test_routes_share_no_product_kernel(monkeypatch, n, d):
    expected = _stored_degree(d, n)
    with monkeypatch.context() as patch:
        patch.setattr(sparse, "mul_symmetric", _refuse)
        assert degree_lpb(d, n, method=METHOD_CHERN_QUOTIENT) == expected
        # the patch is seen: the character route needs the product
        with pytest.raises(AssertionError, match="other route"):
            degree_lpb(d, n, method=METHOD_CH_PARTITION)
    with monkeypatch.context() as patch:
        patch.setattr(sparse, "recurrence", _refuse)
        assert degree_lpb(d, n, method=METHOD_CH_PARTITION) == expected
        with pytest.raises(AssertionError, match="other route"):
            degree_lpb(d, n, method=METHOD_CHERN_QUOTIENT)


def test_bundle_rank_matches_closed_count():
    ctx = GrassContext(3, 4)
    for d in range(0, 11):
        roots = chern_roots(d, ctx)
        assert not roots.negative
        assert roots.virtual_rank == (d + 1) * (d + 3)
        assert virtual_rank_check(d, 3) == (d + 1) * (d + 3)


@pytest.mark.parametrize("d", [*range(8), 100])
def test_pullback_bundle_roots_are_negated_exponents(d):
    # the roots of Sym^(d+1) T (x) T are -(beta + e_i), so each gamma with
    # |gamma| = d + 2 arises once per nonzero entry, and Sym^(d+2) T takes
    # one of them away; at d = 100 a merge spans more than one chunk
    expected = {
        tuple(-g for g in gamma): sum(1 for g in gamma if g) - 1
        for gamma in exponents_of_degree(3, d + 2)
        if sum(1 for g in gamma if g) >= 2
    }
    assert _signed_roots(d, 3) == expected


def test_moment_sums_are_reciprocal_in_n():
    # the reciprocity closed_form rests on: with N = d + 2, the moment sum
    # M_a(N) of the roots is a polynomial in N of degree at most |a| + 2, and
    # M_a(-N) = (-1)^|a| M_a(N)
    top = 6
    nodes = range(2, top + 6)
    roots = {N: _signed_roots(N - 2, 3).items() for N in nodes}
    for size in range(top + 1):
        for alpha in exponents_of_degree(3, size):
            moments = [
                (N, sum(m * prod(r**a for r, a in zip(root, alpha)) for root, m in roots[N]))
                for N in nodes
            ]
            poly = lagrange_interpolate(moments[: size + 3])
            assert all(poly(N) == value for N, value in moments[size + 3 :])
            for N in nodes:
                assert poly(-N) == (-1) ** size * poly(N)


def test_invariants_examples():
    inv = lpb_invariants(2, 3)
    assert inv.bundle_rank == 15
    assert inv.grassmannian_dim == 3
    assert inv.dimension == 17
    inv0 = lpb_invariants(0, 3)
    assert inv0.bundle_rank == 3
    assert inv0.dimension == 5
    inv34 = lpb_invariants(3, 4)
    assert inv34.bundle_rank == 24
    assert inv34.grassmannian_dim == 6
    assert inv34.dimension == 29


def test_invariants_validation():
    with pytest.raises(ValueError):
        lpb_invariants(-1, 3)
    with pytest.raises(ValueError):
        lpb_invariants(2, 2)


def test_closed_form_n3_matches_published_polynomial():
    assert closed_form(3) == reference_polynomial(3)


def test_closed_form_uses_and_verifies_degree_fn():
    calls = []

    def fn(d):
        calls.append(d)
        return reference_formula(3, d)

    poly = closed_form(3, fn)
    assert poly == reference_polynomial(3)
    # nodes d = 0 .. floor(3g/2), mirrored to -4-d, plus one held-out node
    assert calls == list(range(0, 5)) + [5]


def test_closed_form_detects_bad_verification_node():
    def fn(d):
        value = reference_formula(3, d)
        return value + 1 if d == 5 else value

    with pytest.raises(InternalInconsistencyError):
        closed_form(3, fn)


def test_closed_form_rejects_degree_fn_without_reciprocity():
    # degree at most 3g, but not odd in N = d + 2, so the mirrored nodes
    # give another polynomial, which the held-out node catches
    with pytest.raises(InternalInconsistencyError):
        closed_form(3, lambda d: reference_formula(3, d) + 1)


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_closed_form_equals_full_node_interpolation(n):
    assert closed_form(n) == closed_form_full_nodes(n)


def test_closed_form_validation():
    with pytest.raises(ValueError):
        closed_form(2)
    with pytest.raises(ValueError):
        closed_form_full_nodes(2)


def test_degrees_positive_in_geometric_range():
    for d in range(2, 9):
        assert degree_lpb(d, 3) > 0


@settings(max_examples=8)
@given(st.integers(2, 20))
def test_closed_form_agrees_with_direct_evaluation(d):
    poly = reference_polynomial(3)
    assert poly(d) == degree_lpb(d, 3)
