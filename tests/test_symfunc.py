from collections import Counter
from fractions import Fraction
from math import factorial, prod

import pytest
from hypothesis import given
from hypothesis import strategies as st

from lpbdeg import sparse
from lpbdeg.bundles import chern_character_graded, chern_roots
from lpbdeg.grassmann import GrassContext
from lpbdeg.polyring import (
    TruncatedPoly,
    exponents_of_degree,
    inverse_unit_series,
    product_shifted_linear,
)
from lpbdeg.sparse import Packing
from lpbdeg.symfunc import partitions, segre_via_characters
from permutation_helpers import orbits_of, symmetrize
from ring_helpers import elementary, plus, truncated_mul


def weight_w(lam):
    """The weight of a partition in the literal Segre character sum.

    With m_i the multiplicity of the part i,
    w(lam) = prod over distinct parts i of (i!)^{m_i} / (i^{m_i} m_i!),
    so that s_k = sum over lam |- k of w(lam) * prod ch_{lam_i}.
    """
    num = 1
    den = 1
    for part, mult in Counter(lam).items():
        num *= factorial(part) ** mult
        den *= part**mult * factorial(mult)
    return Fraction(num, den)


def _class_size(lam):
    """``k!/z_lam`` for a partition of k, which is ``k! w(lam) / prod lam_i!``."""
    size = factorial(sum(lam)) * weight_w(lam) / prod(factorial(part) for part in lam)
    return size.numerator


def test_partitions_have_positive_weakly_decreasing_parts():
    for k in range(9):
        for lam in partitions(k):
            assert type(lam) is tuple and sum(lam) == k
            assert all(part >= 1 for part in lam)
            assert all(a >= b for a, b in zip(lam, lam[1:]))


def test_partitions_enumeration():
    assert partitions(0) == ((),)
    assert partitions(3) == ((3,), (2, 1), (1, 1, 1))
    assert len(partitions(6)) == 11
    assert all(sum(lam) == 6 for lam in partitions(6))
    with pytest.raises(ValueError):
        partitions(-1)


def test_partitions_cached_identity():
    assert partitions(4) is partitions(4)


def test_weight_values():
    # hand-derived from the multiplicity formula
    assert weight_w((2,)) == 1
    assert weight_w((1, 1)) == Fraction(1, 2)
    assert weight_w((3,)) == 2
    assert weight_w((2, 1)) == 1
    assert weight_w((1, 1, 1)) == Fraction(1, 6)
    assert weight_w(()) == 1


def _graded_characters(forms, cap, upto):
    """Pieces j! ch_j, the power sums, of the bundle with the given roots, each power multiplied out."""
    ring = Packing(3, cap, cap)
    sums = [{} for _ in range(upto + 1)]
    for f in forms:
        linear = {ring.var(v): a for v, a in enumerate(f) if a}
        power = {0: 1}
        for p in sums:
            sparse.add(p, power)
            power = truncated_mul(power, linear, ring)
    return [TruncatedPoly(ring, ring.unpack_terms(p)) for p in sums]


small = st.integers(min_value=-2, max_value=2)


@given(
    st.lists(st.tuples(small, small, small), min_size=1, max_size=4),
    st.integers(0, 3),
)
def test_character_sum_matches_inverted_chern_series(form_coeffs, k):
    # independent oracle: the Segre series as the inverse of the total
    # Chern class, versus the partition-weighted character sum; each form
    # comes with its images under permuting the variables
    form_coeffs = orbits_of(form_coeffs)
    total_chern = product_shifted_linear(Counter(form_coeffs), Packing(3, k, k))
    expected = inverse_unit_series(total_chern).graded_part(k)
    pieces = _graded_characters(form_coeffs, k, k)
    assert segre_via_characters(pieces, k).terms == expected.terms


def _segre_reference(pieces, k):
    # the partition-weighted sum read literally, in the pieces' own ring,
    # whose exponent box may be below the cap; the packed terms of the sum.
    # The pieces are j! ch_j, so the weight w(lam) of the product of the
    # ch_{lam_i} is divided exactly by the prod lam_i! the pieces carry.
    # It takes characters of the dual F*, and the pieces are those of F:
    # each product has parts summing to k, so ch_j(F*) = (-1)^j ch_j(F)
    # makes it (-1)^k times the sum on F
    total = {}
    for lam in partitions(k):
        product = TruncatedPoly.one(pieces[0].ring)
        for part in lam:
            product = product * pieces[part]
        sparse.add(total, product.scale(weight_w(lam) / prod(map(factorial, lam))).terms)
    return total


def _signed(terms, k):
    """``terms`` times (-1)^k."""
    return {key: (-1) ** k * c for key, c in terms.items()}


@st.composite
def graded_pieces(draw):
    k = draw(st.integers(0, 6))
    nvars = draw(st.integers(1, 3))
    cap = k + draw(st.integers(0, 1))
    coeffs = st.fractions(min_value=-5, max_value=5, max_denominator=30)
    ring = Packing(nvars, cap, cap)
    pieces = []
    for j in range(k + 1):
        monomials = list(exponents_of_degree(nvars, j))
        chosen = draw(st.lists(st.sampled_from(monomials), max_size=3, unique=True))
        pieces.append(TruncatedPoly(ring, symmetrize({e: draw(coeffs) for e in chosen})))
    return pieces, k


@given(graded_pieces())
def test_character_sum_matches_literal_partition_sum(case):
    # arbitrary Fraction pieces, so the division by j in the recurrence is
    # often not exact and has to fall back to Fractions without changing the value
    pieces, k = case
    assert segre_via_characters(pieces, k).terms == _signed(_segre_reference(pieces, k), k)


def test_character_sum_matches_literal_partition_sum_on_the_grassmannian():
    # the pieces of the pulled-back-forms bundle at (n, d) = (6, 2), g = 12:
    # every k up to g, so every step of the recurrence is exercised, not
    # only the k <= 6 the random pieces reach; the roots are integers, so
    # every h_k is an integer polynomial and the class holds ints only
    ctx = GrassContext(3, 7)
    pieces = chern_character_graded(chern_roots(2, ctx).signed, ctx, ctx.g)
    for k in range(ctx.g + 1):
        segre = segre_via_characters(pieces, k)
        assert segre.terms == _signed(_segre_reference(pieces, k), k), k
        assert all(type(c) is int for c in segre.terms.values()), k


def test_class_sizes_count_permutations():
    # k!/z_lam is the size of a conjugacy class of S_k: (3), (2, 1), (1, 1, 1)
    assert [_class_size(lam) for lam in partitions(3)] == [2, 3, 1]
    for k in range(8):
        assert sum(_class_size(lam) for lam in partitions(k)) == factorial(k)


def test_character_sum_validation():
    one = TruncatedPoly.one(Packing(3, 2, 2))
    with pytest.raises(ValueError):
        segre_via_characters([one], 1)
    inhomogeneous = plus(elementary(Packing(3, 2, 2), 1), one)
    with pytest.raises(ValueError):
        segre_via_characters([one, inhomogeneous], 1)
    other_ring = TruncatedPoly.one(Packing(3, 3, 3))
    with pytest.raises(ValueError):
        segre_via_characters([one, other_ring], 1)
    with pytest.raises(ValueError):
        segre_via_characters([one], -1)


def test_character_sum_degree_zero():
    one = TruncatedPoly.one(Packing(3, 2, 2))
    segre = segre_via_characters([one.scale(5)], 0)
    assert segre.terms == {0: 1} and segre.ring == one.ring
