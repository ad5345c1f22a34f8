from collections import Counter
from fractions import Fraction
from itertools import permutations
from math import factorial, prod

import pytest
from hypothesis import given
from hypothesis import strategies as st

from lpbdeg import sparse
from lpbdeg.bundles import chern_character_graded, dual
from lpbdeg.foliation import pullback_forms_bundle
from lpbdeg.grassmann import GrassContext
from lpbdeg.polyring import (
    TruncatedPoly,
    elementary_symmetric,
    exponents_of_degree,
    inverse_unit_series,
    product_shifted_linear,
)
from lpbdeg.symfunc import partitions, segre_via_characters


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


def symmetrize(terms):
    """The sum of every distinct image of each term under permuting the variables."""
    out = {}
    for e, c in terms.items():
        for image in set(permutations(e)):
            out[image] = out.get(image, 0) + c
    return out


def _graded_characters_of_dual(forms, cap, upto):
    """ch pieces of the dual of the bundle with the given roots, each power multiplied out."""
    ring = sparse.Packing(3, cap, cap)
    sums = [{} for _ in range(upto + 1)]
    for f in forms:
        negated = {ring.var(v): -a for v, a in enumerate(f) if a}
        power = {0: 1}
        for p in sums:
            sparse.add(p, power)
            power = sparse.mul(power, negated, ring.keep)
    return [TruncatedPoly(3, cap, ring.unpack_terms(p)).scale(Fraction(1, factorial(j))) for j, p in enumerate(sums)]


small = st.integers(min_value=-2, max_value=2)


@given(
    st.lists(st.tuples(small, small, small), min_size=1, max_size=4),
    st.integers(0, 3),
)
def test_character_sum_matches_inverted_chern_series(form_coeffs, k):
    # independent oracle: the Segre series as the inverse of the total
    # Chern class, versus the partition-weighted character sum; each form
    # comes with its images under permuting the variables
    form_coeffs = [image for form in form_coeffs for image in sorted(set(permutations(form)))]
    total_chern = product_shifted_linear(Counter(form_coeffs), k, 3)
    expected = inverse_unit_series(total_chern).graded_part(k)
    pieces = _graded_characters_of_dual(form_coeffs, k, k)
    assert segre_via_characters(pieces, k) == expected


def _segre_reference(pieces, k):
    # the partition-weighted sum read literally, on the unscaled pieces
    # in the pieces' own ring, whose exponent box may be below the cap
    ring = pieces[0].ring
    total = TruncatedPoly.zero(ring.nvars, ring.bound, box=ring.box)
    for lam in partitions(k):
        product = TruncatedPoly.one(ring.nvars, ring.bound, box=ring.box)
        for part in lam:
            product = product * pieces[part]
        total = total + product.scale(weight_w(lam))
    return total


@st.composite
def graded_pieces(draw):
    k = draw(st.integers(0, 6))
    nvars = draw(st.integers(1, 3))
    cap = k + draw(st.integers(0, 1))
    coeffs = st.fractions(min_value=-5, max_value=5, max_denominator=30)
    pieces = []
    for j in range(k + 1):
        monomials = list(exponents_of_degree(nvars, j))
        chosen = draw(st.lists(st.sampled_from(monomials), max_size=3, unique=True))
        pieces.append(TruncatedPoly(nvars, cap, symmetrize({e: draw(coeffs) for e in chosen})))
    return pieces, k


@given(graded_pieces())
def test_character_sum_matches_literal_partition_sum(case):
    # arbitrary Fraction pieces, so j! * c is often not integral and the
    # integer sum has to fall back to Fractions without changing the value
    pieces, k = case
    assert segre_via_characters(pieces, k) == _segre_reference(pieces, k)


def test_character_sum_matches_literal_partition_sum_on_the_grassmannian():
    # the pieces of the pulled-back-forms bundle at (n, d) = (6, 2), g = 12:
    # every k up to g, so every step of the recurrence is exercised, not
    # only the k <= 6 the random pieces reach; the roots are integers, so
    # every h_k is an integer polynomial and the class holds ints only
    ctx = GrassContext(3, 7)
    pieces = chern_character_graded(dual(pullback_forms_bundle(2)), ctx, ctx.g, ctx.g)
    for k in range(ctx.g + 1):
        segre = segre_via_characters(pieces, k)
        assert segre == _segre_reference(pieces, k), k
        assert all(type(c) is int for c in segre.terms.values()), k


def test_class_sizes_count_permutations():
    # k!/z_lam is the size of a conjugacy class of S_k: (3), (2, 1), (1, 1, 1)
    assert [_class_size(lam) for lam in partitions(3)] == [2, 3, 1]
    for k in range(8):
        assert sum(_class_size(lam) for lam in partitions(k)) == factorial(k)


def test_character_sum_validation():
    one = TruncatedPoly.one(3, 2)
    with pytest.raises(ValueError):
        segre_via_characters([one], 1)
    inhomogeneous = elementary_symmetric(3, 2, 1) + one
    with pytest.raises(ValueError):
        segre_via_characters([one, inhomogeneous], 1)
    other_ring = TruncatedPoly.one(3, 3)
    with pytest.raises(ValueError):
        segre_via_characters([one, other_ring], 1)
    with pytest.raises(ValueError):
        segre_via_characters([one], -1)


def test_character_sum_degree_zero():
    one = TruncatedPoly.one(3, 2)
    assert segre_via_characters([one.scale(5)], 0) == one
