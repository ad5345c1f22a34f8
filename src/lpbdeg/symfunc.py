"""Integer partitions and the character-sum expression for Segre classes.

The degree-k Segre class of a bundle F can be written as a weighted sum over
partitions of k of products of graded Chern character pieces of the dual
bundle:

    s_k(F) = sum over partitions lam of k of
             w(lam) * ch_{lam_1}(F*) * ch_{lam_2}(F*) * ...

with the purely combinatorial weight computed by :func:`weight_w`.  This
route shares nothing with the Chern class quotient route beyond the root
data, which makes it a genuine cross-check of the engine.

The sum is evaluated on integers.  Since w(lam) / prod lam_i! = 1/z_lam
(Macdonald, *Symmetric Functions and Hall Polynomials*, I.2), scaling each
piece to the power sum p_j = j! ch_j(F*) gives

    k! s_k(F) = sum over lam of (k!/z_lam) * p_{lam_1} * p_{lam_2} * ...

where k!/z_lam, the number of permutations of cycle type lam, is an
integer.  For integer Chern roots every product then runs on ints, and one
division by k! ends the sum.  Consecutive partitions in reverse
lexicographic order share leading parts, so their prefix products are
shared as well.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from functools import lru_cache
from math import factorial, prod
from typing import Iterator, Sequence

from . import sparse
from .exact import Scalar
from .polyring import TruncatedPoly


def _descending_parts(total: int, largest: int) -> Iterator[tuple[int, ...]]:
    if total == 0:
        yield ()
        return
    for first in range(min(total, largest), 0, -1):
        for rest in _descending_parts(total - first, first):
            yield (first,) + rest


@lru_cache(maxsize=None)
def partitions(k: int) -> tuple[tuple[int, ...], ...]:
    """All partitions of ``k`` in reverse lexicographic order.

    A partition is a weakly decreasing tuple of positive parts.  For k = 3
    the order is (3,), (2, 1), (1, 1, 1).  The result is a cached immutable
    tuple, so repeated calls are free and safe to share.
    """
    if k < 0:
        raise ValueError("cannot partition a negative integer")
    return tuple(_descending_parts(k, k))


def weight_w(lam: tuple[int, ...]) -> Fraction:
    """The weight attached to a partition in the Segre character sum.

    With m_i the multiplicity of the part i,

        w(lam) = prod over distinct parts i of  (i!)^{m_i} / (i^{m_i} m_i!).

    Checked values: w(2) = 1, w(1,1) = 1/2, w(3) = 2, w(2,1) = 1,
    w(1,1,1) = 1/6.
    """
    num = 1
    den = 1
    for part, mult in Counter(lam).items():
        num *= factorial(part) ** mult
        den *= part**mult * factorial(mult)
    return Fraction(num, den)


def _class_size(lam: tuple[int, ...]) -> int:
    """``k!/z_lam`` for a partition of k, which is ``k! w(lam) / prod lam_i!``."""
    size = factorial(sum(lam)) * weight_w(lam) / prod(factorial(part) for part in lam)
    return size.numerator


def segre_via_characters(graded_characters: Sequence[TruncatedPoly], k: int) -> TruncatedPoly:
    """Degree-k Segre class from graded Chern characters of the dual bundle.

    ``graded_characters[j]`` must be the degree-j graded piece of ch(F*) for
    every j up to k.  The pieces must all live in the same truncated ring and
    be homogeneous of their index.
    """
    if k < 0:
        raise ValueError("negative Segre degree")
    if len(graded_characters) <= k:
        raise ValueError(f"need graded characters up to degree {k}")
    head = graded_characters[0]
    for j, piece in enumerate(graded_characters[: k + 1]):
        if piece.ring != head.ring:
            raise ValueError("graded characters live in different rings")
        if not piece.is_homogeneous(j):
            raise ValueError(f"graded piece {j} is not homogeneous of degree {j}")
    if k == 0:
        return TruncatedPoly._raw(head.ring, {0: 1})
    power_sums = [piece.scale(factorial(j)) for j, piece in enumerate(graded_characters[: k + 1])]
    # k! s_k, accumulated in place
    total: dict[int, Scalar] = {}
    # products[i] is the product of the first i + 1 parts of ``previous``
    products: list[TruncatedPoly] = []
    previous: tuple[int, ...] = ()
    for lam in partitions(k):
        shared = 0
        while shared < len(previous) and lam[shared] == previous[shared]:
            shared += 1
        del products[shared:]
        for part in lam[shared:]:
            products.append(products[-1] * power_sums[part] if products else power_sums[part])
        size = _class_size(lam)
        sparse.add(total, products[-1].terms, size)
        previous = lam
    return TruncatedPoly._raw(head.ring, total).scale(Fraction(1, factorial(k)))
