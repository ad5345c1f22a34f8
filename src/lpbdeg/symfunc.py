"""Integer partitions and the character-sum expression for Segre classes.

The degree-k Segre class of a bundle F is a weighted sum over the
partitions lam of k of products of graded Chern character pieces of the
dual bundle.  Scaling each piece to the power sum p_j = j! ch_j(F*) makes
the weights integers (Macdonald, *Symmetric Functions and Hall
Polynomials*, I.2):

    k! s_k(F) = sum over lam |- k of (k!/z_lam) * p_lam,

where k!/z_lam counts the permutations of cycle type lam.  This route
shares the Chern roots and their power sums with the Chern class quotient
route, and none of its Newton step, series inversion or products, which
makes it a cross-check of the engine.

The sum is not walked partition by partition.  It factors by part size
through the exponential formula (Macdonald I.2.10)

    sum_k h_k t^k = prod over r >= 1 of exp(p_r t^r / r),

so one dynamic program over the largest allowed part M evaluates it.  Let
F_M(j) = j! * sum over lam |- j with parts <= M of p_lam / z_lam, with F_0
equal to 1 in grade 0 and 0 elsewhere.  Splitting off the m parts equal
to M gives

    F_M(j) = sum over m = 0 .. j // M of
             C(j, mM) * c(M, m) * p_M^m * F_{M-1}(j - mM),
    c(M, m) = (mM)! / (M^m m!),

and k! s_k(F) = F_k(k).  c(M, m) is an integer: it counts the permutations
of mM points made of m cycles of length M (split the points into m
unordered blocks of M, (mM)! / ((M!)^m m!) ways, then order each block
into a cycle, (M - 1)! ways).  For integer Chern roots every product thus
runs on ints, and one division by k! ends the sum.  A state F_M(j) with
j < k is read later only when k - j >= M + 1, so no other state is formed,
and the powers p_M^m cost one product each.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import factorial
from typing import Iterator, Sequence

from . import sparse
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
    ring = head.ring
    # states[j] is F_M(j) for the largest part M done so far; it starts as F_0
    states: dict[int, TruncatedPoly] = {0: TruncatedPoly._raw(ring, {0: 1})}
    for part in range(1, k + 1):
        # powers[m - 1] = p_M^m, one product each
        powers = [graded_characters[part].scale(factorial(part))]
        for _ in range(k // part - 1):
            powers.append(powers[-1] * powers[0])
        # only j = k and j <= k - M - 1 are read later (states below M keep
        # their value); top down, so each state reads F_{M-1} below it
        for j in (k, *range(k - part - 1, part - 1, -1)):
            acc = dict(states[j].terms) if j in states else {}
            for m, power in enumerate(powers[: j // part], 1):
                rest = states.get(j - m * part)
                if rest is None or rest.is_zero:
                    continue
                weight = factorial(j) // (factorial(j - m * part) * part**m * factorial(m))
                sparse.add(acc, (power if j == m * part else power * rest).terms, weight)
            states[j] = TruncatedPoly._raw(ring, acc)
    return states[k].scale(Fraction(1, factorial(k)))
