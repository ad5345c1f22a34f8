"""Integer partitions and the character-sum expression for Segre classes.

The degree-k Segre class of a bundle F is the complete homogeneous
symmetric function h_k of the roots -r of the dual F*, as 1 / prod (1 + r)
= prod 1 / (1 - (-r)) over the roots r of F.  The route takes the graded
Chern character of F in its integral form, the power sums p_j(F) = j!
ch_j(F) of the roots r, and runs Newton's identity (Macdonald, *Symmetric
Functions and Hall Polynomials*, I (2.11)) on them as they are:

    k u_k = sum over i = 1 .. k of p_i(F) u_{k-i},    u_0 = 1,

one recurrence over the grades, never a walk over the partitions of k.
Its u_k is h_k(F), the h_k of the r, and s_k(F) = (-1)^k u_k.  Proof:
p_i(F*) = (-1)^i p_i(F), as the roots of F* are the -r, and h_k is
homogeneous of degree k, so s_k(F) = h_k(F*) = (-1)^k h_k(F), one scale
of the last class.
For integer Chern roots every p_j and h_j is an integer polynomial, so
the division by j is exact on every coefficient and the recurrence stays
on ints; pieces with other rational coefficients divide into Fractions.

This route shares the Chern roots and their power sums with the Chern
class quotient route, and no product code.  Its recurrence is the same
convolution as the quotient route's Newton step and series inversion, yet
it runs on ``*`` of classes, :func:`~lpbdeg.sparse.mul_symmetric`, while
those two run on :func:`~lpbdeg.sparse.recurrence`.  So the two routes are
a cross-check of each other's products as well as of the engine.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
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

    No route calls it: it stays for the literal partition-sum oracle in
    ``tests/test_symfunc.py`` and for the set-up of ``perfbench/worker.py``,
    until those move it into ``tests/`` (ROADMAP item 1).
    """
    if k < 0:
        raise ValueError("cannot partition a negative integer")
    return tuple(_descending_parts(k, k))


def segre_via_characters(graded_characters: Sequence[TruncatedPoly], k: int) -> TruncatedPoly:
    """Degree-k Segre class s_k(F) from the integral graded Chern character of F.

    ``graded_characters[j]`` must be p_j(F) = j! ch_j(F) for every j up to
    k, as :func:`~lpbdeg.bundles.chern_character_graded` returns it.  The
    pieces must all live in the same truncated ring and be homogeneous of
    their index.
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
    complete = [TruncatedPoly.one(head.ring)]
    for j in range(1, k + 1):
        acc = dict(graded_characters[j].terms)
        for i in range(1, j):
            sparse.add(acc, (graded_characters[i] * complete[j - i]).terms)
        grade = {key: c // j if c % j == 0 else Fraction(c, j) for key, c in acc.items()}
        complete.append(TruncatedPoly._raw(head.ring, grade))
    return complete[k].scale((-1) ** k)
