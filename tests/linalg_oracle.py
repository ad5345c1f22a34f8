"""Exact rational Gaussian elimination, kept as a test oracle.

The package needs no linear algebra: the form-space basis is written down in
closed form and the rank-3 check of a projection searches for a nonzero
3 x 3 minor.  The tests check both against this independent elimination.

Matrices are sequences of equal-length rows.  Elimination uses exact pivots
and a fixed pivot-selection rule (first nonzero entry in column order), so
every routine here is deterministic for a fixed input.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

Scalar = int | Fraction


def _to_matrix(rows: Sequence[Sequence[Scalar]]) -> list[list[Fraction]]:
    """Copy ``rows`` into a rectangular matrix of Fractions."""
    out = [[Fraction(x) for x in row] for row in rows]
    widths = {len(row) for row in out}
    if len(widths) > 1:
        raise ValueError("matrix rows have unequal lengths")
    return out


def _rref(rows: list[list[Fraction]]) -> tuple[list[list[Fraction]], list[int]]:
    """Reduce the nonempty matrix ``rows`` in place to reduced row echelon form.

    Returns the reduced rows together with the list of pivot columns, in
    increasing order.
    """
    pivots: list[int] = []
    r = 0
    for col in range(len(rows[0])):
        hit = None
        for i in range(r, len(rows)):
            if rows[i][col] != 0:
                hit = i
                break
        if hit is None:
            continue
        rows[r], rows[hit] = rows[hit], rows[r]
        lead = rows[r][col]
        if lead != 1:
            rows[r] = [x / lead for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][col] != 0:
                f = rows[i][col]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        pivots.append(col)
        r += 1
        if r == len(rows):
            break
    return rows, pivots


def kernel_basis(matrix: Sequence[Sequence[Scalar]]) -> list[tuple[Fraction, ...]]:
    """Basis of the right kernel ``{x : matrix @ x = 0}``.

    The basis is normalized so that each vector has value 1 in one free
    column of the echelon form and 0 in every other free column; vectors are
    returned in increasing order of that free column.  An empty list means
    the kernel is trivial.
    """
    rows = _to_matrix(matrix)
    if not rows:
        raise ValueError("kernel_basis needs at least one row to fix the column count")
    ncols = len(rows[0])
    reduced, pivots = _rref(rows)
    pivot_set = set(pivots)
    basis = []
    for free in range(ncols):
        if free in pivot_set:
            continue
        v = [Fraction(0)] * ncols
        v[free] = Fraction(1)
        for i, col in enumerate(pivots):
            v[col] = -reduced[i][free]
        basis.append(tuple(v))
    return basis


def matrix_rank(matrix: Sequence[Sequence[Scalar]]) -> int:
    """Rank of the matrix over the rationals."""
    rows = _to_matrix(matrix)
    if not rows:
        return 0
    _, pivots = _rref(rows)
    return len(pivots)
