from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from linalg_oracle import kernel_basis, matrix_rank
from lpbdeg.exact import UniPoly, lagrange_interpolate, normalize

scalars = st.integers(min_value=-9, max_value=9)


@st.composite
def matrices(draw, max_rows=4, max_cols=4):
    rows = draw(st.integers(1, max_rows))
    cols = draw(st.integers(1, max_cols))
    return [[draw(scalars) for _ in range(cols)] for _ in range(rows)]


def _mat_vec(matrix, vec):
    return [sum(a * x for a, x in zip(row, vec)) for row in matrix]


def test_kernel_of_row():
    # one relation x + y = 0: kernel spanned by (1, -1) up to the
    # free-column normalization (free coordinate set to 1)
    basis = kernel_basis([[1, 1]])
    assert len(basis) == 1
    (v,) = basis
    assert v[1] == 1 and v[0] == -1


def test_kernel_trivial_and_full():
    assert kernel_basis([[1, 0], [0, 1]]) == []
    basis = kernel_basis([[0, 0, 0]])
    assert len(basis) == 3
    assert basis[0] == (1, 0, 0)


def test_matrix_shape_validation():
    with pytest.raises(ValueError):
        kernel_basis([[1, 2], [3]])
    with pytest.raises(ValueError):
        matrix_rank([[1], [2, 3]])
    with pytest.raises(ValueError):
        kernel_basis([])
    assert matrix_rank([]) == 0


def test_normalize_integral_fractions():
    assert type(normalize(Fraction(6, 3))) is int
    assert normalize(Fraction(6, 3)) == 2
    assert normalize(Fraction(1, 3)) == Fraction(1, 3)
    assert type(normalize(-4)) is int
    for inexact in (0.5, 2.0, Decimal(2)):
        with pytest.raises(ValueError, match="not an exact scalar"):
            normalize(inexact)


@given(matrices())
def test_kernel_vectors_annihilate(matrix):
    basis = kernel_basis(matrix)
    for vec in basis:
        assert all(v == 0 for v in _mat_vec(matrix, vec))


@given(matrices())
def test_rank_nullity(matrix):
    cols = len(matrix[0])
    assert matrix_rank(matrix) + len(kernel_basis(matrix)) == cols


def test_unipoly_basics():
    zero = UniPoly()
    assert zero.degree == -1
    assert zero.coeffs == ()
    p = UniPoly((1, 0, Fraction(2)))
    assert p.degree == 2
    assert p(3) == 19
    assert p.coefficient(1) == 0
    assert p.coefficient(5) == 0
    assert UniPoly((1, 0, 0)).degree == 0


def test_unipoly_arithmetic():
    x = UniPoly.variable()
    p = (x + UniPoly.constant(1)) * (x - UniPoly.constant(1))
    assert p == x**2 - UniPoly.constant(1)
    assert (p - p).degree == -1
    assert -p == p * -1
    assert 2 * p == p + p
    assert x**0 == UniPoly.constant(1)
    with pytest.raises(ValueError):
        x**-1


def test_unipoly_immutable_and_hashable():
    p = UniPoly((1, 2))
    with pytest.raises(AttributeError):
        p.coeffs = ()
    assert hash(p) == hash(UniPoly((1, 2)))


def test_interpolate_quadratic():
    poly = lagrange_interpolate([(0, 1), (1, 2), (2, 5)])
    assert poly == UniPoly((1, 0, 1))


def test_interpolate_rejects_repeated_nodes():
    with pytest.raises(ValueError):
        lagrange_interpolate([(1, 1), (1, 2)])


def test_interpolate_empty_is_zero():
    assert lagrange_interpolate([]) == UniPoly()


@given(
    st.lists(
        st.tuples(st.integers(-20, 20), st.fractions(max_denominator=20)),
        min_size=1,
        max_size=6,
        unique_by=lambda point: point[0],
    )
)
def test_interpolate_hits_every_node(points):
    poly = lagrange_interpolate(points)
    assert poly.degree < len(points)
    for x, y in points:
        assert poly(x) == y
