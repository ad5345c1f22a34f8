import gc
from decimal import Decimal
from fractions import Fraction
from itertools import combinations
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from linalg_oracle import kernel_basis, matrix_rank
from lpbdeg import forms, sparse
from lpbdeg.forms import (
    LinearProjection,
    ProjectiveOneForm,
    contract_radial,
    dimension_vdn,
    form_space_basis,
    integrability_defect,
    poly_mul,
    pullback_linear,
    random_form,
    random_projection,
    recover,
    substitute_linear,
)
from lpbdeg.polyring import exponents_of_degree
from lpbdeg.sparse import Packing


def _form(n, d, *polys):
    return ProjectiveOneForm(n, d, tuple(polys))


def test_dimension_examples():
    assert dimension_vdn(2, 2) == 15
    assert dimension_vdn(2, 0) == 3
    assert dimension_vdn(3, 1) == 20
    assert dimension_vdn(2, 1) == 8
    assert dimension_vdn(3, 0) == 6
    with pytest.raises(ValueError):
        dimension_vdn(1, 2)
    with pytest.raises(ValueError):
        dimension_vdn(2, -1)


def test_plane_dimension_matches_bundle_rank():
    for d in range(0, 11):
        assert dimension_vdn(2, d) == (d + 1) * (d + 3)


def test_form_validation():
    with pytest.raises(ValueError):
        _form(2, 0, {}, {})  # wrong coefficient count
    with pytest.raises(ValueError):
        _form(2, 0, {(1, 0, 0): 1, (2, 0, 0): 1}, {}, {})  # inhomogeneous
    with pytest.raises(ValueError):
        _form(2, 0, {(1, 0): 1}, {}, {})  # bad exponent arity
    with pytest.raises(ValueError):
        _form(1, 0, {(1, 0): 1}, {})  # ambient too small
    with pytest.raises(ValueError):
        _form(2, -1, {}, {}, {})
    # a zero coefficient is dropped only after its exponent is checked
    with pytest.raises(ValueError, match=r"bad exponent \(1, 0\) for ambient dimension 2"):
        _form(2, 0, {(1, 0): 0}, {}, {})
    with pytest.raises(ValueError, match="bad exponent"):
        _form(2, 0, {}, {(2, -1, 0): 0}, {})
    # homogeneous of degree 2, but not integral
    with pytest.raises(ValueError, match=r"bad exponent \(0.5, 0.5, 1\) for ambient dimension 2"):
        _form(2, 1, {(0.5, 0.5, 1): 1}, {}, {})


@pytest.mark.parametrize("c", [0.5, -0.5, 1.0, 0.0, Decimal(1), Decimal("0.5")])
def test_form_rejects_inexact_coefficients(c):
    # a float or Decimal coefficient, even an integral one or zero, is not exact
    with pytest.raises(ValueError, match="not an exact scalar"):
        _form(2, 0, {(0, 1, 0): c}, {(1, 0, 0): 1}, {})


def test_form_rejects_a_float_scale():
    form = _form(2, 0, {(0, 1, 0): 1}, {(1, 0, 0): -1}, {})
    # zero too: the scalar is checked before the zero shortcut
    for c in (0.5, 1.0, 0.0, Decimal(0)):
        with pytest.raises(ValueError, match="not an exact scalar"):
            form.scale(c)


def test_form_prunes_zero_terms():
    form = _form(2, 0, {(1, 0, 0): 0}, {(0, 1, 0): 2}, {})
    assert form.coeffs[0] == {}
    assert form.coeffs[1] == {(0, 1, 0): 2}
    assert not form.is_zero
    assert ProjectiveOneForm(2, 1, ({}, {}, {})).is_zero


def test_contract_radial_examples():
    # -Z1 dZ0 + Z0 dZ1 lies in the form space
    euler = _form(2, 0, {(0, 1, 0): -1}, {(1, 0, 0): 1}, {})
    assert contract_radial(euler) == {}
    # Z0 dZ0 points radially
    radial = _form(2, 0, {(1, 0, 0): 1}, {}, {})
    assert contract_radial(radial) == {(2, 0, 0): 1}
    # sum of antisymmetric pairs
    paired = _form(2, 0, {(0, 0, 1): 1}, {(0, 0, 1): 1}, {(1, 0, 0): -1, (0, 1, 0): -1})
    assert contract_radial(paired) == {}


def test_integrability_defect_of_projected_product_form():
    # Z1 Z2 dZ0 - Z0 Z2 dZ1 with the last two coefficients zero is the
    # pullback of a plane form under a coordinate projection, so every
    # defect vanishes after expansion
    form = _form(3, 1, {(0, 1, 1, 0): 1}, {(1, 0, 1, 0): -1}, {}, {})
    assert contract_radial(form) == {}
    defects = integrability_defect(form)
    assert set(defects) == {(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)}
    assert all(p == {} for p in defects.values())
    assert not any(integrability_defect(form).values())


def test_integrability_defect_of_contact_form():
    # the classical contact form is nowhere integrable; defects derived by
    # hand: F_012 = -2 Z3, F_013 = 2 Z2, F_023 = -2 Z1, F_123 = 2 Z0
    form = _form(
        3, 0, {(0, 1, 0, 0): 1}, {(1, 0, 0, 0): -1}, {(0, 0, 0, 1): 1}, {(0, 0, 1, 0): -1}
    )
    assert contract_radial(form) == {}
    defects = integrability_defect(form)
    assert defects[(0, 1, 2)] == {(0, 0, 0, 1): -2}
    assert defects[(0, 1, 3)] == {(0, 0, 1, 0): 2}
    assert defects[(0, 2, 3)] == {(0, 1, 0, 0): -2}
    assert defects[(1, 2, 3)] == {(1, 0, 0, 0): 2}
    assert any(integrability_defect(form).values())


def _all_triples_defect(form):
    # the oracle: every triple of C(n+1, 3) formed, with no use of the
    # radial identity
    nv = form.n + 1
    ring = Packing(nv, 2 * form.d + 1)
    coeffs = [ring.pack_terms(a) for a in form.coeffs]
    curl = {
        (j, k): sparse.add(sparse.diff(coeffs[k], ring, j), sparse.diff(coeffs[j], ring, k), -1)
        for j, k in combinations(range(nv), 2)
    }
    out = {}
    for i, j, k in combinations(range(nv), 3):
        term = poly_mul(coeffs[i], curl[j, k])
        sparse.add(term, poly_mul(coeffs[j], curl[i, k]), -1)
        sparse.add(term, poly_mul(coeffs[k], curl[i, j]))
        out[(i, j, k)] = ring.unpack_terms(term)
    return out


@st.composite
def _defect_inputs(draw):
    # four kinds: random members of the radial kernel (generically not
    # integrable for n >= 3), the same with some coefficients zeroed (pivots
    # above 1, or none at all), pullbacks (integrable), and free coefficient
    # vectors (generically off the radial kernel)
    kind = draw(st.sampled_from(["kernel", "zeroed", "pullback", "free"]))
    d = draw(st.integers(0, 2))
    seed = draw(st.integers(0, 10**6))
    if kind == "kernel":
        return random_form(draw(st.integers(2, 5)), d, seed)
    if kind == "zeroed":
        n = draw(st.integers(2, 5))
        zeroed = draw(st.sets(st.integers(0, n)))
        coeffs = random_form(n, d, seed).coeffs
        return _form(n, d, *({} if i in zeroed else a for i, a in enumerate(coeffs)))
    if kind == "pullback":
        n = draw(st.integers(2, 5))
        return pullback_linear(random_projection(n, seed + 1), random_form(2, d, seed))
    n = draw(st.integers(2, 4))
    monos = list(exponents_of_degree(n + 1, d + 1))
    scalars = st.one_of(st.integers(-3, 3), st.fractions(-2, 2, max_denominator=3))
    terms = st.dictionaries(st.sampled_from(monos), scalars, max_size=4)
    return _form(n, d, *[draw(terms) for _ in range(n + 1)])


@given(_defect_inputs())
def test_integrability_defect_matches_all_triples(form):
    got = integrability_defect(form)
    assert list(got.items()) == list(_all_triples_defect(form).items())


def test_integrability_defect_off_the_radial_kernel():
    # Z0 dZ2 + Z2 dZ3 on P^3: contraction Z0 Z2 + Z2 Z3 is nonzero and the
    # only nonzero triple contains 0, so a reduction that skips the triples
    # with 0 without testing the contraction reports this form integrable
    form = _form(3, 0, {}, {}, {(1, 0, 0, 0): 1}, {(0, 0, 1, 0): 1})
    assert contract_radial(form) == {(1, 0, 1, 0): 1, (0, 0, 1, 1): 1}
    assert integrability_defect(form) == {
        (0, 1, 2): {},
        (0, 1, 3): {},
        (0, 2, 3): {(0, 0, 1, 0): 1},
        (1, 2, 3): {},
    }


def test_integrability_defect_skips_a_zero_pivot():
    # Z4 dZ0 + Z3 dZ2 - Z2 dZ3 - Z0 dZ4 on P^4: the contraction is zero and
    # A_1 = 0, so every triple through 1 vanishes; a pivot taken without
    # testing A_p != 0 reports this form integrable
    form = _form(
        4,
        0,
        {(0, 0, 0, 0, 1): 1},
        {},
        {(0, 0, 0, 1, 0): 1},
        {(0, 0, 1, 0, 0): -1},
        {(1, 0, 0, 0, 0): -1},
    )
    assert contract_radial(form) == {}
    assert integrability_defect(form) == {
        (0, 1, 2): {},
        (0, 1, 3): {},
        (0, 1, 4): {},
        (0, 2, 3): {(0, 0, 0, 0, 1): -2},
        (0, 2, 4): {(0, 0, 0, 1, 0): 2},
        (0, 3, 4): {(0, 0, 1, 0, 0): -2},
        (1, 2, 3): {},
        (1, 2, 4): {},
        (1, 3, 4): {},
        (2, 3, 4): {(1, 0, 0, 0, 0): 2},
    }


def _count_products(monkeypatch):
    calls = []
    full = forms.poly_mul

    def counted(p, q):
        calls.append(1)
        return full(p, q)

    monkeypatch.setattr(forms, "poly_mul", counted)
    return calls


@pytest.mark.parametrize("n, expected", [(3, 3), (4, 9), (5, 18)])
def test_integrability_of_a_pullback_forms_only_the_pivot_triples(n, expected, monkeypatch):
    # 3 products for each of the C(n-1, 2) triples without 0 through the pivot
    mu = pullback_linear(random_projection(n, 7 * n), random_form(2, 2, n))
    calls = _count_products(monkeypatch)
    assert not any(integrability_defect(mu).values())
    assert len(calls) == expected == 3 * comb(n - 1, 2)


@pytest.mark.parametrize("d, expected", [(1, 9), (2, 19), (3, 34)])
def test_pullback_builds_each_monomial_image_once(d, expected, monkeypatch):
    # one product per monomial of degree 1..d+1 in the 3 plane variables,
    # shared by the three coefficients
    omega, proj = random_form(2, d, 40 + d), random_projection(4, 50 + d)
    calls = _count_products(monkeypatch)
    pullback_linear(proj, omega)
    assert len(calls) == expected == comb(d + 4, 3) - 1


@pytest.mark.parametrize("d, expected", [(1, 18), (2, 38), (3, 68)])
def test_recover_builds_each_plane_monomial_image_once_per_pullback(d, expected, monkeypatch):
    # the substitution along the section forms products only for monomials
    # in the three variables of the chosen column triple; one through a
    # variable with a zero row maps to zero without a product
    omega, proj = random_form(2, d, 40 + d), random_projection(4, 50 + d)
    mu = pullback_linear(proj, omega)
    calls = _count_products(monkeypatch)
    assert recover(proj, mu) == omega
    assert len(calls) == expected == 2 * (comb(d + 4, 3) - 1)


def test_integrability_of_logarithmic_type_form():
    # G dF - F dG with F = Z0, G = Z1 on n = 3
    form = _form(3, 0, {(0, 1, 0, 0): 1}, {(1, 0, 0, 0): -1}, {}, {})
    assert contract_radial(form) == {}
    assert not any(integrability_defect(form).values())


@settings(max_examples=20)
@given(st.integers(0, 3), st.integers(0, 10**9))
def test_plane_forms_are_integrable(d, seed):
    form = random_form(2, d, seed)
    assert contract_radial(form) == {}
    assert not any(integrability_defect(form).values())


def test_form_space_basis_shapes():
    for n, d in ((2, 0), (2, 1), (2, 2), (2, 3), (3, 0), (3, 1)):
        basis = form_space_basis(n, d)
        assert len(basis) == dimension_vdn(n, d)
        for b in basis:
            assert contract_radial(b) == {}


def test_form_space_basis_size_check_survives_optimization(monkeypatch):
    # a basis one form short is an internal fault, raised even under -O
    full = forms.dimension_vdn
    monkeypatch.setattr(forms, "dimension_vdn", lambda n, d: full(n, d) + 1)
    form_space_basis.cache_clear()
    try:
        with pytest.raises(RuntimeError):
            form_space_basis(2, 1)
    finally:
        form_space_basis.cache_clear()


def _elimination_basis(n, d):
    # the normalized kernel of the 0/1 contraction matrix, columns ordered
    # by coefficient index and then by monomial
    nv = n + 1
    monos = list(exponents_of_degree(nv, d + 1))
    index = {e: r for r, e in enumerate(exponents_of_degree(nv, d + 2))}
    matrix = [[0] * (nv * len(monos)) for _ in index]
    for i in range(nv):
        for m, e in enumerate(monos):
            matrix[index[e[:i] + (e[i] + 1,) + e[i + 1 :]]][i * len(monos) + m] = 1
    return [
        tuple(
            {e: vec[i * len(monos) + m] for m, e in enumerate(monos) if vec[i * len(monos) + m]}
            for i in range(nv)
        )
        for vec in kernel_basis(matrix)
    ]


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_form_space_basis_equals_elimination_kernel(n):
    # the closed form is the elimination's basis: same forms, order and signs
    for d in range(4):
        assert [b.coeffs for b in form_space_basis(n, d)] == _elimination_basis(n, d)


@st.composite
def small_rows(draw):
    # 3 x (n+1) with entries in [-2, 2], some Fractions; about a quarter singular
    width = draw(st.integers(3, 5))
    entry = st.one_of(st.integers(-2, 2), st.fractions(-2, 2, max_denominator=3))
    return [[draw(entry) for _ in range(width)] for _ in range(3)]


@given(small_rows())
def test_projection_rank_check_matches_elimination(rows):
    # small entries make many matrices singular; the minor search must
    # reject exactly those of rank below 3
    if matrix_rank(rows) == 3:
        assert LinearProjection(rows).rows == tuple(tuple(row) for row in rows)
    else:
        with pytest.raises(ValueError):
            LinearProjection(rows)


def test_pullback_and_recover_leave_no_garbage_cycles():
    omega = random_form(2, 2, 3)
    proj = random_projection(4, 4)
    gc.collect()
    gc.disable()
    try:
        mu = pullback_linear(proj, omega)
        assert gc.collect() == 0
        assert recover(proj, mu) == omega
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_random_form_deterministic():
    a = random_form(2, 1, 123)
    b = random_form(2, 1, 123)
    c = random_form(2, 1, 124)
    assert a == b
    assert a != c
    assert contract_radial(a) == {}


def test_random_projection_deterministic_and_full_rank():
    a = random_projection(4, 9)
    b = random_projection(4, 9)
    assert a == b
    assert matrix_rank(a.rows) == 3
    assert a.n == 4
    with pytest.raises(ValueError):
        random_projection(1, 9)  # no rank-3 map from P^1


def test_projection_validation():
    with pytest.raises(ValueError):
        LinearProjection(((1, 0, 0), (0, 1, 0)))  # not 3 rows
    with pytest.raises(ValueError):
        LinearProjection(((1, 0), (0, 1), (1, 1)))  # width below 3
    with pytest.raises(ValueError):
        LinearProjection(((1, 0, 0, 0), (0, 1, 0, 0), (1, 1, 0, 0)))  # rank 2
    # a float is not read as its binary value, nor a string parsed
    for c in (0.1, 1.0, "1/2", Decimal("0.5")):
        with pytest.raises(ValueError, match="not an exact scalar"):
            LinearProjection(((c, 0, 0), (0, 1, 0), (0, 0, 1)))
    proj = LinearProjection(((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, Fraction(1, 2), 0)))
    assert proj.n == 3


def test_pullback_along_coordinate_projection():
    omega = random_form(2, 2, 5)
    proj = LinearProjection(((1, 0, 0, 0, 0), (0, 1, 0, 0, 0), (0, 0, 1, 0, 0)))
    mu = pullback_linear(proj, omega)
    assert mu.n == 4 and mu.d == 2
    for i in range(3):
        expected = {e + (0, 0): c for e, c in omega.coeffs[i].items()}
        assert mu.coeffs[i] == expected
    assert mu.coeffs[3] == {}
    assert mu.coeffs[4] == {}


def test_pullback_along_identity_is_identity():
    omega = random_form(2, 1, 11)
    proj = LinearProjection(((1, 0, 0), (0, 1, 0), (0, 0, 1)))
    assert pullback_linear(proj, omega) == omega


def test_pullback_validation():
    proj = LinearProjection(((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0)))
    not_plane = random_form(3, 1, 3)
    with pytest.raises(ValueError):
        pullback_linear(proj, not_plane)
    radial = _form(2, 0, {(1, 0, 0): 1}, {}, {})
    with pytest.raises(ValueError):
        pullback_linear(proj, radial)


@settings(max_examples=15)
@given(st.integers(0, 2), st.integers(3, 4), st.integers(0, 10**6))
def test_pullback_lands_in_form_space(d, n, seed):
    omega = random_form(2, d, seed)
    proj = random_projection(n, seed + 1)
    mu = pullback_linear(proj, omega)
    assert mu.n == n and mu.d == d
    assert contract_radial(mu) == {}
    assert not any(integrability_defect(mu).values())


def test_pullback_is_linear_and_injective():
    # flatten pullbacks of the basis and check full column rank
    n, d = 3, 1
    proj = random_projection(n, 77)
    basis = form_space_basis(2, d)
    monos = list(exponents_of_degree(n + 1, d + 1))
    columns = []
    for b in basis:
        mu = pullback_linear(proj, b)
        flat = []
        for a in mu.coeffs:
            flat.extend(a.get(e, 0) for e in monos)
        columns.append(flat)
    matrix = [list(row) for row in zip(*columns)]
    assert matrix_rank(matrix) == len(basis) == dimension_vdn(2, d)


def test_substitute_linear_validation():
    with pytest.raises(ValueError):
        substitute_linear([{(1,): 1}], [(1, 0), (0, 1)], 2)
    with pytest.raises(ValueError):
        substitute_linear([{(1, 0): 1}], [(1, 0, 0), (0, 1)], 3)
    with pytest.raises(ValueError):
        substitute_linear([{(1, 0): 1}, {(1,): 1}], [(1, 0), (0, 1)], 2)


def test_substitute_linear_expands_products():
    # x*y and x under x -> u+v, y -> u-v become u^2 - v^2 and u + v
    got = substitute_linear([{(1, 1): 1}, {(1, 0): 1}], [(1, 1), (1, -1)], 2)
    assert got == [{(2, 0): 1, (0, 2): -1}, {(1, 0): 1, (0, 1): 1}]
    assert substitute_linear([], [(1, 1), (1, -1)], 2) == []


@settings(max_examples=30)
@given(
    st.lists(
        st.dictionaries(st.tuples(*[st.integers(0, 3)] * 3), st.integers(-5, 5), max_size=6),
        max_size=4,
    ),
    st.lists(st.tuples(*[st.integers(-3, 3)] * 4), min_size=3, max_size=3),
)
def test_substitute_linear_batch_equals_one_at_a_time(polys, rows):
    # the shared memo changes nothing: inhomogeneous inputs of different
    # degrees included
    assert substitute_linear(polys, rows, 4) == [substitute_linear([p], rows, 4)[0] for p in polys]


def _expanded(poly, rows, width):
    # each monomial multiplied out factor by factor, on exponent tuples
    out = {}
    for e, c in poly.items():
        term = {(0,) * width: c}
        for row, power in zip(rows, e):
            for _ in range(power):
                product = {}
                for k, v in term.items():
                    for j, a in enumerate(row):
                        key = k[:j] + (k[j] + 1,) + k[j + 1 :]
                        product[key] = product.get(key, 0) + v * a
                term = product
        for k, v in term.items():
            out[k] = out.get(k, 0) + v
    return {k: v for k, v in out.items() if v}


@settings(max_examples=30)
@given(
    st.lists(
        st.dictionaries(st.tuples(*[st.integers(0, 3)] * 3), st.integers(-5, 5), max_size=6),
        max_size=4,
    ),
    st.lists(
        st.one_of(st.just((0, 0, 0, 0)), st.tuples(*[st.integers(-3, 3)] * 4)),
        min_size=3,
        max_size=3,
    ),
)
def test_substitute_linear_matches_expansion(polys, rows):
    # degree-by-degree images against multiplying every monomial out, with
    # zero rows, constant terms and inputs of different degrees
    assert substitute_linear(polys, rows, 4) == [_expanded(p, rows, 4) for p in polys]


def test_poly_mul_cancellation():
    ring = Packing(2, 2)
    a = ring.pack_terms({(1, 0): 1, (0, 1): 1})
    b = ring.pack_terms({(1, 0): 1, (0, 1): -1})
    assert ring.unpack_terms(poly_mul(a, b)) == {(2, 0): 1, (0, 2): -1}


def test_recover_round_trip_coordinate_case():
    omega = _form(2, 0, {(0, 1, 0): -1}, {(1, 0, 0): 1}, {})
    proj = LinearProjection(((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0)))
    mu = pullback_linear(proj, omega)
    assert recover(proj, mu) == omega


@settings(max_examples=15)
@given(st.integers(0, 3), st.integers(0, 10**6))
def test_recover_round_trip_random(d, seed):
    omega = random_form(2, d, seed)
    proj = random_projection(3, seed + 13)
    mu = pullback_linear(proj, omega)
    assert recover(proj, mu) == omega


def test_recover_round_trip_rational_projection():
    omega = random_form(2, 2, 21)
    proj = LinearProjection(
        (
            (Fraction(1, 2), 0, 0, 3),
            (0, Fraction(2, 3), 1, 0),
            (1, 0, Fraction(1, 5), 0),
        )
    )
    mu = pullback_linear(proj, omega)
    assert recover(proj, mu) == omega


@pytest.mark.parametrize("d", [0, 1, 2])
def test_recover_round_trip_through_a_later_column_triple(d):
    # the column triples (0, 1, 2) and (0, 1, 3) are singular, so the
    # section is built at (0, 2, 3)
    omega = random_form(2, d, 9)
    proj = LinearProjection(((1, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)))
    mu = pullback_linear(proj, omega)
    assert recover(proj, mu) == omega


def test_recover_rejects_generic_forms():
    # the pullback image is a proper subspace of the ambient form space, so
    # a generic sample is not a pullback; these seeds were checked once and
    # frozen
    for d, seed in ((1, 42), (2, 42), (1, 7)):
        mu = random_form(3, d, seed)
        proj = random_projection(3, seed + 1)
        assert recover(proj, mu) is None


def test_recover_rejects_contraction_violation():
    # scale one coefficient of a genuine pullback to break membership
    omega = random_form(2, 1, 33)
    proj = random_projection(3, 34)
    mu = pullback_linear(proj, omega)
    broken = ProjectiveOneForm(
        mu.n, mu.d, (dict(mu.coeffs[0]), *[dict(a) for a in mu.coeffs[1:]])
    )
    key = next(iter(broken.coeffs[0]), None)
    if key is None:
        pytest.skip("degenerate sample")
    broken.coeffs[0][key] += 1
    result = recover(proj, ProjectiveOneForm(mu.n, mu.d, broken.coeffs))
    assert result is None or result != omega


def test_recover_dimension_mismatch():
    omega = random_form(2, 1, 3)
    proj3 = random_projection(3, 4)
    proj4 = random_projection(4, 4)
    mu = pullback_linear(proj3, omega)
    with pytest.raises(ValueError):
        recover(proj4, mu)


def test_recover_zero_form():
    proj = random_projection(3, 5)
    zero = ProjectiveOneForm(3, 2, ({},) * 4)
    assert recover(proj, zero) == ProjectiveOneForm(2, 2, ({},) * 3)


def test_form_addition_and_scaling():
    a = random_form(2, 1, 1)
    b = random_form(2, 1, 2)
    total = a + b
    assert contract_radial(total) == {}
    assert total.scale(2) == total + total
    with pytest.raises(ValueError):
        a + random_form(2, 2, 1)


def test_form_addition_leaves_operands_unchanged():
    a, b = random_form(2, 1, 1), random_form(2, 1, 2)
    before = [dict(p) for p in a.coeffs + b.coeffs]
    a + b
    assert [dict(p) for p in a.coeffs + b.coeffs] == before


def test_random_form_leaves_the_cached_basis_unchanged():
    before = [[dict(p) for p in b.coeffs] for b in form_space_basis(2, 1)]
    random_form(2, 1, 5)
    assert [[dict(p) for p in b.coeffs] for b in form_space_basis(2, 1)] == before
