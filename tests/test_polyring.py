from fractions import Fraction
from itertools import permutations, product

import pytest
from hypothesis import given
from hypothesis import strategies as st

from lpbdeg import sparse
from lpbdeg.polyring import (
    _BLOCK,
    TruncatedPoly,
    elementary_symmetric,
    exponents_of_degree,
    inverse_unit_series,
    power_sums,
    product_shifted_linear,
)

NVARS = 3
CAP = 4

coeffs = st.integers(min_value=-6, max_value=6)


@st.composite
def polys(draw, nvars=NVARS, cap=CAP):
    terms = {}
    for _ in range(draw(st.integers(0, 6))):
        expo = tuple(draw(st.integers(0, 2)) for _ in range(nvars))
        terms[expo] = draw(coeffs)
    return TruncatedPoly(nvars, cap, terms)


@st.composite
def symmetric_polys(draw, box=CAP):
    """A polynomial invariant under permuting the variables, in a ring with ``box``."""
    terms = {}
    for expo, c in draw(polys()).sorted_terms():
        for image in set(permutations(expo)):
            terms[image] = terms.get(image, 0) + c
    return TruncatedPoly(NVARS, CAP, terms, box=box)


def _one():
    return TruncatedPoly.one(NVARS, CAP)


def test_construction_validation():
    with pytest.raises(ValueError):
        TruncatedPoly(0, 3)
    with pytest.raises(ValueError):
        TruncatedPoly(2, -1)
    with pytest.raises(ValueError):
        TruncatedPoly(2, 3, {(1,): 1})
    with pytest.raises(ValueError):
        TruncatedPoly(2, 3, {(-1, 0): 1})


def test_construction_truncates_and_prunes():
    p = TruncatedPoly(2, 2, {(0, 0): 1, (1, 1): 0, (3, 0): 7})
    assert dict(p.sorted_terms()) == {(0, 0): 1}
    assert p.constant_term() == 1


def test_exponent_enumeration_order_is_stable():
    got = list(exponents_of_degree(3, 2))
    assert got[0] == (2, 0, 0)
    assert got[-1] == (0, 0, 2)
    assert len(got) == 6
    assert len(set(got)) == 6


def test_construction_and_queries_respect_the_box():
    p = TruncatedPoly(2, 4, {(0, 0): 1, (2, 1): 3, (3, 0): 7, (1, 3): 5}, box=2)
    assert p.box == 2
    assert dict(p.sorted_terms()) == {(0, 0): 1, (2, 1): 3}
    assert p.coefficient((3, 0)) == 0 and p.coefficient((2, 1)) == 3
    assert p != TruncatedPoly(2, 4, {(0, 0): 1, (2, 1): 3})
    assert TruncatedPoly(2, 4, box=4) == TruncatedPoly.zero(2, 4)
    # the box shows, so unequal rings never print alike
    assert repr(p) == "TruncatedPoly(2, 4, 1*x^[0, 0] + 3*x^[2, 1], box=2)"
    assert repr(TruncatedPoly.zero(2, 4)) == repr(TruncatedPoly(2, 4, box=7)) == "TruncatedPoly(2, 4, 0)"
    # every ring truncates through its key set, the box defaulting to the cap
    assert TruncatedPoly.one(2, 4).box == 4
    assert all(q.ring.keep is not None for q in (p, TruncatedPoly.one(2, 4), elementary_symmetric(3, 3, 1)))
    with pytest.raises(ValueError):
        p * TruncatedPoly.one(2, 4)


def test_truncation_in_products():
    x = TruncatedPoly(1, 2, {(1,): 1})
    p = (TruncatedPoly.one(1, 2) + x) ** 5
    assert dict(p.sorted_terms()) == {(0,): 1, (1,): 5, (2,): 10}


def test_variable_and_linear_constructors():
    p = TruncatedPoly(3, CAP, {(1, 0, 0): 2, (0, 0, 1): -1})
    assert p.coefficient((1, 0, 0)) == 2
    assert p.coefficient((0, 1, 0)) == 0
    assert p.coefficient((0, 0, 1)) == -1


def test_product_shifted_linear_rejects_non_integer_coefficients():
    with pytest.raises(ValueError):
        product_shifted_linear([(Fraction(1, 2),)], 3)
    with pytest.raises(ValueError):
        product_shifted_linear([(1, 0), (0, 1.0)], 3)


def test_incompatible_rings_rejected():
    p = TruncatedPoly.one(2, 3)
    q = TruncatedPoly.one(2, 4)
    with pytest.raises(ValueError):
        p + q
    with pytest.raises(ValueError):
        p * q


def test_graded_part_and_queries():
    p = TruncatedPoly(2, 3, {(0, 0): 2, (1, 0): 3, (1, 1): 5})
    assert dict(p.graded_part(2).sorted_terms()) == {(1, 1): 5}
    assert p.graded_part(3).is_zero
    assert not p.is_homogeneous(1)
    assert p.graded_part(1).is_homogeneous(1)
    with pytest.raises(ValueError):
        p.graded_part(4)
    with pytest.raises(ValueError):
        p.coefficient((1, 0, 0))


def test_symmetry_detection():
    sym = TruncatedPoly(3, 3, {(1, 0, 0): 1, (0, 1, 0): 1, (0, 0, 1): 1})
    assert sym.is_symmetric()
    asym = TruncatedPoly(3, 3, {(1, 0, 0): 1})
    assert not asym.is_symmetric()


@given(st.integers(1, CAP).flatmap(lambda box: st.tuples(symmetric_polys(box), symmetric_polys(box))), polys())
def test_product_of_symmetric_classes_matches_generic_product(pair, other):
    p, q = pair
    ring = p.ring
    asym = TruncatedPoly(NVARS, CAP, dict(other.sorted_terms()), box=ring.box)
    for a, b in ((p, q), (p, asym), (asym, q)):
        product = a * b
        assert product.terms == sparse.mul(a.terms, b.terms, ring.keep)
        # the flag a product is built with agrees with a fresh check
        assert product.is_symmetric() == sparse.is_symmetric(product.terms, ring)
    assert (p * q).is_symmetric()


def test_graded_part_of_an_asymmetric_class_may_be_symmetric():
    p = TruncatedPoly(3, 3, {(1, 0, 0): 1, (0, 1, 0): 1, (0, 0, 1): 1, (2, 0, 0): 1})
    assert not p.is_symmetric()
    assert p.graded_part(1).is_symmetric() and not p.graded_part(2).is_symmetric()
    assert p.scale(2).graded_part(1).is_symmetric()


def test_boxed_constants():
    assert TruncatedPoly.one(3, 6, box=2) == TruncatedPoly(3, 6, {(0, 0, 0): 1}, box=2)
    assert TruncatedPoly.zero(3, 6, box=2).box == TruncatedPoly.constant(3, 6, 5, box=2).box == 2
    assert TruncatedPoly.one(3, 6).box == 6
    assert TruncatedPoly.zero(3, 6, box=2).is_zero and TruncatedPoly.zero(3, 6, box=2).is_symmetric()


def test_sorted_terms_graded_lex():
    p = TruncatedPoly(2, 3, {(0, 2): 1, (1, 0): 2, (2, 0): 3, (0, 0): 4})
    order = [e for e, _ in p.sorted_terms()]
    assert order == [(0, 0), (1, 0), (0, 2), (2, 0)]


@given(polys(), polys(), polys())
def test_ring_axioms(p, q, r):
    assert p * q == q * p
    assert (p + q) * r == p * r + q * r
    assert (p * q) * r == p * (q * r)
    assert p + TruncatedPoly.zero(NVARS, CAP) == p
    assert p * _one() == p


@given(polys(), polys())
def test_add_and_sub_leave_operands_unchanged(p, q):
    before = (dict(p.terms), dict(q.terms))
    total, difference = p + q, p - q
    assert (dict(p.terms), dict(q.terms)) == before
    assert total - q == p and difference + q == p
    assert (dict(p.terms), dict(q.terms)) == before


@given(polys())
def test_scale_matches_repeated_addition(p):
    assert p.scale(3) == p + p + p
    assert p.scale(Fraction(1, 2)) + p.scale(Fraction(1, 2)) == p
    # integral results are stored as ints, so later products stay on ints
    assert all(type(c) is int for _, c in p.scale(Fraction(1, 2)).scale(2).sorted_terms())
    assert p * 0 == TruncatedPoly.zero(NVARS, CAP)


@given(polys())
def test_inverse_unit_series_roundtrip(p):
    unit = p + _one() - TruncatedPoly.constant(NVARS, CAP, p.constant_term())
    inv = inverse_unit_series(unit)
    assert unit * inv == _one()


@given(symmetric_polys(box=2))
def test_inverse_of_a_symmetric_unit_series(p):
    unit = p + TruncatedPoly.constant(NVARS, CAP, 1 - p.constant_term(), box=2)
    inv = inverse_unit_series(unit)
    assert inv.is_symmetric() and sparse.is_symmetric(inv.terms, inv.ring)
    assert sparse.mul(unit.terms, inv.terms, unit.ring.keep) == {0: 1}


def test_inverse_needs_unit_constant_term():
    with pytest.raises(ValueError):
        inverse_unit_series(TruncatedPoly.zero(2, 3))
    with pytest.raises(ValueError):
        inverse_unit_series(TruncatedPoly.constant(2, 3, 2))


def test_product_shifted_linear_explicit():
    p = product_shifted_linear([(1, 0), (0, -2)], 2)
    # (1 + x)(1 - 2y) = 1 + x - 2y - 2xy
    assert dict(p.sorted_terms()) == {(0, 0): 1, (1, 0): 1, (0, 1): -2, (1, 1): -2}


def test_product_shifted_linear_empty_needs_nvars():
    assert product_shifted_linear([], 3, nvars=2) == TruncatedPoly.one(2, 3)
    with pytest.raises(ValueError):
        product_shifted_linear([], 3)
    with pytest.raises(ValueError):
        product_shifted_linear([(1,)], 3, nvars=2)
    with pytest.raises(ValueError):
        product_shifted_linear([(1,), (1, 2)], 3)


@given(st.lists(st.tuples(coeffs, coeffs, coeffs), max_size=4))
def test_product_shifted_linear_matches_naive(form_coeffs):
    fast = product_shifted_linear(form_coeffs, CAP, nvars=3)
    slow = _one()
    for a, b, c in form_coeffs:
        factor = {(0, 0, 0): 1, (1, 0, 0): a, (0, 1, 0): b, (0, 0, 1): c}
        slow = slow * TruncatedPoly(3, CAP, factor)
    assert fast == slow


def _one_factor_at_a_time(forms, nvars, cap):
    """The truncated product multiplied out one ``(1 + form)`` at a time."""
    terms = {(0,) * nvars: 1}
    for form in forms:
        out = dict(terms)
        for expo, c in terms.items():
            if sum(expo) == cap:
                continue
            for i, a in enumerate(form):
                raised = expo[:i] + (expo[i] + 1,) + expo[i + 1 :]
                out[raised] = out.get(raised, 0) + c * a
        terms = {e: c for e, c in out.items() if c}
    return terms


@st.composite
def shifted_factors(draw):
    nvars = draw(st.integers(1, 4))
    cap = draw(st.integers(0, 9))
    form = st.one_of(st.just((0,) * nvars), st.tuples(*[coeffs] * nvars))
    # a small pool, so repeated forms are common
    pool = draw(st.lists(form, min_size=1, max_size=4))
    picks = draw(st.lists(st.sampled_from(pool), max_size=12))
    return nvars, cap, picks


@given(shifted_factors())
def test_product_shifted_linear_matches_one_factor_at_a_time(case):
    nvars, cap, forms = case
    got = product_shifted_linear(forms, cap, nvars=nvars)
    assert (got.nvars, got.cap) == (nvars, cap)
    assert dict(got.sorted_terms()) == _one_factor_at_a_time(forms, nvars, cap)
    assert all(type(c) is int for _, c in got.sorted_terms())


@given(shifted_factors(), st.integers(0, 9))
def test_product_shifted_linear_of_symmetric_roots(case, box):
    # each form with all its images under permuting the variables, so the
    # power sums, and every Newton step, are symmetric
    nvars, cap, forms = case
    closed = [image for form in forms for image in permutations(form)]
    got = product_shifted_linear(closed, cap, nvars=nvars, box=box)
    assert got.is_symmetric() and sparse.is_symmetric(got.terms, got.ring)
    expected = _one_factor_at_a_time(closed, nvars, cap)
    assert dict(got.sorted_terms()) == {e: c for e, c in expected.items() if max(e) <= got.box}


def _literal_power_sums(roots, nvars, cap, box):
    """``p_j = sum m * a^j`` for j <= cap, each power of a form multiplied out."""
    units = [tuple(int(i == v) for i in range(nvars)) for v in range(nvars)]
    sums = [TruncatedPoly.zero(nvars, cap) for _ in range(cap + 1)]
    for form, m in roots.items():
        linear = TruncatedPoly(nvars, cap, dict(zip(units, form)))
        sums = [p + (linear**j).scale(m) for j, p in enumerate(sums)]
    return [{e: c for e, c in p.sorted_terms() if max(e) <= box} for p in sums]


def _check_power_sums(roots, nvars, cap, box):
    ring = sparse.Packing(nvars, cap, cap if box is None else box)
    got = [ring.unpack_terms(p) for p in power_sums(roots, ring, cap)]
    assert got == _literal_power_sums(roots, nvars, cap, ring.box)
    assert all(type(c) is int for p in got for c in p.values())


@pytest.mark.parametrize("distinct", [0, _BLOCK - 1, _BLOCK, _BLOCK + 1, 2 * _BLOCK + 1])
@pytest.mark.parametrize("boxed", [False, True])
def test_product_shifted_linear_across_form_blocks(distinct, boxed):
    # enough distinct forms to fill several blocks, a last partial one
    # included, each repeated 1 to 3 times
    nvars, cap = 3, 5
    box = cap - 2 if boxed else None
    pool = list(product(range(-3, 3), repeat=nvars))[:distinct]
    forms = [f for i, f in enumerate(pool) for _ in range(1 + i % 3)]
    got = product_shifted_linear(forms, cap, nvars=nvars, box=box)
    expected = _one_factor_at_a_time(forms, nvars, cap)
    top = cap if box is None else box
    assert dict(got.sorted_terms()) == {e: c for e, c in expected.items() if max(e) <= top}
    # the moment pass on its own, with multiplicities of both signs
    _check_power_sums({f: (-1) ** i * (1 + i % 3) for i, f in enumerate(pool)}, nvars, cap, box)


@pytest.mark.parametrize(
    "roots",
    [
        {(0, 0, 0): 2},
        {(0, 0, 0): -1, (1, -2, 0): 3},
        # a and -a: the odd power sums cancel, then the even ones
        {(1, -2, 3): 2, (-1, 2, -3): 2},
        {(1, -2, 3): 2, (-1, 2, -3): -2},
        # a zero multiplicity adds nothing
        {(2, 0, 1): 1, (0, 1, 1): 0},
    ],
)
@pytest.mark.parametrize("box", [None, 2])
def test_power_sums_of_signed_roots(roots, box):
    _check_power_sums(roots, 3, 4, box)


def test_power_sums_degree_range():
    ring = sparse.Packing(2, 3, 3)
    assert power_sums({}, ring, 0) == [{}]
    assert power_sums({(1, 1): 1}, ring, 0) == [{0: 1}]
    with pytest.raises(ValueError):
        power_sums({}, ring, 4)
    with pytest.raises(ValueError):
        power_sums({}, ring, -1)


def test_elementary_symmetric_explicit():
    e1 = elementary_symmetric(3, 3, 1)
    assert dict(e1.sorted_terms()) == {(1, 0, 0): 1, (0, 1, 0): 1, (0, 0, 1): 1}
    e3 = elementary_symmetric(3, 3, 3)
    assert dict(e3.sorted_terms()) == {(1, 1, 1): 1}
    assert elementary_symmetric(3, 3, 4).is_zero
    assert elementary_symmetric(3, 2, 3).is_zero
    assert elementary_symmetric(3, 3, 0) == TruncatedPoly.one(3, 3)
    with pytest.raises(ValueError):
        elementary_symmetric(3, 3, -1)
