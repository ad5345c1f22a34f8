from collections import Counter
from decimal import Decimal
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


def symmetrize(terms):
    """The sum of every distinct image of each term under permuting the variables."""
    out = {}
    for expo, c in terms.items():
        for image in set(permutations(expo)):
            out[image] = out.get(image, 0) + c
    return out


@st.composite
def symmetric_polys(draw, box=CAP):
    """A polynomial invariant under permuting the variables, in a ring with ``box``."""
    terms = {}
    for _ in range(draw(st.integers(0, 6))):
        expo = tuple(draw(st.integers(0, 2)) for _ in range(NVARS))
        terms[expo] = draw(coeffs)
    return TruncatedPoly(NVARS, CAP, symmetrize(terms), box=box)


def orbits_of(forms):
    """Each form with its distinct images under permuting the variables."""
    return [image for form in forms for image in sorted(set(permutations(form)))]


def _linear(form, ring):
    """The packed linear form with the given coefficients."""
    return {ring.var(i): a for i, a in enumerate(form) if a}


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


@pytest.mark.parametrize("c", [0.5, 2.0, 0.0, Decimal(1), Decimal("0.5")])
def test_construction_rejects_inexact_coefficients(c):
    # a float or Decimal coefficient, even an integral one or zero, is not exact
    with pytest.raises(ValueError, match="not an exact scalar"):
        TruncatedPoly(1, 2, {(1,): c})
    with pytest.raises(ValueError, match="not an exact scalar"):
        TruncatedPoly.constant(3, 2, c)


@pytest.mark.parametrize("c", [0.5, 2.0, 0.0, Decimal(0), Decimal("0.5")])
def test_scale_rejects_inexact_scalars(c):
    # zero too: the scalar is checked before the zero shortcut
    p = TruncatedPoly(2, 3, {(1, 0): 1, (0, 1): 1})
    with pytest.raises(ValueError, match="not an exact scalar"):
        p.scale(c)
    with pytest.raises(ValueError, match="not an exact scalar"):
        TruncatedPoly.zero(2, 3).scale(c)


def test_construction_rejects_non_integer_exponents():
    with pytest.raises(ValueError, match="non-integer exponent"):
        TruncatedPoly(1, 2, {(1.0,): 1})
    with pytest.raises(ValueError, match="non-integer exponent"):
        TruncatedPoly(1, 2, {(Fraction(1),): 1})


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
    p = TruncatedPoly(2, 4, symmetrize({(0, 0): 1, (2, 1): 3, (3, 0): 7, (1, 3): 5}), box=2)
    assert p.box == 2
    assert dict(p.sorted_terms()) == {(0, 0): 1, (1, 2): 3, (2, 1): 3}
    assert p.coefficient((3, 0)) == 0 and p.coefficient((2, 1)) == 3
    assert p != TruncatedPoly(2, 4, {(0, 0): 1, (1, 2): 3, (2, 1): 3})
    assert TruncatedPoly(2, 4, box=4) == TruncatedPoly.zero(2, 4)
    # the box shows, so unequal rings never print alike
    assert repr(p) == "TruncatedPoly(2, 4, 1*x^[0, 0] + 3*x^[1, 2] + 3*x^[2, 1], box=2)"
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
    p = TruncatedPoly(3, CAP, symmetrize({(1, 0, 0): 2, (1, 1, 0): -1}))
    assert p.coefficient((1, 0, 0)) == p.coefficient((0, 0, 1)) == 2
    assert p.coefficient((2, 0, 0)) == 0
    assert p.coefficient((0, 1, 1)) == -1


def test_product_shifted_linear_rejects_non_integer_coefficients():
    with pytest.raises(ValueError):
        product_shifted_linear({(Fraction(1, 2),): 1}, 3, 1)
    with pytest.raises(ValueError):
        product_shifted_linear({(1, 0): 1, (0, 1.0): 1}, 3, 2)


def test_incompatible_rings_rejected():
    p = TruncatedPoly.one(2, 3)
    q = TruncatedPoly.one(2, 4)
    with pytest.raises(ValueError):
        p + q
    with pytest.raises(ValueError):
        p * q


def test_graded_part_and_queries():
    p = TruncatedPoly(2, 3, {(0, 0): 2, (1, 0): 3, (0, 1): 3, (1, 1): 5})
    assert dict(p.graded_part(2).sorted_terms()) == {(1, 1): 5}
    assert p.graded_part(3).is_zero
    assert not p.is_homogeneous(1)
    assert p.graded_part(1).is_homogeneous(1)
    with pytest.raises(ValueError):
        p.graded_part(4)
    with pytest.raises(ValueError):
        p.coefficient((1, 0, 0))


def test_symmetry_detection():
    assert TruncatedPoly(3, 3, {(1, 0, 0): 1, (0, 1, 0): 1, (0, 0, 1): 1}) == elementary_symmetric(3, 3, 1)
    with pytest.raises(ValueError, match="symmetric"):
        TruncatedPoly(3, 3, {(1, 0, 0): 1})
    with pytest.raises(ValueError, match="symmetric"):
        TruncatedPoly(2, 3, {(1, 0): 1, (0, 1): 2})
    # the check reads the class the ring keeps: the box drops (3, 0, 0) here
    assert TruncatedPoly(3, 3, {(3, 0, 0): 1}, box=2).is_zero


@given(st.integers(1, CAP).flatmap(lambda box: st.tuples(symmetric_polys(box), symmetric_polys(box))))
def test_product_of_symmetric_classes_matches_generic_product(pair):
    p, q = pair
    ring = p.ring
    product = p * q
    assert product.terms == sparse.mul(p.terms, q.terms, ring.keep)
    assert sparse.is_symmetric(product.terms, ring)


def test_graded_part_of_an_asymmetric_class_may_be_symmetric():
    # the constructor checks the whole class, not its grades one at a time
    terms = {(1, 0, 0): 1, (0, 1, 0): 1, (0, 0, 1): 1, (2, 0, 0): 1}
    with pytest.raises(ValueError, match="symmetric"):
        TruncatedPoly(3, 3, terms)
    linear = {e: c for e, c in terms.items() if sum(e) == 1}
    assert TruncatedPoly(3, 3, linear) == elementary_symmetric(3, 3, 1)


@given(symmetric_polys(), st.integers(0, CAP), st.integers(-3, 3))
def test_graded_parts_and_multiples_of_a_symmetric_class_are_symmetric(p, degree, c):
    # the trusted constructor takes these results unchecked
    for q in (p.graded_part(degree), p.scale(c), p.scale(Fraction(c, 2)), -p, p + p, p - p.graded_part(degree)):
        assert sparse.is_symmetric(q.terms, q.ring)


def test_boxed_constants():
    assert TruncatedPoly.one(3, 6, box=2) == TruncatedPoly(3, 6, {(0, 0, 0): 1}, box=2)
    assert TruncatedPoly.zero(3, 6, box=2).box == TruncatedPoly.constant(3, 6, 5, box=2).box == 2
    assert TruncatedPoly.one(3, 6).box == 6
    assert TruncatedPoly.zero(3, 6, box=2).is_zero


def test_sorted_terms_graded_lex():
    p = TruncatedPoly(2, 3, symmetrize({(0, 2): 3, (1, 0): 2, (1, 1): 5, (0, 0): 4}))
    order = [e for e, _ in p.sorted_terms()]
    assert order == [(0, 0), (0, 1), (1, 0), (0, 2), (1, 1), (2, 0)]


@given(symmetric_polys(), symmetric_polys(), symmetric_polys())
def test_ring_axioms(p, q, r):
    assert p * q == q * p
    assert (p + q) * r == p * r + q * r
    assert (p * q) * r == p * (q * r)
    assert p + TruncatedPoly.zero(NVARS, CAP) == p
    assert p * _one() == p


@given(symmetric_polys(), symmetric_polys())
def test_add_and_sub_leave_operands_unchanged(p, q):
    before = (dict(p.terms), dict(q.terms))
    total, difference = p + q, p - q
    assert (dict(p.terms), dict(q.terms)) == before
    assert total - q == p and difference + q == p
    assert (dict(p.terms), dict(q.terms)) == before


@given(symmetric_polys())
def test_scale_matches_repeated_addition(p):
    assert p.scale(3) == p + p + p
    assert p.scale(Fraction(1, 2)) + p.scale(Fraction(1, 2)) == p
    # integral results are stored as ints, so later products stay on ints
    assert all(type(c) is int for _, c in p.scale(Fraction(1, 2)).scale(2).sorted_terms())
    assert p * 0 == TruncatedPoly.zero(NVARS, CAP)


@given(symmetric_polys())
def test_inverse_unit_series_roundtrip(p):
    unit = p + _one() - TruncatedPoly.constant(NVARS, CAP, p.constant_term())
    inv = inverse_unit_series(unit)
    assert unit * inv == _one()


@given(symmetric_polys(box=2))
def test_inverse_of_a_symmetric_unit_series(p):
    unit = p + TruncatedPoly.constant(NVARS, CAP, 1 - p.constant_term(), box=2)
    inv = inverse_unit_series(unit)
    assert sparse.is_symmetric(inv.terms, inv.ring)
    assert sparse.mul(unit.terms, inv.terms, unit.ring.keep) == {0: 1}


def test_inverse_needs_unit_constant_term():
    with pytest.raises(ValueError):
        inverse_unit_series(TruncatedPoly.zero(2, 3))
    with pytest.raises(ValueError):
        inverse_unit_series(TruncatedPoly.constant(2, 3, 2))


def test_product_shifted_linear_explicit():
    p = product_shifted_linear({(1, -2): 1, (-2, 1): 1}, 2, 2)
    # (1 + x - 2y)(1 - 2x + y) = 1 - x - y - 2x^2 + 5xy - 2y^2
    assert dict(p.sorted_terms()) == {(0, 0): 1, (0, 1): -1, (1, 0): -1, (0, 2): -2, (1, 1): 5, (2, 0): -2}


def test_product_shifted_linear_rejects_asymmetric_roots():
    with pytest.raises(ValueError, match="symmetric"):
        product_shifted_linear({(1, 0): 1, (0, -2): 1}, 2, 2)
    with pytest.raises(ValueError, match="symmetric"):
        product_shifted_linear({(1, 0, 0): 1, (0, 1, 0): 1}, 3, 3, box=1)
    # multiplicities that differ on an orbit break the symmetry too
    with pytest.raises(ValueError, match="symmetric"):
        product_shifted_linear({(1, 0): 1, (0, 1): -2}, 2, 2)
    # the power sums are checked, so the roots need only be symmetric as a multiset
    assert product_shifted_linear({(0, 1): 1, (1, 0): 1}, 2, 2) == product_shifted_linear({(1, 0): 1, (0, 1): 1}, 2, 2)


def test_product_shifted_linear_empty_needs_nvars():
    assert product_shifted_linear({}, 3, 2) == TruncatedPoly.one(2, 3)
    with pytest.raises(TypeError):
        product_shifted_linear({}, 3)
    with pytest.raises(ValueError):
        product_shifted_linear({(1,): 1}, 3, 2)
    with pytest.raises(ValueError):
        product_shifted_linear({(1,): 1, (1, 2): 1}, 3, 1)


@given(st.lists(st.tuples(coeffs, coeffs, coeffs), max_size=4))
def test_product_shifted_linear_matches_naive(form_coeffs):
    forms = orbits_of(form_coeffs)
    fast = product_shifted_linear(Counter(forms), CAP, 3)
    ring = fast.ring
    slow = {0: 1}
    for form in forms:
        slow = sparse.mul(slow, {0: 1, **_linear(form, ring)}, ring.keep)
    assert fast.terms == slow


def _one_factor_at_a_time(roots, nvars, cap):
    """The truncated product multiplied out one ``(1 + form)`` at a time.

    ``roots`` maps each form to its multiplicity, which must not be negative.
    """
    terms = {(0,) * nvars: 1}
    for form in (f for f, m in roots.items() for _ in range(m)):
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
    nvars, cap, picks = case
    # a form picked twice is one root of multiplicity two
    roots = Counter(orbits_of(picks))
    got = product_shifted_linear(roots, cap, nvars)
    assert (got.nvars, got.cap) == (nvars, cap)
    assert dict(got.sorted_terms()) == _one_factor_at_a_time(roots, nvars, cap)
    assert all(type(c) is int for _, c in got.sorted_terms())


@given(shifted_factors(), st.integers(0, 9))
def test_product_shifted_linear_of_symmetric_roots(case, box):
    # each form with all its images under permuting the variables, so the
    # power sums, and every Newton step, are symmetric
    nvars, cap, forms = case
    closed = Counter(image for form in forms for image in permutations(form))
    got = product_shifted_linear(closed, cap, nvars, box=box)
    assert sparse.is_symmetric(got.terms, got.ring)
    expected = _one_factor_at_a_time(closed, nvars, cap)
    assert dict(got.sorted_terms()) == {e: c for e, c in expected.items() if max(e) <= got.box}


@st.composite
def signed_roots(draw):
    """(nvars, cap, box, roots): orbits of forms, each with one multiplicity of either sign."""
    nvars = draw(st.integers(1, 3))
    cap = draw(st.integers(0, 7))
    box = draw(st.integers(0, cap))
    roots = {}
    for form in draw(st.lists(st.tuples(*[coeffs] * nvars), max_size=4)):
        m = draw(st.integers(-3, 3).filter(bool))
        for image in set(permutations(form)):
            roots[image] = roots.get(image, 0) + m
    return nvars, cap, box, roots


@given(signed_roots())
def test_product_shifted_linear_of_signed_roots(case):
    # oracle: the positive part multiplied one factor at a time, divided by
    # the negative part multiplied the same way
    nvars, cap, box, roots = case
    positive = {f: m for f, m in roots.items() if m > 0}
    negative = {f: -m for f, m in roots.items() if m < 0}
    num = TruncatedPoly(nvars, cap, _one_factor_at_a_time(positive, nvars, cap), box=box)
    den = TruncatedPoly(nvars, cap, _one_factor_at_a_time(negative, nvars, cap), box=box)
    got = product_shifted_linear(roots, cap, nvars, box=box)
    assert got == num * inverse_unit_series(den)
    assert all(type(c) is int for _, c in got.sorted_terms())


def _literal_power_sums(roots, ring):
    """``p_j = sum m * a^j`` for j up to the bound, each power of a form multiplied out."""
    sums = [{} for _ in range(ring.bound + 1)]
    for form, m in roots.items():
        power = {0: m}
        for p in sums:
            sparse.add(p, power)
            power = sparse.mul(power, _linear(form, ring), ring.keep)
    return sums


def _check_power_sums(roots, nvars, cap, box):
    # power_sums is a general moment pass, so the roots need not be symmetric
    ring = sparse.Packing(nvars, cap, cap if box is None else box)
    got = power_sums(roots, ring, cap)
    assert got == _literal_power_sums(roots, ring)
    assert all(type(c) is int for p in got for c in p.values())


def _symmetric_pool(size, nvars):
    """``size`` distinct forms closed under permuting the variables, largest orbits first."""
    reps = sorted(
        (form for form in product(range(-3, 3), repeat=nvars) if list(form) == sorted(form, reverse=True)),
        key=lambda form: -len(set(permutations(form))),
    )
    pool, count = [], 0
    for form in reps:
        orbit = sorted(set(permutations(form)))
        if count + len(orbit) <= size:
            pool.append(orbit)
            count += len(orbit)
    assert count == size
    return pool


@pytest.mark.parametrize("distinct", [0, _BLOCK - 1, _BLOCK, _BLOCK + 1, 2 * _BLOCK + 1])
@pytest.mark.parametrize("boxed", [False, True])
def test_product_shifted_linear_across_form_blocks(distinct, boxed):
    # enough distinct forms to fill several blocks, a last partial one
    # included, each repeated 1 to 3 times
    nvars, cap = 3, 5
    box = cap - 2 if boxed else None
    # a multiplicity constant on each orbit keeps the roots symmetric
    orbits = _symmetric_pool(distinct, nvars)
    roots = {f: 1 + i % 3 for i, orbit in enumerate(orbits) for f in orbit}
    got = product_shifted_linear(roots, cap, nvars, box=box)
    expected = _one_factor_at_a_time(roots, nvars, cap)
    top = cap if box is None else box
    assert dict(got.sorted_terms()) == {e: c for e, c in expected.items() if max(e) <= top}
    # the moment pass on its own, with multiplicities of both signs
    pool = list(product(range(-3, 3), repeat=nvars))[:distinct]
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
