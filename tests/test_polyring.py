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
    exponents_of_degree,
    inverse_unit_series,
    is_symmetric,
    power_sums,
    product_shifted_linear,
)
from lpbdeg.sparse import Packing
from permutation_helpers import orbits_of, symmetrize
from ring_helpers import elementary, pack_terms, plus, truncated_mul, unit_series

NVARS = 3
CAP = 4
RING = Packing(NVARS, CAP, CAP)

coeffs = st.integers(min_value=-6, max_value=6)


@st.composite
def symmetric_polys(draw, box=CAP):
    """A polynomial invariant under permuting the variables, in a ring with ``box``."""
    terms = {}
    for _ in range(draw(st.integers(0, 6))):
        expo = tuple(draw(st.integers(0, 2)) for _ in range(NVARS))
        terms[expo] = draw(coeffs)
    return TruncatedPoly(Packing(NVARS, CAP, box), symmetrize(terms))


def _linear(form, ring):
    """The packed linear form with the given coefficients."""
    return {ring.var(i): a for i, a in enumerate(form) if a}


def _one():
    return TruncatedPoly.one(RING)


def test_construction_validation():
    with pytest.raises(ValueError):
        TruncatedPoly(Packing(0, 3, 3))
    with pytest.raises(ValueError):
        TruncatedPoly(Packing(2, -1, -1))
    with pytest.raises(ValueError):
        TruncatedPoly(Packing(2, 3, 3), {(1,): 1})
    with pytest.raises(ValueError):
        TruncatedPoly(Packing(2, 3, 3), {(-1, 0): 1})
    # a truncated ring has a box; a packing without one truncates nothing
    for make in (TruncatedPoly, TruncatedPoly.one, lambda ring: product_shifted_linear({}, ring)):
        with pytest.raises(ValueError, match="box"):
            make(Packing(2, 3))


@pytest.mark.parametrize("c", [0.5, 2.0, 0.0, Decimal(1), Decimal("0.5")])
def test_construction_rejects_inexact_coefficients(c):
    # a float or Decimal coefficient, even an integral one or zero, is not exact
    with pytest.raises(ValueError, match="not an exact scalar"):
        TruncatedPoly(Packing(1, 2, 2), {(1,): c})
    with pytest.raises(ValueError, match="not an exact scalar"):
        TruncatedPoly.constant(Packing(3, 2, 2), c)


@pytest.mark.parametrize("c", [0.5, 2.0, 0.0, Decimal(0), Decimal("0.5")])
def test_scale_rejects_inexact_scalars(c):
    # zero too: the scalar is checked before the zero shortcut
    p = TruncatedPoly(Packing(2, 3, 3), {(1, 0): 1, (0, 1): 1})
    with pytest.raises(ValueError, match="not an exact scalar"):
        p.scale(c)
    with pytest.raises(ValueError, match="not an exact scalar"):
        TruncatedPoly(Packing(2, 3, 3)).scale(c)


@pytest.mark.parametrize("c", [0.5, 2.0, 0.0, Decimal(0), "1/2", 3, Fraction(1, 2), True])
def test_a_scalar_is_not_a_product_operand(c):
    # * multiplies two classes; scale is the one scalar multiple
    p = TruncatedPoly(Packing(2, 3, 3), {(1, 0): 1, (0, 1): 1})
    with pytest.raises(TypeError):
        p * c
    with pytest.raises(TypeError):
        c * p


def test_construction_rejects_non_integer_exponents():
    with pytest.raises(ValueError, match="non-integer exponent"):
        TruncatedPoly(Packing(1, 2, 2), {(1.0,): 1})
    with pytest.raises(ValueError, match="non-integer exponent"):
        TruncatedPoly(Packing(1, 2, 2), {(Fraction(1),): 1})


def test_construction_truncates_and_prunes():
    p = TruncatedPoly(Packing(2, 2, 2), {(0, 0): 1, (1, 1): 0, (3, 0): 7})
    assert dict(p.sorted_terms()) == {(0, 0): 1}
    assert p.constant_term() == 1


def test_exponent_enumeration_order_is_stable():
    got = list(exponents_of_degree(3, 2))
    assert got[0] == (2, 0, 0)
    assert got[-1] == (0, 0, 2)
    assert len(got) == 6
    assert len(set(got)) == 6


def test_construction_and_queries_respect_the_box():
    p = TruncatedPoly(Packing(2, 4, 2), symmetrize({(0, 0): 1, (2, 1): 3, (3, 0): 7, (1, 3): 5}))
    assert p.box == 2
    assert dict(p.sorted_terms()) == {(0, 0): 1, (1, 2): 3, (2, 1): 3}
    # the same terms in a larger box are a class of another ring
    q = TruncatedPoly(Packing(2, 4, 4), {(0, 0): 1, (1, 2): 3, (2, 1): 3})
    assert q.terms == p.terms and q.ring != p.ring
    assert TruncatedPoly(Packing(2, 4, 4)).terms == {}
    # the ring shows, so unequal rings never print alike
    assert repr(p) == "TruncatedPoly(Packing(2, 4, 2), 1*x^[0, 0] + 3*x^[1, 2] + 3*x^[2, 1])"
    assert repr(q) == "TruncatedPoly(Packing(2, 4, 4), 1*x^[0, 0] + 3*x^[1, 2] + 3*x^[2, 1])"
    zero = "TruncatedPoly(Packing(2, 4, 4), 0)"
    assert repr(TruncatedPoly(Packing(2, 4, 4))) == repr(TruncatedPoly(Packing(2, 4, 7))) == zero
    # every ring truncates through its box
    assert TruncatedPoly.one(Packing(2, 4, 4)).box == 4
    classes = (p, TruncatedPoly.one(Packing(2, 4, 4)), elementary(Packing(3, 3, 3), 1))
    assert all(q.ring.box is not None for q in classes)
    with pytest.raises(ValueError):
        p * TruncatedPoly.one(Packing(2, 4, 4))


def test_truncation_in_products():
    base = TruncatedPoly(Packing(1, 2, 2), {(0,): 1, (1,): 1})
    p = base * base * base * base * base
    assert dict(p.sorted_terms()) == {(0,): 1, (1,): 5, (2,): 10}


def test_variable_and_linear_constructors():
    p = dict(TruncatedPoly(Packing(3, CAP, CAP), symmetrize({(1, 0, 0): 2, (1, 1, 0): -1})).sorted_terms())
    assert p[(1, 0, 0)] == p[(0, 0, 1)] == 2
    assert (2, 0, 0) not in p
    assert p[(0, 1, 1)] == -1


def test_product_shifted_linear_rejects_non_integer_coefficients():
    with pytest.raises(ValueError):
        product_shifted_linear({(Fraction(1, 2),): 1}, Packing(1, 3, 3))
    with pytest.raises(ValueError):
        product_shifted_linear({(1, 0): 1, (0, 1.0): 1}, Packing(2, 3, 3))


def test_incompatible_rings_rejected():
    p = TruncatedPoly.one(Packing(2, 3, 3))
    q = TruncatedPoly.one(Packing(2, 4, 4))
    with pytest.raises(ValueError, match="different truncated rings"):
        p * q


def test_graded_part_and_queries():
    p = TruncatedPoly(Packing(2, 3, 3), {(0, 0): 2, (1, 0): 3, (0, 1): 3, (1, 1): 5})
    assert dict(p.graded_part(2).sorted_terms()) == {(1, 1): 5}
    assert p.graded_part(3).terms == {}
    assert not p.is_homogeneous(1)
    assert p.graded_part(1).is_homogeneous(1)
    with pytest.raises(ValueError):
        p.graded_part(4)


def test_symmetry_detection():
    ring = Packing(3, 3, 3)
    e1 = {ring.var(0): 1, ring.var(1): 1, ring.var(2): 1}
    assert TruncatedPoly(ring, {(1, 0, 0): 1, (0, 1, 0): 1, (0, 0, 1): 1}).terms == e1
    with pytest.raises(ValueError, match="symmetric"):
        TruncatedPoly(ring, {(1, 0, 0): 1})
    with pytest.raises(ValueError, match="symmetric"):
        TruncatedPoly(Packing(2, 3, 3), {(1, 0): 1, (0, 1): 2})
    # the check reads the class the ring keeps: the box drops (3, 0, 0) here
    assert TruncatedPoly(Packing(3, 3, 2), {(3, 0, 0): 1}).terms == {}


@given(st.integers(1, CAP).flatmap(lambda box: st.tuples(symmetric_polys(box), symmetric_polys(box))))
def test_product_of_symmetric_classes_matches_generic_product(pair):
    p, q = pair
    ring = p.ring
    product = p * q
    assert product.terms == truncated_mul(p.terms, q.terms, ring)
    assert is_symmetric(ring.unpack_terms(product.terms), NVARS)


def test_graded_part_of_an_asymmetric_class_may_be_symmetric():
    # the constructor checks the whole class, not its grades one at a time
    terms = {(1, 0, 0): 1, (0, 1, 0): 1, (0, 0, 1): 1, (2, 0, 0): 1}
    with pytest.raises(ValueError, match="symmetric"):
        TruncatedPoly(Packing(3, 3, 3), terms)
    linear = {e: c for e, c in terms.items() if sum(e) == 1}
    assert TruncatedPoly(Packing(3, 3, 3), linear).terms == pack_terms(Packing(3, 3, 3), linear)


@given(symmetric_polys(), st.integers(0, CAP), st.integers(-3, 3))
def test_graded_parts_and_multiples_of_a_symmetric_class_are_symmetric(p, degree, c):
    # the trusted constructor takes these results unchecked
    for q in (p.graded_part(degree), p.scale(c), p.scale(Fraction(c, 2))):
        assert is_symmetric(q.ring.unpack_terms(q.terms), NVARS)


def test_boxed_constants():
    assert TruncatedPoly.one(Packing(3, 6, 2)).terms == {0: 1}
    assert TruncatedPoly.constant(Packing(3, 6, 2), 5).box == 2
    assert TruncatedPoly.one(Packing(3, 6, 6)).box == 6
    assert TruncatedPoly.constant(Packing(3, 6, 2), 0).terms == {}


def test_sorted_terms_graded_lex():
    p = TruncatedPoly(Packing(2, 3, 3), symmetrize({(0, 2): 3, (1, 0): 2, (1, 1): 5, (0, 0): 4}))
    order = [e for e, _ in p.sorted_terms()]
    assert order == [(0, 0), (0, 1), (1, 0), (0, 2), (1, 1), (2, 0)]


@given(symmetric_polys(), symmetric_polys(), symmetric_polys())
def test_ring_axioms(p, q, r):
    assert (p * q).terms == (q * p).terms
    assert (plus(p, q) * r).terms == plus(p * r, q * r).terms
    assert ((p * q) * r).terms == (p * (q * r)).terms
    assert (p * _one()).terms == p.terms


@given(symmetric_polys())
def test_scale_matches_repeated_addition(p):
    assert p.scale(3).terms == plus(plus(p, p), p).terms
    assert plus(p.scale(Fraction(1, 2)), p.scale(Fraction(1, 2))).terms == p.terms
    # integral results are stored as ints, so later products stay on ints
    assert all(type(c) is int for _, c in p.scale(Fraction(1, 2)).scale(2).sorted_terms())
    assert p.scale(0).terms == {}


@given(symmetric_polys())
def test_inverse_unit_series_roundtrip(p):
    unit = unit_series(p)
    inv = inverse_unit_series(unit)
    assert (unit * inv).terms == {0: 1}


@given(symmetric_polys(box=2))
def test_inverse_of_a_symmetric_unit_series(p):
    unit = unit_series(p)
    inv = inverse_unit_series(unit)
    assert is_symmetric(inv.ring.unpack_terms(inv.terms), NVARS)
    assert truncated_mul(unit.terms, inv.terms, unit.ring) == {0: 1}


def test_inverse_needs_unit_constant_term():
    with pytest.raises(ValueError):
        inverse_unit_series(TruncatedPoly(Packing(2, 3, 3)))
    with pytest.raises(ValueError):
        inverse_unit_series(TruncatedPoly.constant(Packing(2, 3, 3), 2))


def test_product_shifted_linear_explicit():
    p = product_shifted_linear({(1, -2): 1, (-2, 1): 1}, Packing(2, 2, 2))
    # (1 + x - 2y)(1 - 2x + y) = 1 - x - y - 2x^2 + 5xy - 2y^2
    assert dict(p.sorted_terms()) == {(0, 0): 1, (0, 1): -1, (1, 0): -1, (0, 2): -2, (1, 1): 5, (2, 0): -2}


def test_product_shifted_linear_rejects_asymmetric_roots():
    with pytest.raises(ValueError, match="symmetric"):
        product_shifted_linear({(1, 0): 1, (0, -2): 1}, Packing(2, 2, 2))
    with pytest.raises(ValueError, match="symmetric"):
        product_shifted_linear({(1, 0, 0): 1, (0, 1, 0): 1}, Packing(3, 3, 1))
    # multiplicities that differ on an orbit break the symmetry too
    with pytest.raises(ValueError, match="symmetric"):
        product_shifted_linear({(1, 0): 1, (0, 1): -2}, Packing(2, 2, 2))
    # the map is checked, so the order of its forms does not matter
    ring = Packing(2, 2, 2)
    forward, backward = ({(0, 1): 1, (1, 0): 1}, {(1, 0): 1, (0, 1): 1})
    assert product_shifted_linear(forward, ring).terms == product_shifted_linear(backward, ring).terms


def test_product_shifted_linear_empty_needs_nvars():
    assert product_shifted_linear({}, Packing(2, 3, 3)).terms == {0: 1}
    with pytest.raises(TypeError):
        product_shifted_linear({})
    with pytest.raises(ValueError):
        product_shifted_linear({(1,): 1}, Packing(2, 3, 3))
    with pytest.raises(ValueError):
        product_shifted_linear({(1,): 1, (1, 2): 1}, Packing(1, 3, 3))


@given(st.lists(st.tuples(coeffs, coeffs, coeffs), max_size=4))
def test_product_shifted_linear_matches_naive(form_coeffs):
    forms = orbits_of(form_coeffs)
    fast = product_shifted_linear(Counter(forms), Packing(3, CAP, CAP))
    ring = fast.ring
    slow = {0: 1}
    for form in forms:
        slow = truncated_mul(slow, {0: 1, **_linear(form, ring)}, ring)
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
    got = product_shifted_linear(roots, Packing(nvars, cap, cap))
    assert (got.nvars, got.cap) == (nvars, cap)
    assert dict(got.sorted_terms()) == _one_factor_at_a_time(roots, nvars, cap)
    assert all(type(c) is int for _, c in got.sorted_terms())


@given(shifted_factors(), st.integers(0, 9))
def test_product_shifted_linear_of_symmetric_roots(case, box):
    # each form with all its images under permuting the variables, so the
    # power sums, and every Newton step, are symmetric
    nvars, cap, forms = case
    closed = Counter(image for form in forms for image in permutations(form))
    got = product_shifted_linear(closed, Packing(nvars, cap, box))
    assert is_symmetric(got.ring.unpack_terms(got.terms), nvars)
    expected = _one_factor_at_a_time(closed, nvars, cap)
    assert dict(got.sorted_terms()) == {e: c for e, c in expected.items() if max(e) <= got.box}


@st.composite
def signed_roots(draw):
    """(nvars, cap, box, roots): orbits of forms, each with one multiplicity of either sign."""
    nvars = draw(st.integers(1, 3))
    cap = draw(st.integers(0, 7))
    box = draw(st.integers(0, cap))
    forms = draw(st.lists(st.tuples(*[coeffs] * nvars), max_size=4))
    return nvars, cap, box, symmetrize({form: draw(st.integers(-3, 3).filter(bool)) for form in forms})


@given(signed_roots())
def test_product_shifted_linear_of_signed_roots(case):
    # oracle: the positive part multiplied one factor at a time, divided by
    # the negative part multiplied the same way
    nvars, cap, box, roots = case
    positive = {f: m for f, m in roots.items() if m > 0}
    negative = {f: -m for f, m in roots.items() if m < 0}
    num = TruncatedPoly(Packing(nvars, cap, box), _one_factor_at_a_time(positive, nvars, cap))
    den = TruncatedPoly(Packing(nvars, cap, box), _one_factor_at_a_time(negative, nvars, cap))
    got = product_shifted_linear(roots, Packing(nvars, cap, box))
    assert got.terms == (num * inverse_unit_series(den)).terms
    assert all(type(c) is int for _, c in got.sorted_terms())


def _literal_power_sums(roots, ring):
    """``p_j = sum m * a^j`` for j up to the bound, each power of a form multiplied out."""
    sums = [{} for _ in range(ring.bound + 1)]
    for form, m in roots.items():
        power = {0: m}
        for p in sums:
            sparse.add(p, power)
            power = truncated_mul(power, _linear(form, ring), ring)
    return sums


def _check_power_sums(roots, nvars, cap, box):
    # box None is a packing without a box; every top up to the bound is read
    ring = sparse.Packing(nvars, cap, box)
    expected = _literal_power_sums(roots, ring)
    for top in range(cap + 1):
        got = power_sums(roots, ring, top)
        assert got == expected[: top + 1]
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
    box = cap - 2 if boxed else cap
    # a multiplicity constant on each orbit keeps the roots symmetric
    orbits = _symmetric_pool(distinct, nvars)
    roots = {f: 1 + i % 3 for i, orbit in enumerate(orbits) for f in orbit}
    got = product_shifted_linear(roots, Packing(nvars, cap, box))
    expected = _one_factor_at_a_time(roots, nvars, cap)
    assert dict(got.sorted_terms()) == {e: c for e, c in expected.items() if max(e) <= box}
    # the moment pass on its own, with multiplicities of both signs, each
    # constant on its orbit, and in a packing without a box when unboxed
    signed = {f: (-1) ** i * (1 + i % 3) for i, orbit in enumerate(orbits) for f in orbit}
    _check_power_sums(signed, nvars, cap, box if boxed else None)


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
@pytest.mark.parametrize("box", [None, 2, 4])
def test_power_sums_of_signed_roots(roots, box):
    # each form stands for its orbit, every image with the form's multiplicity
    _check_power_sums({image: m for form, m in roots.items() for image in orbits_of([form])}, 3, 4, box)


def test_power_sums_rejects_asymmetric_roots():
    ring = sparse.Packing(3, 4, 2)
    # before any work, whatever the top
    for top in (0, 4):
        with pytest.raises(ValueError, match="not symmetric"):
            power_sums({(1, -2, 0): 1}, ring, top)
    # invariant under swapping variables 0 and 1, not 1 and 2
    with pytest.raises(ValueError, match="not symmetric"):
        power_sums({(1, 1, 0): 1}, ring, 4)
    # one multiplicity that differs on an orbit
    closed = {image: 2 for image in orbits_of([(2, 0, 1)])}
    with pytest.raises(ValueError, match="not symmetric"):
        power_sums({**closed, (0, 1, 2): -2}, ring, 4)
    with pytest.raises(ValueError, match="coefficients"):
        power_sums({(1, 1): 1}, ring, 4)
    with pytest.raises(ValueError, match="integers"):
        power_sums({(1, 1, Fraction(1)): 1}, ring, 4)


def _symmetric_form_by_form(roots, nvars):
    # the check read one form at a time: each form's mirror under each
    # adjacent transposition has its multiplicity, a missing form counting 0
    return all(
        roots.get(f[:i] + (f[i + 1], f[i]) + f[i + 2 :], 0) == m
        for i in range(nvars - 1)
        for f, m in roots.items()
    )


@st.composite
def _maybe_symmetric_roots(draw):
    # small forms with multiplicities of both signs and zero, as drawn or
    # closed under permuting the variables
    nvars = draw(st.integers(2, 4))
    forms = st.tuples(*[st.integers(-1, 1)] * nvars)
    roots = draw(st.dictionaries(forms, st.integers(-2, 2), max_size=6))
    if draw(st.booleans()):
        roots = {image: m for form, m in roots.items() for image in orbits_of([form])}
    return nvars, roots


@given(_maybe_symmetric_roots())
def test_power_sums_symmetry_verdict_matches_the_form_by_form_check(case):
    nvars, roots = case
    ring = Packing(nvars, 2, 2)
    # the constructor reads the map as terms, each form shifted into the
    # exponents 0 .. 2, which commutes with permuting the variables; its
    # ring keeps every such term, and drops a zero coefficient
    terms = {tuple(a + 1 for a in form): m for form, m in roots.items()}
    whole = Packing(nvars, 2 * nvars, 2)
    if _symmetric_form_by_form(roots, nvars):
        power_sums(roots, ring, 2)
        TruncatedPoly(whole, terms)
    else:
        with pytest.raises(ValueError, match="not symmetric"):
            power_sums(roots, ring, 2)
        with pytest.raises(ValueError, match="not symmetric"):
            TruncatedPoly(whole, terms)


def test_symmetry_check_sees_every_transposition():
    e = symmetrize({(2, 1, 0): 1})
    assert is_symmetric(e, 3)
    # dropping any one image, or changing one coefficient, breaks the symmetry
    for image in e:
        assert not is_symmetric({x: c for x, c in e.items() if x != image}, 3)
    assert not is_symmetric({**e, (2, 1, 0): 2}, 3)


@pytest.mark.parametrize("nvars", [2, 3, 4])
def test_power_sums_symmetry_reads_a_zero_multiplicity_as_a_missing_form(nvars):
    ring = Packing(nvars, 2, 2)
    form = (1,) + (0,) * (nvars - 1)
    closed = {image: 3 for image in orbits_of([form])}
    zero = (2,) + (0,) * (nvars - 2) + (-1,)
    # a zero whose mirrors are absent is accepted, and adds nothing
    assert power_sums({**closed, zero: 0}, ring, 2) == power_sums(closed, ring, 2)
    # a zero whose mirror holds a nonzero multiplicity is not
    with pytest.raises(ValueError, match="not symmetric"):
        power_sums({**closed, form: 0}, ring, 2)
    # an orbit with one multiplicity changed is not symmetric either
    with pytest.raises(ValueError, match="not symmetric"):
        power_sums({**closed, form: 2}, ring, 2)


def test_power_sums_degree_range():
    ring = sparse.Packing(2, 3, 3)
    assert power_sums({}, ring, 0) == [{}]
    assert power_sums({(1, 1): 1}, ring, 0) == [{0: 1}]
    with pytest.raises(ValueError):
        power_sums({}, ring, 4)
    with pytest.raises(ValueError):
        power_sums({}, ring, -1)
