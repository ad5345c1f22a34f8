"""Property tests of the packed-exponent kernel against tuple-dict references.

The reference operations work on dicts from exponent tuples, the
representation the kernel replaced; they are the oracle and live only in
the tests, the product in ``ring_helpers``, shared with the polyring tests.
"""

from itertools import product
from math import comb, factorial, prod

import pytest
from hypothesis import given
from hypothesis import strategies as st

from lpbdeg import sparse
from lpbdeg.polyring import TruncatedPoly, exponents_of_degree, is_symmetric, power_sums
from lpbdeg.sparse import Packing, _orbits
from permutation_helpers import symmetrize
from ring_helpers import diff, pack_terms, recurrence_by_products, ref_mul, truncated_mul

coeffs = st.integers(min_value=-6, max_value=6).filter(bool)
# caps just below and at powers of two, where a field is exactly full
caps = st.sampled_from([0, 1, 2, 3, 4, 6, 7, 8])


def ref_diff(p, var):
    out = {}
    for e, c in p.items():
        if e[var]:
            out[e[:var] + (e[var] - 1,) + e[var + 1 :]] = c * e[var]
    return out


def ref_add(p, q, sign=1):
    out = dict(p)
    for e, c in q.items():
        out[e] = out.get(e, 0) + sign * c
    return {e: c for e, c in out.items() if c}


@st.composite
def exponents(draw, nvars, cap):
    """An exponent of total degree at most cap, often with one entry at cap."""
    if draw(st.booleans()):
        e = [0] * nvars
        e[draw(st.integers(0, nvars - 1))] = cap
        return tuple(e)
    e = []
    left = cap
    for _ in range(nvars):
        k = draw(st.integers(0, left))
        e.append(k)
        left -= k
    return tuple(draw(st.permutations(e)))


@st.composite
def rings(draw):
    """(nvars, cap, p, q): two tuple-dict polynomials of degree at most cap."""
    nvars = draw(st.integers(1, 4))
    cap = draw(caps)
    polys = [
        draw(st.dictionaries(exponents(nvars, cap), coeffs, max_size=8)) for _ in range(2)
    ]
    return nvars, cap, *polys


@given(rings())
def test_pack_round_trip(case):
    nvars, cap, p, _ = case
    ring = Packing(nvars, cap)
    for e in p:
        key = ring.pack(e)
        assert ring.unpack(key) == e
        assert ring.degree(key) == sum(e)
        assert [ring.exponent(key, i) for i in range(nvars)] == list(e)
    assert ring.unpack_terms(pack_terms(ring, p)) == p


@given(rings())
def test_key_order_is_graded_lex(case):
    nvars, cap, p, q = case
    ring = Packing(nvars, cap)
    expos = set(p) | set(q)
    by_key = [ring.unpack(k) for k in sorted(ring.pack(e) for e in expos)]
    assert by_key == sorted(expos, key=lambda e: (sum(e), e))
    sym = symmetrize(p)
    poly = TruncatedPoly(Packing(nvars, cap, cap), sym)
    assert [e for e, _ in poly.sorted_terms()] == sorted(sym, key=lambda e: (sum(e), e))


@given(rings())
def test_untruncated_mul_matches_reference(case):
    nvars, cap, p, q = case
    degree = max(map(sum, p), default=0) + max(map(sum, q), default=0)
    ring = Packing(nvars, degree)
    got = sparse.mul(pack_terms(ring, p), pack_terms(ring, q))
    assert ring.unpack_terms(got) == ref_mul(p, q)


@given(rings(), st.data())
def test_diff_matches_reference(case, data):
    nvars, cap, p, _ = case
    var = data.draw(st.integers(0, nvars - 1))
    ring = Packing(nvars, cap)
    packed = pack_terms(ring, p)
    assert ring.unpack_terms(diff(packed, ring, var)) == ref_diff(p, var)


@given(rings(), coeffs)
def test_add_sub_scale_match_reference(case, c):
    nvars, cap, p, q = case
    ring = Packing(nvars, cap)
    pp, qq = pack_terms(ring, p), pack_terms(ring, q)
    for factor in (1, -1, c):
        acc = dict(pp)
        # add works in place: it returns its first argument and leaves q alone
        assert sparse.add(acc, qq, factor) is acc
        assert ring.unpack_terms(acc) == ref_add(p, q, factor)
        assert qq == pack_terms(ring, q)
    assert ring.unpack_terms(sparse.add(dict(pp), qq)) == ref_add(p, q)
    assert ring.unpack_terms(sparse.scale(pp, c)) == {e: v * c for e, v in p.items()}
    assert sparse.scale(pp, 0) == {}
    assert sparse.add(dict(pp), pp, -1) == {}


def test_packing_validation():
    ring = Packing(2, 3)
    assert ring.width == 2
    with pytest.raises(ValueError):
        ring.pack((4, 0))  # does not fit a 2-bit field
    with pytest.raises(ValueError):
        ring.pack((-1, 0))
    with pytest.raises(ValueError):
        ring.pack((1, 0, 0))
    with pytest.raises(ValueError):
        ring.var(2)
    with pytest.raises(ValueError):
        Packing(0, 3)
    with pytest.raises(ValueError):
        Packing(2, -1)
    with pytest.raises(ValueError):
        Packing(2, 3, -1)


def test_packing_box():
    # a box above the bound is clamped to it
    assert Packing(2, 3, 3) == Packing(2, 3, 7) != Packing(2, 3)
    assert Packing(2, 3, 7).box == 3
    assert Packing(2, 3).box is None
    boxed = Packing(2, 3, 1)
    assert boxed != Packing(2, 3, 3) and boxed == Packing(2, 3, 1)
    assert hash(boxed) == hash(Packing(2, 3, 1))
    # the box leaves the layout alone
    assert (boxed.width, boxed.shift) == (Packing(2, 3).width, Packing(2, 3).shift)


def _in_box_keys(packing):
    """The key 0 of the monomial 1 and the keys of the boxed tree of ``packing``."""
    return {0}.union(*(keys for _, keys, _ in sparse.monomial_tree(packing)))


def test_box_keys_at_the_bound_are_every_valid_key():
    for nvars in range(1, 5):
        for bound in (0, 1, 3, 4, 7, 8):
            ring = Packing(nvars, bound)
            every = {ring.pack(e) for e in product(range(bound + 1), repeat=nvars) if sum(e) <= bound}
            assert _in_box_keys(Packing(nvars, bound, bound)) == every
            # a smaller box lists the valid keys with every exponent in it
            box = bound // 2
            assert _in_box_keys(Packing(nvars, bound, box)) == {k for k in every if max(ring.unpack(k)) <= box}


def test_monomial_tree_without_a_box_lists_every_monomial_once():
    for nvars in range(1, 5):
        ring = Packing(nvars, 6)
        below = (0,)
        for j, (steps, keys, multinomials) in enumerate(sparse.monomial_tree(ring), 1):
            expos = [ring.unpack(k) for k in keys]
            assert len(set(expos)) == len(expos) == comb(j + nvars - 1, nvars - 1)
            assert all(sum(e) == j and ring.pack(e) == k for e, k in zip(expos, keys))
            # each step adds one factor of the key's lowest-index variable
            for (parent, var), key, e in zip(steps, keys, expos):
                assert var == next(i for i, a in enumerate(e) if a)
                assert key == below[parent] + ring.var(var)
            assert list(multinomials) == [factorial(j) // prod(map(factorial, e)) for e in expos]
            below = keys


def _in_box(terms, box):
    """The terms of a tuple-dict polynomial with every exponent at most ``box``."""
    return {e: c for e, c in terms.items() if max(e) <= box}


@given(rings(), st.integers(0, 8))
def test_symmetric_mul_matches_generic_mul(case, box):
    nvars, cap, p, q = case
    p, q = symmetrize(p), symmetrize(q)
    # a box below the cap, and one at the cap, which truncates by degree alone
    for ring in (Packing(nvars, cap, min(box, cap)), Packing(nvars, cap, cap)):
        pp, qq = (pack_terms(ring, _in_box(f, ring.box)) for f in (p, q))
        got = sparse.mul_symmetric(pp, qq, ring)
        assert got == truncated_mul(pp, qq, ring)
        assert is_symmetric(ring.unpack_terms(got), nvars)


def test_symmetric_mul_needs_a_box():
    with pytest.raises(ValueError, match="box"):
        sparse.mul_symmetric({0: 1}, {0: 1}, Packing(2, 3))


def _outcome(fn, *args):
    """``fn(*args)``, or ``ArithmeticError`` when the division leaves a remainder."""
    try:
        return fn(*args)
    except ArithmeticError:
        return ArithmeticError


@given(rings(), st.integers(0, 8))
def test_recurrence_matches_one_product_per_pair_of_grades(case, box):
    nvars, cap, p, _ = case
    p = symmetrize(p)
    # a box below the cap, and one at the cap, which truncates by degree alone
    for ring in (Packing(nvars, cap, min(box, cap)), Packing(nvars, cap, cap)):
        a = pack_terms(ring, _in_box(p, ring.box))
        got = sparse.recurrence(a, ring, divide=False)
        assert got == recurrence_by_products(a, ring, False)
        assert is_symmetric(ring.unpack_terms(got), nvars)
        # most inputs leave a remainder; kernel and oracle must then both refuse
        assert _outcome(sparse.recurrence, a, ring, True) == _outcome(recurrence_by_products, a, ring, True)


@st.composite
def symmetric_roots(draw):
    """(nvars, cap, roots): a symmetric map from integer forms to signed multiplicities."""
    nvars = draw(st.integers(1, 4))
    cap = draw(caps)
    forms = draw(st.dictionaries(st.tuples(*[st.integers(-3, 3)] * nvars), coeffs, max_size=4))
    return nvars, cap, symmetrize(forms)


@given(symmetric_roots(), st.integers(0, 8))
def test_divided_recurrence_of_power_sums_matches_one_product_per_pair_of_grades(case, box):
    nvars, cap, roots = case
    for ring in (Packing(nvars, cap, min(box, cap)), Packing(nvars, cap, cap)):
        # the signed power sums of integer roots divide exactly: the Newton step
        sums = power_sums(roots, ring, cap)
        a = {k: c if i % 2 else -c for i, p in enumerate(sums[1:], 1) for k, c in p.items()}
        got = sparse.recurrence(a, ring, divide=True)
        assert got == recurrence_by_products(a, ring, True)
        assert is_symmetric(ring.unpack_terms(got), nvars)


def test_recurrence_refuses_a_remainder():
    ring = Packing(2, 2, 2)
    # f_2 = (x + y)^2 / 2 leaves 1/2 on x^2, the first orbit of grade 2
    a = pack_terms(ring, {(1, 0): 1, (0, 1): 1})
    assert sparse.recurrence(a, ring, divide=False) == pack_terms(
        ring, {(0, 0): 1, (1, 0): 1, (0, 1): 1, (2, 0): 1, (1, 1): 2, (0, 2): 1}
    )
    with pytest.raises(ArithmeticError, match="^Newton step 2 leaves a remainder 1$"):
        sparse.recurrence(a, ring, divide=True)


def test_recurrence_needs_a_box():
    with pytest.raises(ValueError, match="box"):
        sparse.recurrence({}, Packing(2, 3), divide=False)


def test_orbits_partition_the_in_box_keys_in_one_pass():
    unpacked = []

    class Counting(Packing):
        def unpack(self, key):
            unpacked.append(key)
            return super().unpack(key)

    # 12,870 keys: enumerating the 8! permutations of each would not finish
    ring = Counting(8, 8, 8)
    in_box = {
        Packing.pack(ring, e) for j in range(ring.bound + 1) for e in exponents_of_degree(8, j) if max(e) <= ring.box
    }
    table = _orbits.__wrapped__(ring)
    assert sorted(unpacked) == sorted(in_box)
    assert len(table) == ring.bound + 1
    sizes = 0
    seen = set()
    below = ()
    for degree, (steps, orbits, multinomials) in enumerate(table):
        reps = [orbit[0] for orbit in orbits]
        assert len(multinomials) == len(reps)
        assert len(steps) == (len(reps) if degree else 0)
        # each representative is x_var times a representative of the grade below
        for (parent, var), rep in zip(steps, reps):
            assert rep == below[parent] + ring.var(var)
        for rep, orbit, multinomial in zip(reps, orbits, multinomials):
            expo = Packing.unpack(ring, rep)
            assert list(expo) == sorted(expo) and sum(expo) == degree
            assert list(orbit) == sorted(orbit)
            assert multinomial == factorial(degree) // prod(map(factorial, expo))
            assert all(sorted(Packing.unpack(ring, k)) == sorted(expo) for k in orbit)
            sizes += len(orbit)
            seen.update(orbit)
        below = reps
    assert sizes == len(seen) == len(in_box)
    assert seen == in_box
