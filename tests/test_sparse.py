"""Property tests of the packed-exponent kernel against tuple-dict references.

The reference operations below work on dicts from exponent tuples, the
representation the kernel replaced; they are the oracle and live only here.
"""

from itertools import permutations, product

import pytest
from hypothesis import given
from hypothesis import strategies as st

from lpbdeg import sparse
from lpbdeg.polyring import TruncatedPoly
from lpbdeg.sparse import Packing, _box_keys, _orbits

coeffs = st.integers(min_value=-6, max_value=6).filter(bool)
# caps just below and at powers of two, where a field is exactly full
caps = st.sampled_from([0, 1, 2, 3, 4, 6, 7, 8])


def ref_mul(p, q, cap=None):
    out = {}
    for e1, c1 in p.items():
        for e2, c2 in q.items():
            e = tuple(a + b for a, b in zip(e1, e2))
            if cap is None or sum(e) <= cap:
                out[e] = out.get(e, 0) + c1 * c2
    return {e: c for e, c in out.items() if c}


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
    assert ring.unpack_terms(ring.pack_terms(p)) == p


@given(rings())
def test_key_order_is_graded_lex(case):
    nvars, cap, p, q = case
    ring = Packing(nvars, cap)
    expos = set(p) | set(q)
    by_key = [ring.unpack(k) for k in sorted(ring.pack(e) for e in expos)]
    assert by_key == sorted(expos, key=lambda e: (sum(e), e))
    sym = symmetrize(p)
    poly = TruncatedPoly(nvars, cap, sym)
    assert [e for e, _ in poly.sorted_terms()] == sorted(sym, key=lambda e: (sum(e), e))


@given(rings(), st.integers(0, 8))
def test_truncated_mul_matches_reference(case, box):
    nvars, cap, p, q = case
    # a box at or above the cap truncates by degree alone
    ring = Packing(nvars, cap, max(box, cap))
    got = sparse.mul(ring.pack_terms(p), ring.pack_terms(q), ring.keep)
    assert ring.unpack_terms(got) == ref_mul(p, q, cap)
    # the boxed ring forms only products with every exponent in the box
    boxed = Packing(nvars, cap, box)
    p_in, q_in = ({e: c for e, c in f.items() if max(e) <= box} for f in (p, q))
    got = sparse.mul(boxed.pack_terms(p_in), boxed.pack_terms(q_in), boxed.keep)
    expected = ref_mul(p_in, q_in, cap)
    assert boxed.unpack_terms(got) == {e: c for e, c in expected.items() if max(e) <= box}


@given(rings())
def test_untruncated_mul_matches_reference(case):
    nvars, cap, p, q = case
    degree = max(map(sum, p), default=0) + max(map(sum, q), default=0)
    ring = Packing(nvars, degree)
    got = sparse.mul(ring.pack_terms(p), ring.pack_terms(q))
    assert ring.unpack_terms(got) == ref_mul(p, q)


@given(rings(), st.data())
def test_diff_matches_reference(case, data):
    nvars, cap, p, _ = case
    var = data.draw(st.integers(0, nvars - 1))
    ring = Packing(nvars, cap)
    packed = ring.pack_terms(p)
    assert ring.unpack_terms(sparse.diff(packed, ring, var)) == ref_diff(p, var)


@given(rings(), coeffs)
def test_add_sub_scale_match_reference(case, c):
    nvars, cap, p, q = case
    ring = Packing(nvars, cap)
    pp, qq = ring.pack_terms(p), ring.pack_terms(q)
    for factor in (1, -1, c):
        acc = dict(pp)
        # add works in place: it returns its first argument and leaves q alone
        assert sparse.add(acc, qq, factor) is acc
        assert ring.unpack_terms(acc) == ref_add(p, q, factor)
        assert qq == ring.pack_terms(q)
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
    # a box above the bound is clamped to it; without a box nothing is kept back
    assert Packing(2, 3, 3) == Packing(2, 3, 7) != Packing(2, 3)
    assert Packing(2, 3, 7).box == 3 and Packing(2, 3, 7).keep is not None
    assert Packing(2, 3).box is None and Packing(2, 3).keep is None
    boxed = Packing(2, 3, 1)
    assert boxed != Packing(2, 3, 3) and boxed == Packing(2, 3, 1)
    assert hash(boxed) == hash(Packing(2, 3, 1))
    assert sorted(map(boxed.unpack, boxed.keep)) == [(0, 0), (0, 1), (1, 0), (1, 1)]
    # the box leaves the layout alone
    assert (boxed.width, boxed.shift) == (Packing(2, 3).width, Packing(2, 3).shift)


def test_box_keys_at_the_bound_are_every_valid_key():
    for nvars in range(1, 5):
        for bound in (0, 1, 3, 4, 7, 8):
            ring = Packing(nvars, bound)
            every = {ring.pack(e) for e in product(range(bound + 1), repeat=nvars) if sum(e) <= bound}
            assert _box_keys(nvars, bound, bound) == every
            # a smaller box keeps the valid keys with every exponent in it
            box = bound // 2
            assert _box_keys(nvars, bound, box) == {k for k in every if max(ring.unpack(k)) <= box}


def symmetrize(terms):
    """The sum of every distinct image of each term under permuting the variables."""
    out = {}
    for e, c in terms.items():
        for image in set(permutations(e)):
            out[image] = out.get(image, 0) + c
    return {e: c for e, c in out.items() if c}


@given(rings(), st.integers(0, 8))
def test_symmetric_mul_matches_generic_mul(case, box):
    nvars, cap, p, q = case
    p, q = symmetrize(p), symmetrize(q)
    # a box below the cap, and one at the cap, which truncates by degree alone
    for ring in (Packing(nvars, cap, min(box, cap)), Packing(nvars, cap, cap)):
        pp, qq = ({k: c for k, c in ring.pack_terms(f).items() if k in ring.keep} for f in (p, q))
        assert sparse.is_symmetric(pp, ring) and sparse.is_symmetric(qq, ring)
        got = sparse.mul_symmetric(pp, qq, ring)
        assert got == sparse.mul(pp, qq, ring.keep)
        assert sparse.is_symmetric(got, ring)


def test_symmetric_mul_needs_a_box():
    with pytest.raises(ValueError, match="box"):
        sparse.mul_symmetric({0: 1}, {0: 1}, Packing(2, 3))


def test_symmetry_check_sees_every_transposition():
    ring = Packing(3, 4, 4)
    e = symmetrize({(2, 1, 0): 1})
    assert sparse.is_symmetric(ring.pack_terms(e), ring)
    # dropping any one image, or changing one coefficient, breaks the symmetry
    for image in e:
        broken = {x: c for x, c in e.items() if x != image}
        assert not sparse.is_symmetric(ring.pack_terms(broken), ring)
    assert not sparse.is_symmetric(ring.pack_terms({**e, (2, 1, 0): 2}), ring)


def test_orbits_partition_keep_in_one_pass():
    unpacked = []

    class Counting(Packing):
        def unpack(self, key):
            unpacked.append(key)
            return super().unpack(key)

    # 12,870 keys: enumerating the 8! permutations of each would not finish
    ring = Counting(8, 8, 8)
    table = _orbits.__wrapped__(ring)
    assert sorted(unpacked) == sorted(ring.keep)
    assert len(table) == ring.bound + 1
    sizes = 0
    seen = set()
    for degree, (reps, orbits) in enumerate(table):
        assert len(reps) == len(orbits)
        for rep, orbit in zip(reps, orbits):
            expo = Packing.unpack(ring, rep)
            assert list(expo) == sorted(expo, reverse=True) and sum(expo) == degree
            assert rep in orbit
            assert all(sorted(Packing.unpack(ring, k)) == sorted(expo) for k in orbit)
            sizes += len(orbit)
            seen.update(orbit)
    assert sizes == len(seen) == len(ring.keep)
    assert seen == ring.keep
