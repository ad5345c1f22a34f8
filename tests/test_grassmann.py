from fractions import Fraction

import pytest

from lpbdeg.grassmann import GrassContext
from lpbdeg.polyring import TruncatedPoly
from lpbdeg.sparse import Packing
from ring_helpers import e1_power, elementary, plus

def test_context_validation():
    with pytest.raises(ValueError):
        GrassContext(0, 3)
    with pytest.raises(ValueError):
        GrassContext(3, 3)
    with pytest.raises(ValueError):
        GrassContext(4, 2)


def test_dimension_and_box():
    ctx = GrassContext(3, 6)
    assert ctx.g == 9
    assert ctx.box == 5
    assert GrassContext(3, 4).g == 3
    assert GrassContext(1, 5).g == 4


def test_plucker_degrees_of_three_plane_grassmannians():
    # classical values for 3-planes in dimensions 4, 5, 6
    assert GrassContext(3, 4).plucker_degree() == 1
    assert GrassContext(3, 5).plucker_degree() == 5
    assert GrassContext(3, 6).plucker_degree() == 42


def test_plucker_degrees_of_small_grassmannians():
    # projective spaces embed linearly; G(2,4) is the quadric in P^5
    assert GrassContext(1, 4).plucker_degree() == 1
    assert GrassContext(2, 4).plucker_degree() == 2
    assert GrassContext(2, 5).plucker_degree() == 5


def test_point_class_integrates_to_one():
    # the full-box Schubert class is e_k^(m-k) = (x_1 ... x_k)^(m-k)
    for m in (4, 5, 6):
        ctx = GrassContext(3, m)
        point = TruncatedPoly(ctx.ring, {(m - 3,) * 3: 1})
        assert ctx.integrate(point) == 1


def test_integrate_is_linear():
    ctx = GrassContext(3, 4)
    cls = e1_power(ctx.ring, ctx.g)
    assert ctx.integrate(cls.scale(Fraction(7, 2))) == Fraction(7, 2)
    assert ctx.integrate(plus(cls, cls)) == 2


def test_integrate_zero_class():
    ctx = GrassContext(3, 4)
    assert ctx.integrate(TruncatedPoly(Packing(3, ctx.g, ctx.g))) == 0


def test_integrate_zero_in_the_box_of_the_context():
    ctx = GrassContext(3, 5)
    zero = TruncatedPoly(ctx.ring)
    assert zero.box == ctx.box < ctx.g
    assert ctx.integrate(zero) == 0


def test_integrate_validation():
    ctx = GrassContext(3, 4)
    wrong_vars = TruncatedPoly.one(Packing(2, ctx.g, ctx.g))
    with pytest.raises(ValueError):
        ctx.integrate(wrong_vars)
    not_top_degree = elementary(ctx.ring, 1)
    with pytest.raises(ValueError):
        ctx.integrate(not_top_degree)
    # an asymmetric class cannot be built, so it never reaches the integral
    with pytest.raises(ValueError, match="symmetric"):
        TruncatedPoly(ctx.ring, {(3, 0, 0): 1})


def test_integral_combines_exactly():
    # on G(3,5) the Pluecker class integrates to 5 and the point class to 1,
    # so this combination must vanish exactly
    ctx = GrassContext(3, 5)
    point = TruncatedPoly(ctx.ring, {(2, 2, 2): 1})
    cls = plus(e1_power(ctx.ring, ctx.g), point, -5)
    assert ctx.integrate(cls) == 0


def test_integrate_rejects_a_ring_whose_box_drops_read_terms():
    # the Pluecker class of G(3, 7) in the box of G(3, 6) has lost terms
    # with an exponent of 6, which the integral over G(3, 7) reads
    small, large = GrassContext(3, 6), GrassContext(3, 7)
    terms = dict(e1_power(Packing(3, large.g, large.g), large.g).sorted_terms())
    in_small_box = TruncatedPoly(Packing(3, large.g, small.box), terms)
    assert in_small_box.box == 5
    with pytest.raises(ValueError, match="box|exponents"):
        large.integrate(in_small_box)
    assert large.integrate(TruncatedPoly(large.ring, terms)) == large.plucker_degree() == 462


def test_integrate_returns_an_int_for_an_integral_value():
    # on G(3, 5) both e_3^2 and e_1 e_2 e_3 integrate to 1, so half their sum
    # has half-integer coefficients and the integral 1
    ctx = GrassContext(3, 5)
    e1, e2, e3 = (elementary(ctx.ring, i) for i in (1, 2, 3))
    cls = plus(e3 * e3, e1 * e2 * e3).scale(Fraction(1, 2))
    assert all(isinstance(c, Fraction) for _, c in cls.sorted_terms() if c != 2)
    value = ctx.integrate(cls)
    assert type(value) is int and value == 1
    assert ctx.integrate(cls.scale(Fraction(1, 3))) == Fraction(1, 3)
