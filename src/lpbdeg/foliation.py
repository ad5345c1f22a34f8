"""Degrees and dimensions of linear pullback components.

The space of degree-d codimension-one foliations on projective n-space has
an irreducible component whose general member is the pullback of a plane
foliation under a linear projection.  Over the Grassmannian of 3-planes in
(n+1)-space, the coefficient vectors of such pullbacks form a vector bundle
of rank (d+1)(d+3); the component's degree is the integral of the top Segre
class of that bundle, and its dimension is the Grassmannian dimension plus
the projectivized fiber dimension.

Two evaluation routes are implemented for the degree.  The default
inverts the total Chern class of the bundle; the second assembles the
Segre class from graded Chern characters of the dual bundle, scaled to
power sums, by Newton's identity for the complete homogeneous symmetric
functions.  It keeps the name ``ch_partition``: it evaluates the
partition-weighted character sum, without walking the partitions.  The
routes share one map of Chern roots, enumerated once per degree (the
character route reads it negated, as the dual's), the ring they compute in,
:attr:`~lpbdeg.grassmann.GrassContext.ring`, ``Q[x] / (deg > g,
x_i^(n+1))``, whose exponent box is the largest exponent the integral
reads, and the pass from the roots to their power sums,
:func:`~lpbdeg.polyring.power_sums`, until closed-form moments for the
quotient route (ROADMAP item 3) separate them again.
Tests check the box against the unboxed ring and pin the power sums on
their own (``test_power_sums_of_signed_roots``,
``test_character_at_degree_shape_matches_multinomial_expansion``).
Beyond that, exact agreement is a strong correctness check.

For fixed n the degree is a polynomial P_n in d of degree at most 3g with
g = 3(n-2), and P_n(-4-d) = (-1)^n P_n(d).  :func:`closed_form` recovers it
by exact interpolation from the nodes d = 0 .. floor(3g/2) and their mirror
images -4-d; :func:`closed_form_full_nodes` interpolates on the 3g+1 nodes
d = 2 .. 3g+2 and does not use the reciprocity.  Both verify the result at
one held-out node.  :func:`reference_polynomial` transcribes the two
published closed forms (n = 3 and n = 4) for cross-checking, and
:func:`reference_formula` evaluates them at one d.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from .bundles import chern_character_graded, chern_roots, dual
from .exact import Scalar, UniPoly, lagrange_interpolate, require
from .grassmann import GrassContext
from .polyring import inverse_unit_series, product_shifted_linear
from .symfunc import segre_via_characters

METHOD_CHERN_QUOTIENT = "chern_quotient"
METHOD_CH_PARTITION = "ch_partition"
METHOD_BOTH = "both"
_METHODS = (METHOD_CHERN_QUOTIENT, METHOD_CH_PARTITION, METHOD_BOTH)


# (name, least value, message) of the two arguments of the degree functions
_D = ("d", 0, "foliation degree must be nonnegative")
_N = ("n", 3, "ambient projective dimension must be at least 3")


class InternalInconsistencyError(RuntimeError):
    """Two computations that must agree exactly produced different values.

    Raised for non-integral Segre integrals, disagreement between the two
    degree routes, a failed interpolation verification node, and cache
    entries that contradict a fresh computation.  Any of these means a bug,
    never a tolerance issue, since all arithmetic is exact.
    """


def degree_lpb(d: int, n: int, method: str = METHOD_CHERN_QUOTIENT) -> int:
    """Degree of the linear pullback component for foliation degree d on P^n.

    ``method`` selects the evaluation route: ``"chern_quotient"`` (invert
    the total Chern class), ``"ch_partition"`` (the partition-weighted
    character sum, evaluated by Newton's identity
    ``k h_k = sum_{i=1..k} p_i h_{k-i}`` on the scaled characters), or
    ``"both"`` (run both and insist on exact agreement).

    Values with d < 2 are formal: the Segre integral is defined there, but
    the geometric component interpretation needs d >= 2.
    """
    require(d, *_D)
    require(n, *_N)
    if method not in _METHODS:
        raise ValueError(f"unknown method {method!r}")
    ctx = GrassContext(3, n + 1)
    roots = chern_roots(d, ctx).signed
    g = ctx.g
    results: dict[str, Scalar] = {}
    if method in (METHOD_CHERN_QUOTIENT, METHOD_BOTH):
        cls = inverse_unit_series(product_shifted_linear(roots, ctx.ring)).graded_part(g)
        results[METHOD_CHERN_QUOTIENT] = ctx.integrate(cls)
    if method in (METHOD_CH_PARTITION, METHOD_BOTH):
        pieces = chern_character_graded(dual(roots), ctx, g)
        cls = segre_via_characters(pieces, g)
        results[METHOD_CH_PARTITION] = ctx.integrate(cls)
    if len(results) == 2:
        a = results[METHOD_CHERN_QUOTIENT]
        b = results[METHOD_CH_PARTITION]
        if a != b:
            raise InternalInconsistencyError(
                f"degree routes disagree at (d, n) = ({d}, {n}): "
                f"chern_quotient gives {a}, ch_partition gives {b}"
            )
    value = next(iter(results.values()))
    if not isinstance(value, int):
        raise InternalInconsistencyError(f"degree at (d, n) = ({d}, {n}) is not an integer: {value}")
    return value


@dataclass(frozen=True)
class LpbInvariants:
    """Numerical invariants of a linear pullback component.

    ``bundle_rank`` is the rank (d+1)(d+3) of the pulled-back-forms bundle,
    ``grassmannian_dim`` is g = 3(n-2), and ``dimension`` is the component
    dimension g + (d+1)(d+3) - 1 inside the projectivized form space.
    """

    d: int
    n: int
    bundle_rank: int
    grassmannian_dim: int
    dimension: int


def lpb_invariants(d: int, n: int) -> LpbInvariants:
    """Rank, Grassmannian dimension and component dimension, by substitution."""
    require(d, *_D)
    require(n, *_N)
    rank = (d + 1) * (d + 3)
    g = 3 * (n - 2)
    return LpbInvariants(d=d, n=n, bundle_rank=rank, grassmannian_dim=g, dimension=g + rank - 1)


def virtual_rank_check(d: int, n: int) -> int:
    """Virtual rank of the pulled-back-forms bundle, from its root sets."""
    require(d, *_D)
    require(n, *_N)
    return chern_roots(d, GrassContext(3, n + 1)).virtual_rank


def closed_form(n: int, degree_fn: Callable[[int], int] | None = None) -> UniPoly:
    """The degree of the linear pullback component as a polynomial in d.

    The polynomial P_n has degree at most 3g in d, with g = 3(n-2), and
    P_n(-4-d) = (-1)^n P_n(d).  So ``degree_fn`` (by default the direct
    Segre integral) is evaluated only at d = 0 .. h, with h = floor(3g/2);
    each value also gives the point (-4-d, (-1)^n value), and the 2h+2 >=
    3g+1 distinct nodes fix P_n.  The interpolant is verified at the
    held-out node d = h+1.  A mismatch means the degree bound or the
    reciprocity failed, i.e. a bug, and raises
    :class:`InternalInconsistencyError`.

    Why the reciprocity holds.  Put N = d+2.  The Chern roots of the bundle
    are the forms -gamma.x with gamma in Z>=0^3 and |gamma| = N, and gamma
    has multiplicity w(gamma) = (its number of nonzero entries) - 1.  So the
    moment sum M_a(N) = sum w(gamma) (-gamma)^a equals (-1)^|a| F_a(N), with
    F_a(N) = sum over |gamma| = N of w(gamma) gamma^a.  On the triangle
    N.Delta, w is 2 at interior points, 1 on open edges and 0 at vertices,
    so F_a = 2I + E, with I the sum of gamma^a over the interior and E over
    the open edges.  Weighted Ehrhart-Macdonald reciprocity for the
    homogeneous weight gamma^a of degree |a| (Beck-Robins, *Computing the
    Continuous Discretely*, ch. 4; Brion-Vergne, JAMS 1997) gives
    I(-N) = (-1)^|a| (I + E + V)(N) on the triangle, with V the sum over
    the vertices, and E(-N) = (-1)^(|a|+1) (E + 2V)(N) on its three edges.
    Hence F_a(-N) = (-1)^|a| F_a(N) and M_a(-N) = (-1)^|a| M_a(N).  These
    sums are polynomials in N for every N >= 2, so the formal nodes d = 0
    and 1 lie on P_n as well.  The
    power sum p_j of the roots is a combination of the M_a with |a| = j,
    so p_j(-N) = (-1)^j p_j(N).  The Segre class s_g is a fixed polynomial
    in p_1 .. p_g, homogeneous of weight g, so its integral satisfies
    P_n(-N) = (-1)^g P_n(N), and g has the parity of n.

    ``degree_fn`` exists so a caller can route the node evaluations through
    a cache; it must behave exactly like ``degree_lpb(d, n)``.  A
    ``degree_fn`` that breaks the reciprocity fails the held-out node.
    """
    degree_fn = _node_evaluator(n, degree_fn)
    half = 9 * (n - 2) // 2
    sign = (-1) ** n
    points = []
    for d in range(half + 1):
        value = degree_fn(d)
        points += [(d, value), (-4 - d, sign * value)]
    return _verified(n, points, degree_fn, half + 1)


def closed_form_full_nodes(n: int, degree_fn: Callable[[int], int] | None = None) -> UniPoly:
    """:func:`closed_form` without the reciprocity, from 3g+1 direct nodes.

    Interpolates ``degree_fn`` at the nodes d = 2 .. 3g+2 and verifies the
    interpolant at the held-out node d = 3g+3, so the result rests on the
    degree bound alone.  ``verify-paper`` uses it, and the tests compare
    :func:`closed_form` against it.
    """
    degree_fn = _node_evaluator(n, degree_fn)
    bound = 9 * (n - 2)
    return _verified(n, [(d, degree_fn(d)) for d in range(2, bound + 3)], degree_fn, bound + 3)


def _node_evaluator(n: int, degree_fn: Callable[[int], int] | None) -> Callable[[int], int]:
    require(n, *_N)
    if degree_fn is None:
        return lambda d: degree_lpb(d, n)
    return degree_fn


def _verified(
    n: int, points: list[tuple[int, int]], degree_fn: Callable[[int], int], probe: int
) -> UniPoly:
    """The interpolant of ``points``, checked against ``degree_fn(probe)``."""
    poly = lagrange_interpolate(points)
    direct = degree_fn(probe)
    if poly(probe) != direct:
        raise InternalInconsistencyError(
            f"interpolated degree polynomial for n = {n} fails at d = {probe}: "
            f"polynomial gives {poly(probe)}, direct evaluation gives {direct}"
        )
    return poly


# The two published closed forms.  For n = 3:
#   (20/27) * C(d+4, 5) * (d^2 + 6d + 11) * (d^2 + 2d + 3)
# For n = 4, with the degree-12 cofactor transcribed verbatim (descending):
#   (1/839808) * (d+4)!/(d-1)! * P(d) * (2 + d)
_N4_COFACTOR_DESC = (
    8,
    192,
    2176,
    15360,
    75090,
    267552,
    711859,
    1423716,
    2119892,
    2279136,
    1662291,
    730188,
    125388,
)


def reference_formula(n: int, d: int) -> int:
    """Exact evaluation of the published closed form for n in {3, 4}.

    For n = 4 the published display quotients factorials, so d >= 1 is
    required there; n = 3 accepts any d >= 0.
    """
    require(n, *_N)
    require(d, *_D)
    if n == 4 and d < 1:
        raise ValueError("the published n = 4 form divides by (d-1)!, so d >= 1")
    value = reference_polynomial(n)(d)
    if not isinstance(value, int):
        raise InternalInconsistencyError(f"published form at (n, d) = ({n}, {d}) is not an integer: {value}")
    return value


def reference_polynomial(n: int) -> UniPoly:
    """Symbolic expansion of the published closed form as a polynomial in d."""
    x = UniPoly.variable()
    falling = UniPoly.constant(1)
    for i in range(5):
        falling = falling * (x + UniPoly.constant(i))
    if n == 3:
        quartics = UniPoly((11, 6, 1)) * UniPoly((3, 2, 1))
        return falling * quartics * Fraction(20, 27 * 120)
    if n == 4:
        cofactor = UniPoly(tuple(reversed(_N4_COFACTOR_DESC)))
        return falling * cofactor * UniPoly((2, 1)) * Fraction(1, 839808)
    raise ValueError("published closed forms exist only for n = 3 and n = 4")
