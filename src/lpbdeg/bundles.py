"""Virtual bundle expressions and their Chern roots over a Grassmannian.

Bundles are built from the tautological subbundle of a Grassmannian of
k-planes by duals, symmetric powers, tensor products, sums and differences.
By the splitting principle every such expression has a formal multiset of
Chern roots, each an integer linear form in the k Chern roots x_1..x_k of
the *dual* tautological subbundle, written as its coefficient tuple.  That
convention makes the elementary symmetric polynomials of the x_i the
Schubert hyperplane classes with the usual signs: the roots of the
tautological subbundle itself are the -x_i.

A virtual bundle's roots are one map from form to signed multiplicity,
computed bottom-up over the expression tree: a difference subtracts
multiplicities and a form whose multiplicity reaches zero is dropped, so a
virtual difference whose negative part divides the positive part is
recognized as an honest bundle.  The map is the one root format: power
sums are additive, so the Chern class and character of a virtual bundle
take the same pass over it as those of an honest one.  The map is
symmetric under permuting the x_i, since the roots of the tautological
subbundle are and every operation commutes with the permutations;
:func:`~lpbdeg.polyring.power_sums` checks this once, for the Chern class
and the character alike.

Classes are built in the one ring of the Grassmannian,
:attr:`~lpbdeg.grassmann.GrassContext.ring`, ``Q[x] / (deg > g, x_i^m)``
over G(k, m): the integral reads no monomial with an exponent above m - 1,
and the monomials beyond that box span an ideal, so the products, the
inversion and the power sums here form only monomials in the box and the
integral is unchanged (see :mod:`lpbdeg.polyring`).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import factorial
from operator import add, mul
from types import MappingProxyType
from typing import TYPE_CHECKING, Mapping

from .exact import normalize
from .polyring import TruncatedPoly, exponents_of_degree, inverse_unit_series, power_sums, product_shifted_linear

if TYPE_CHECKING:
    from .grassmann import GrassContext

# a Chern root: the integer coefficients of a linear form in x_1..x_k
Root = tuple[int, ...]


class VirtualBundleExpr:
    """Base class for the bundle expression tree."""

    __slots__ = ()


@dataclass(frozen=True)
class TautologicalSub(VirtualBundleExpr):
    """The rank-k tautological subbundle on the Grassmannian of k-planes."""

    __slots__ = ()


@dataclass(frozen=True)
class Dual(VirtualBundleExpr):
    operand: VirtualBundleExpr


@dataclass(frozen=True)
class Sym(VirtualBundleExpr):
    """Symmetric power; only defined for honest (non-virtual) operands."""

    power: int
    operand: VirtualBundleExpr

    def __post_init__(self) -> None:
        if self.power < 0:
            raise ValueError("symmetric power must be nonnegative")


@dataclass(frozen=True)
class Tensor(VirtualBundleExpr):
    left: VirtualBundleExpr
    right: VirtualBundleExpr


@dataclass(frozen=True)
class Plus(VirtualBundleExpr):
    left: VirtualBundleExpr
    right: VirtualBundleExpr


@dataclass(frozen=True)
class Minus(VirtualBundleExpr):
    left: VirtualBundleExpr
    right: VirtualBundleExpr


TAUT = TautologicalSub()


def dual(expr: VirtualBundleExpr) -> VirtualBundleExpr:
    return Dual(expr)


@dataclass(frozen=True)
class RootSet:
    """Formal Chern roots of a virtual bundle.

    ``signed`` maps each distinct form, an integer coefficient tuple, to
    its nonzero multiplicity; the bundle is (recognizably) an honest bundle
    exactly when no multiplicity is negative.
    """

    signed: Mapping[Root, int]

    @property
    def virtual_rank(self) -> int:
        return sum(self.signed.values())

    # read-only parts, form -> |m|: only the benchmark's root count hook and the tests read them
    @property
    def positive(self) -> Mapping[Root, int]:
        return MappingProxyType({f: m for f, m in self.signed.items() if m > 0})

    @property
    def negative(self) -> Mapping[Root, int]:
        return MappingProxyType({f: -m for f, m in self.signed.items() if m < 0})


def chern_roots(expr: VirtualBundleExpr, ctx: GrassContext) -> RootSet:
    """Chern roots of a bundle expression over the given Grassmannian.

    Raises ``ValueError`` for a symmetric power of a properly virtual
    operand, which has no splitting-principle expansion of this shape.
    """
    return RootSet(_signed_roots(expr, ctx.k))


def _signed_roots(expr: VirtualBundleExpr, k: int) -> dict[Root, int]:
    """Map from each Chern root form to its nonzero signed multiplicity."""
    if isinstance(expr, TautologicalSub):
        return {tuple(-1 if j == i else 0 for j in range(k)): 1 for i in range(k)}
    if isinstance(expr, Dual):
        return {tuple(-c for c in f): m for f, m in _signed_roots(expr.operand, k).items()}
    if isinstance(expr, Sym):
        inner = _signed_roots(expr.operand, k)
        if any(m < 0 for m in inner.values()):
            raise ValueError("symmetric power of a properly virtual bundle")
        base = [f for f, m in inner.items() for _ in range(m)]
        if not base:
            # Sym^0 of the zero bundle is the trivial line bundle
            return {(0,) * k: 1} if expr.power == 0 else {}
        # a multiset of roots is its vector of counts, one entry per root of
        # the base, and its form is the counts dotted with each column
        columns = list(zip(*base))
        out: dict[Root, int] = {}
        for counts in exponents_of_degree(len(base), expr.power):
            form = tuple([sum(map(mul, counts, column)) for column in columns])
            out[form] = out.get(form, 0) + 1
        return out
    if isinstance(expr, Tensor):
        right = _signed_roots(expr.right, k).items()
        out = {}
        for a, ma in _signed_roots(expr.left, k).items():
            for b, mb in right:
                form = tuple(map(add, a, b))
                out[form] = out.get(form, 0) + ma * mb
        return {f: m for f, m in out.items() if m}
    if isinstance(expr, (Plus, Minus)):
        sign = 1 if isinstance(expr, Plus) else -1
        out = dict(_signed_roots(expr.left, k))
        for f, m in _signed_roots(expr.right, k).items():
            out[f] = out.get(f, 0) + sign * m
        return {f: m for f, m in out.items() if m}
    raise TypeError(f"not a bundle expression: {expr!r}")


def total_chern(expr: VirtualBundleExpr, ctx: GrassContext) -> TruncatedPoly:
    """Total Chern class ``prod (1 + r)^m`` over the signed roots of ``expr``.

    A virtual ``E - F`` gets ``c(E) / c(F)`` from the same pass, in
    ``ctx.ring``.
    """
    return product_shifted_linear(chern_roots(expr, ctx).signed, ctx.ring)


def total_segre(expr: VirtualBundleExpr, ctx: GrassContext) -> TruncatedPoly:
    """Total Segre class, the multiplicative inverse of the total Chern class."""
    return inverse_unit_series(total_chern(expr, ctx))


def chern_character_graded(expr: VirtualBundleExpr, ctx: GrassContext, degree: int) -> list[TruncatedPoly]:
    """Graded pieces ch_0 .. ch_degree of the Chern character.

    Entry j of the list is, for roots r minus roots s,
    ``(sum r^j - sum s^j) / j!``: the power sums of the signed roots, from
    the moment pass :func:`~lpbdeg.polyring.power_sums`, each divided by
    j!.  The pieces live in ``ctx.ring``, and no monomial outside its box
    is formed.  A degree outside [0, ``ctx.g``] and roots not symmetric in
    x_1..x_k raise ``ValueError`` in :func:`~lpbdeg.polyring.power_sums`.
    """
    ring = ctx.ring
    sums = power_sums(_signed_roots(expr, ctx.k), ring, degree)
    return [
        TruncatedPoly._raw(ring, {key: normalize(Fraction(c, factorial(j))) for key, c in p.items()})
        for j, p in enumerate(sums)
    ]
