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
recognized as an honest bundle.  Each node is formed by C-level passes
over whole coefficient columns, not root by root: a dual negates the
columns, a tensor product shifts the columns of its larger operand by each
root of the other, and a symmetric power walks the multisets of all base
roots but the last two, along which its roots are arithmetic progressions
in every coordinate.  The map is the one root format: power
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
from itertools import compress, islice, repeat
from math import comb, factorial
from operator import add, mul, neg, not_, sub
from types import MappingProxyType
from typing import TYPE_CHECKING, Iterable, Iterator, Mapping

from .exact import normalize
from .polyring import TruncatedPoly, inverse_unit_series, power_sums, product_shifted_linear

if TYPE_CHECKING:
    from .grassmann import GrassContext

# a Chern root: the integer coefficients of a linear form in x_1..x_k
Root = tuple[int, ...]

# the forms one C-level merge into a root map holds at once
_CHUNK = 4096


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
    """Map from each Chern root form to its nonzero signed multiplicity.

    Every node is formed by C-level passes over whole coefficient columns,
    with no Python-level step per root or pair of roots it forms.
    """
    if isinstance(expr, TautologicalSub):
        return {tuple(-1 if j == i else 0 for j in range(k)): 1 for i in range(k)}
    if isinstance(expr, Dual):
        inner = _signed_roots(expr.operand, k)
        return dict(zip(zip(*[map(neg, column) for column in zip(*inner)]), inner.values()))
    if isinstance(expr, Sym):
        inner = _signed_roots(expr.operand, k)
        if min(inner.values(), default=0) < 0:
            raise ValueError("symmetric power of a properly virtual bundle")
        return _symmetric_power(inner, expr.power, k)
    if isinstance(expr, Tensor):
        left, right = _signed_roots(expr.left, k), _signed_roots(expr.right, k)
        if len(left) < len(right):
            left, right = right, left
        # the larger map as columns, shifted by each form of the smaller one
        columns, mults = list(zip(*left)), list(left.values())
        del left
        out: dict[Root, int] = {}
        for b, mb in right.items():
            forms = zip(*[map(add, column, repeat(c)) for column, c in zip(columns, b)])
            _add_into(out, forms, mults if mb == 1 else map(mul, mults, repeat(mb)))
        return _nonzero(out)
    if isinstance(expr, (Plus, Minus)):
        out = _signed_roots(expr.left, k)
        right = _signed_roots(expr.right, k)
        _add_into(out, right, right.values() if isinstance(expr, Plus) else map(neg, right.values()))
        return _nonzero(out)
    raise TypeError(f"not a bundle expression: {expr!r}")


def _symmetric_power(inner: dict[Root, int], power: int, k: int) -> dict[Root, int]:
    """The roots of ``Sym^power`` of the honest bundle with roots ``inner``.

    A multiset of ``power`` base roots, each form listed as often as its
    multiplicity, is a vector of counts, and its root is the counts dotted
    with the base.  Two distinct forms u and v are put last.  For the
    counts c of the other base roots, with r = power - |c| left over, the
    roots ``c.head + r v + t (u - v)``, t = 0 .. r, are an arithmetic
    progression in each coordinate: one ``range`` per coordinate, or a
    ``repeat`` where u and v agree, zipped into r + 1 distinct forms.
    """
    if not inner:
        # Sym^0 of the zero bundle is the trivial line bundle
        return {(0,) * k: 1} if power == 0 else {}
    if len(inner) == 1:
        # m copies of one form u: each of the C(power + m - 1, m - 1) multisets has the root power * u
        ((u, m),) = inner.items()
        return {tuple(power * c for c in u): comb(power + m - 1, m - 1)}
    u, v = next(iter(inner)), next(reversed(inner))
    head = [f for f, m in inner.items() for _ in range(m - (f in (u, v)))]
    step = tuple(map(sub, u, v))
    out: dict[Root, int] = {}
    for partial, r in _partial_sums(head, power, (0,) * k):
        starts = map(add, partial, map(mul, v, repeat(r)))
        progressions = [range(s, s + (r + 1) * dt, dt) if dt else repeat(s, r + 1) for s, dt in zip(starts, step)]
        _add_into(out, zip(*progressions), repeat(1))
    return out


def _partial_sums(forms: list[Root], budget: int, partial: Root) -> Iterator[tuple[Root, int]]:
    """``partial`` plus the counts dotted with ``forms``, and what the counts leave of ``budget``.

    One pair per count vector of ``forms`` with entries summing to at most
    ``budget``; each sum is its parent's plus one form.
    """
    if not forms:
        yield partial, budget
        return
    first, rest = forms[0], forms[1:]
    for left in range(budget, -1, -1):
        yield from _partial_sums(rest, left, partial)
        partial = tuple(map(add, partial, first))


def _add_into(out: dict[Root, int], forms: Iterable[Root], mults: Iterable[int]) -> None:
    """Add each multiplicity into ``out`` at its form; ``forms`` are distinct.

    Three C-level passes: the forms already present are read with
    ``out.get``, their sums written back with one ``update``.
    """
    if not out:
        out.update(zip(forms, mults))
        return
    # a chunk at a time, so the new forms of a whole pass never coexist;
    # zip stops on the spent chunk before it draws a multiplicity
    forms, mults = iter(forms), iter(mults)
    while chunk := list(islice(forms, _CHUNK)):
        out.update(zip(chunk, map(add, map(out.get, chunk, repeat(0)), mults)))


def _nonzero(out: dict[Root, int]) -> dict[Root, int]:
    """``out`` without its zero multiplicities, dropped in place."""
    if 0 in out.values():
        for f in list(compress(out, map(not_, out.values()))):
            del out[f]
    return out


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
