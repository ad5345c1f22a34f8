"""Bundle expressions and their Chern roots over a Grassmannian.

Bundles are built from the tautological subbundle T of a Grassmannian of
k-planes by duals and symmetric powers, and one more node, the bundle of
pulled-back 1-forms.  By the splitting principle every such expression
has a formal multiset of Chern roots, each an integer linear form in the k
Chern roots x_1..x_k of the *dual* tautological subbundle, written as its
coefficient tuple.  That convention makes the elementary symmetric
polynomials of the x_i the Schubert hyperplane classes with the usual
signs: the roots of T itself are the -x_i.

The roots are one map from form to multiplicity, computed bottom-up over
the expression tree by C-level passes over whole coefficient columns, not
root by root: a dual negates the columns, and a symmetric power walks the
multisets of all base roots but the last two, along which its roots are
arithmetic progressions in every coordinate.

The pulled-back-forms bundle of degree d is the kernel K of the
contraction Sym^{d+1}T (x) T -> Sym^{d+2}T, and its roots are in closed
form: the -gamma.x over gamma in Z>=0^k with |gamma| = d + 2, each with
multiplicity nnz(gamma) - 1, where nnz counts the nonzero entries.  Proof:
the contraction is multiplication, which is onto, so K = Sym^{d+1}T (x) T -
Sym^{d+2}T in K-theory (Fulton, *Intersection Theory*, ch. 3).  The roots
of the tensor product are the -(beta + e_i).x over |beta| = d + 1 and i =
1..k, and -gamma.x arises there once for each i with gamma_i > 0, so
nnz(gamma) times; Sym^{d+2}T has it once.  So K's roots are those of
Sym^{d+2}T, reweighted in place, less the k vertices gamma = (d + 2) e_i,
of multiplicity 0; at k = 1 that leaves the zero bundle.

The map is the one root format: the Chern class and the character take one
pass over it, and both accept signed multiplicities.  The map is symmetric
under permuting the x_i, since the roots of T are and every operation
commutes with the permutations; :func:`~lpbdeg.polyring.power_sums` checks
this once, for the Chern class and the character alike.

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
from itertools import repeat
from math import comb, factorial
from operator import add, mul, neg, sub
from types import MappingProxyType
from typing import TYPE_CHECKING, Iterator, Mapping

from .exact import normalize
from .polyring import TruncatedPoly, inverse_unit_series, power_sums, product_shifted_linear

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
    """Symmetric power."""

    power: int
    operand: VirtualBundleExpr

    def __post_init__(self) -> None:
        if self.power < 0:
            raise ValueError("symmetric power must be nonnegative")


@dataclass(frozen=True)
class PullbackForms(VirtualBundleExpr):
    """The kernel of the contraction Sym^{d+1}T (x) T -> Sym^{d+2}T, T tautological.

    Its roots are the closed form of the module docstring.  ``d`` is a
    foliation degree, at least 0, as
    :func:`~lpbdeg.foliation.pullback_forms_bundle` checks.
    """

    d: int


TAUT = TautologicalSub()


def dual(expr: VirtualBundleExpr) -> VirtualBundleExpr:
    return Dual(expr)


@dataclass(frozen=True)
class RootSet:
    """Formal Chern roots of a bundle.

    ``signed`` maps each distinct form, an integer coefficient tuple, to
    its nonzero multiplicity.  Every expression here is an honest bundle,
    so no multiplicity is negative, but the classes read the map as signed.
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
    """Chern roots of a bundle expression over the given Grassmannian."""
    return RootSet(_signed_roots(expr, ctx.k))


def _signed_roots(expr: VirtualBundleExpr, k: int) -> dict[Root, int]:
    """Map from each Chern root form to its nonzero multiplicity.

    Every node is formed by C-level passes over whole coefficient columns,
    with no Python-level step per root it forms.
    """
    if isinstance(expr, TautologicalSub):
        return {tuple(-1 if j == i else 0 for j in range(k)): 1 for i in range(k)}
    if isinstance(expr, Dual):
        inner = _signed_roots(expr.operand, k)
        return dict(zip(zip(*[map(neg, column) for column in zip(*inner)]), inner.values()))
    if isinstance(expr, Sym):
        return _symmetric_power(_signed_roots(expr.operand, k), expr.power, k)
    if isinstance(expr, PullbackForms):
        # the roots -gamma.x of Sym^{d+2}T, each set to nnz(gamma) - 1 in
        # place, and the k vertices, set to 0, dropped
        out = _signed_roots(Sym(expr.d + 2, TAUT), k)
        forms = list(out)
        out.update(zip(forms, map(sub, repeat(k - 1), map(tuple.count, forms, repeat(0)))))
        for i in range(k):
            del out[tuple(-2 - expr.d if j == i else 0 for j in range(k))]
        return out
    raise TypeError(f"not a bundle expression: {expr!r}")


def _symmetric_power(inner: dict[Root, int], power: int, k: int) -> dict[Root, int]:
    """The roots of ``Sym^power`` of the bundle with roots ``inner``.

    A multiset of ``power`` base roots, each form listed as often as its
    multiplicity, is a vector of counts, and its root is the counts dotted
    with the base.  Two distinct forms u and v are put last.  For the
    counts c of the other base roots, with r = power - |c| left over, the
    roots ``c.head + r v + t (u - v)``, t = 0 .. r, are an arithmetic
    progression in each coordinate: one ``range`` per coordinate, or a
    ``repeat`` where u and v agree, zipped into r + 1 distinct forms, each
    added once into the map by three C-level passes.
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
        forms = list(zip(*progressions))
        out.update(zip(forms, map(add, map(out.get, forms, repeat(0)), repeat(1))))
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


def total_chern(expr: VirtualBundleExpr, ctx: GrassContext) -> TruncatedPoly:
    """Total Chern class ``prod (1 + r)^m`` over the roots of ``expr``, in ``ctx.ring``."""
    return product_shifted_linear(chern_roots(expr, ctx).signed, ctx.ring)


def total_segre(expr: VirtualBundleExpr, ctx: GrassContext) -> TruncatedPoly:
    """Total Segre class, the multiplicative inverse of the total Chern class."""
    return inverse_unit_series(total_chern(expr, ctx))


def chern_character_graded(expr: VirtualBundleExpr, ctx: GrassContext, degree: int) -> list[TruncatedPoly]:
    """Graded pieces ch_0 .. ch_degree of the Chern character.

    Entry j of the list is ``sum m r^j / j!`` over the roots r of
    multiplicity m: the power sums of the roots, from the moment pass
    :func:`~lpbdeg.polyring.power_sums`, each divided by j!.  The pieces
    live in ``ctx.ring``, and no monomial outside its box is formed.  A
    degree outside [0, ``ctx.g``] and roots not symmetric in x_1..x_k raise
    ``ValueError`` in :func:`~lpbdeg.polyring.power_sums`.
    """
    ring = ctx.ring
    sums = power_sums(_signed_roots(expr, ctx.k), ring, degree)
    return [
        TruncatedPoly._raw(ring, {key: normalize(Fraction(c, factorial(j))) for key, c in p.items()})
        for j, p in enumerate(sums)
    ]
