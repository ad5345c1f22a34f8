"""Virtual bundle expressions and their Chern roots over a Grassmannian.

Bundles are built from the tautological subbundle of a Grassmannian of
k-planes by duals, symmetric powers, tensor products, sums and differences.
By the splitting principle every such expression has a formal multiset of
Chern roots, each an integer linear form in the k Chern roots x_1..x_k of
the *dual* tautological subbundle.  That convention makes the elementary
symmetric polynomials of the x_i the Schubert hyperplane classes with the
usual signs: the roots of the tautological subbundle itself are the -x_i.

A virtual bundle carries two multisets, positive and negative; common forms
are cancelled so that a virtual difference whose negative part divides the
positive part is recognized as an honest bundle.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations_with_replacement
from math import factorial
from typing import TYPE_CHECKING

from .exact import normalize
from .polyring import LinearForm, TruncatedPoly, inverse_unit_series, product_shifted_linear

if TYPE_CHECKING:
    from .grassmann import GrassContext


class VirtualBundleExpr:
    """Base class for the bundle expression tree."""

    __slots__ = ()

    def __add__(self, other: VirtualBundleExpr) -> VirtualBundleExpr:
        if not isinstance(other, VirtualBundleExpr):
            return NotImplemented
        return Plus(self, other)

    def __sub__(self, other: VirtualBundleExpr) -> VirtualBundleExpr:
        if not isinstance(other, VirtualBundleExpr):
            return NotImplemented
        return Minus(self, other)

    def __mul__(self, other: VirtualBundleExpr) -> VirtualBundleExpr:
        if not isinstance(other, VirtualBundleExpr):
            return NotImplemented
        return Tensor(self, other)


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


def sym(power: int, expr: VirtualBundleExpr) -> VirtualBundleExpr:
    return Sym(power, expr)


@dataclass(frozen=True)
class RootSet:
    """Formal Chern roots of a virtual bundle, split by sign.

    Both parts are multisets of linear forms, stored sorted; construction
    cancels forms shared by the two parts, so ``negative`` is empty exactly
    when the virtual bundle is (recognizably) an honest bundle.
    """

    positive: tuple[LinearForm, ...]
    negative: tuple[LinearForm, ...]

    @classmethod
    def make(cls, positive: Counter[LinearForm], negative: Counter[LinearForm]) -> RootSet:
        common = positive & negative
        pos = positive - common
        neg = negative - common
        return cls(tuple(sorted(pos.elements())), tuple(sorted(neg.elements())))

    @property
    def virtual_rank(self) -> int:
        return len(self.positive) - len(self.negative)

    @property
    def is_honest(self) -> bool:
        return not self.negative


def chern_roots(expr: VirtualBundleExpr, ctx: GrassContext) -> RootSet:
    """Chern roots of a bundle expression over the given Grassmannian.

    Raises ``ValueError`` for a symmetric power of a properly virtual
    operand, which has no splitting-principle expansion of this shape.
    """
    k = ctx.k
    if isinstance(expr, TautologicalSub):
        roots = Counter(
            LinearForm(tuple(-1 if j == i else 0 for j in range(k))) for i in range(k)
        )
        return RootSet.make(roots, Counter())
    if isinstance(expr, Dual):
        inner = chern_roots(expr.operand, ctx)
        return RootSet.make(
            Counter(-f for f in inner.positive), Counter(-f for f in inner.negative)
        )
    if isinstance(expr, Sym):
        inner = chern_roots(expr.operand, ctx)
        if not inner.is_honest:
            raise ValueError("symmetric power of a properly virtual bundle")
        base = inner.positive
        roots = Counter()
        for picks in combinations_with_replacement(range(len(base)), expr.power):
            # one form per multiset of roots, summed from its index counts
            counts = [0] * len(base)
            for i in picks:
                counts[i] += 1
            coeffs = (sum(c * f.coeffs[j] for c, f in zip(counts, base)) for j in range(k))
            roots[LinearForm(tuple(coeffs))] += 1
        return RootSet.make(roots, Counter())
    if isinstance(expr, Tensor):
        left = chern_roots(expr.left, ctx)
        right = chern_roots(expr.right, ctx)
        pos: Counter[LinearForm] = Counter()
        neg: Counter[LinearForm] = Counter()
        for a in left.positive:
            for b in right.positive:
                pos[a + b] += 1
            for b in right.negative:
                neg[a + b] += 1
        for a in left.negative:
            for b in right.positive:
                neg[a + b] += 1
            for b in right.negative:
                pos[a + b] += 1
        return RootSet.make(pos, neg)
    if isinstance(expr, Plus):
        left = chern_roots(expr.left, ctx)
        right = chern_roots(expr.right, ctx)
        return RootSet.make(
            Counter(left.positive) + Counter(right.positive),
            Counter(left.negative) + Counter(right.negative),
        )
    if isinstance(expr, Minus):
        left = chern_roots(expr.left, ctx)
        right = chern_roots(expr.right, ctx)
        return RootSet.make(
            Counter(left.positive) + Counter(right.negative),
            Counter(left.negative) + Counter(right.positive),
        )
    raise TypeError(f"not a bundle expression: {expr!r}")


def total_chern(expr: VirtualBundleExpr, ctx: GrassContext, cap: int) -> TruncatedPoly:
    """Total Chern class ``prod (1 + r) / prod (1 + s)`` over the root sets."""
    roots = chern_roots(expr, ctx)
    num = product_shifted_linear(roots.positive, cap, nvars=ctx.k)
    if not roots.negative:
        return num
    den = product_shifted_linear(roots.negative, cap, nvars=ctx.k)
    return num * inverse_unit_series(den)


def total_segre(expr: VirtualBundleExpr, ctx: GrassContext, cap: int) -> TruncatedPoly:
    """Total Segre class, the multiplicative inverse of the total Chern class."""
    return inverse_unit_series(total_chern(expr, ctx, cap))


def chern_character_graded(expr: VirtualBundleExpr, ctx: GrassContext, degree: int, cap: int) -> TruncatedPoly:
    """Degree-``degree`` graded piece of the Chern character.

    For roots r_i minus roots s_j this is
    ``(sum r_i^degree - sum s_j^degree) / degree!``, expanded with
    multinomial coefficients.
    """
    if degree < 0:
        raise ValueError("negative character degree")
    if degree > cap:
        raise ValueError("character degree beyond the ring cap")
    roots = chern_roots(expr, ctx)
    acc: dict[tuple[int, ...], int] = {}
    for sign, part in ((1, roots.positive), (-1, roots.negative)):
        for form in part:
            for expo, coeff in _power_of_linear(form, degree).items():
                v = acc.get(expo, 0) + sign * coeff
                if v:
                    acc[expo] = v
                elif expo in acc:
                    del acc[expo]
    inv = factorial(degree)
    terms = {e: normalize(Fraction(c, inv)) for e, c in acc.items()}
    return TruncatedPoly(ctx.k, cap, terms)


def _power_of_linear(form: LinearForm, degree: int) -> dict[tuple[int, ...], int]:
    """Expand ``form ** degree`` by the multinomial theorem."""
    k = form.nvars
    if degree == 0:
        return {(0,) * k: 1}
    out: dict[tuple[int, ...], int] = {}
    support = [i for i, c in enumerate(form.coeffs) if c]
    if not support:
        return {}
    for picks in combinations_with_replacement(support, degree):
        expo = [0] * k
        for i in picks:
            expo[i] += 1
        coeff = factorial(degree)
        for i in support:
            if expo[i]:
                coeff //= factorial(expo[i])
        for i in support:
            coeff *= form.coeffs[i] ** expo[i]
        key = tuple(expo)
        v = out.get(key, 0) + coeff
        if v:
            out[key] = v
        elif key in out:
            del out[key]
    return out
