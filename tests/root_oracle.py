"""Chern roots read root by root: the oracle of ``bundles._signed_roots``.

The package knows one bundle, the pulled-back forms, and takes its roots
in closed form.  The tests also take classes of other bundles, so this
module has its own tiny expressions over the tautological subbundle T of
the Grassmannian of k-planes: ``TAUT``, ``Dual``, ``Sym`` and
``PullbackForms``.  A symmetric power takes one count vector per multiset
of base roots and dots it with each coefficient column.  The
pulled-back-forms bundle is expanded from its defining difference
Sym^{d+1}T (x) T - Sym^{d+2}T: a tensor product adds every pair of roots
and a difference subtracts multiplicities.  The package forms the same
map by whole-column passes, from a closed form that this oracle never
uses.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import add, mul

from lpbdeg.polyring import exponents_of_degree

TAUT = "T"


@dataclass(frozen=True)
class Dual:
    operand: object


@dataclass(frozen=True)
class Sym:
    power: int
    operand: object


@dataclass(frozen=True)
class PullbackForms:
    d: int


def signed_roots_by_pairs(expr, k):
    """Map from each Chern root form of ``expr`` to its nonzero signed multiplicity."""
    if expr == TAUT:
        return {tuple(-1 if j == i else 0 for j in range(k)): 1 for i in range(k)}
    if isinstance(expr, Dual):
        return {tuple(-c for c in f): m for f, m in signed_roots_by_pairs(expr.operand, k).items()}
    if isinstance(expr, Sym):
        inner = signed_roots_by_pairs(expr.operand, k)
        base = [f for f, m in inner.items() for _ in range(m)]
        if not base:
            # Sym^0 of the zero bundle is the trivial line bundle
            return {(0,) * k: 1} if expr.power == 0 else {}
        # a multiset of roots is its vector of counts, one entry per root of
        # the base, and its form is the counts dotted with each column
        columns = list(zip(*base))
        out = {}
        for counts in exponents_of_degree(len(base), expr.power):
            form = tuple([sum(map(mul, counts, column)) for column in columns])
            out[form] = out.get(form, 0) + 1
        return out
    if isinstance(expr, PullbackForms):
        tensor = tensor_roots(signed_roots_by_pairs(Sym(expr.d + 1, TAUT), k), signed_roots_by_pairs(TAUT, k))
        return _difference(tensor, signed_roots_by_pairs(Sym(expr.d + 2, TAUT), k))
    raise TypeError(f"not a bundle expression: {expr!r}")


def tensor_roots(left, right):
    """The roots of a tensor product: every pair of roots added, multiplicities multiplied."""
    out = {}
    for a, ma in left.items():
        for b, mb in right.items():
            form = tuple(map(add, a, b))
            out[form] = out.get(form, 0) + ma * mb
    return out


def _difference(left, right):
    """The roots of a difference: multiplicities subtracted, zeros dropped."""
    out = dict(left)
    for f, m in right.items():
        out[f] = out.get(f, 0) - m
    return {f: m for f, m in out.items() if m}
