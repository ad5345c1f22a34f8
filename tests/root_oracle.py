"""The Chern-root enumeration read root by root, the oracle of ``bundles._signed_roots``.

A symmetric power takes one count vector per multiset of base roots and
dots it with each coefficient column; a tensor product adds every pair of
roots; a sum and a difference add signed multiplicities.  The package
forms the same map by whole-column passes.
"""

from __future__ import annotations

from operator import add, mul

from lpbdeg.bundles import Dual, Minus, Plus, Sym, Tensor, TautologicalSub
from lpbdeg.polyring import exponents_of_degree


def signed_roots_by_pairs(expr, k):
    """Map from each Chern root form of ``expr`` to its nonzero signed multiplicity."""
    if isinstance(expr, TautologicalSub):
        return {tuple(-1 if j == i else 0 for j in range(k)): 1 for i in range(k)}
    if isinstance(expr, Dual):
        return {tuple(-c for c in f): m for f, m in signed_roots_by_pairs(expr.operand, k).items()}
    if isinstance(expr, Sym):
        inner = signed_roots_by_pairs(expr.operand, k)
        if any(m < 0 for m in inner.values()):
            raise ValueError("symmetric power of a properly virtual bundle")
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
    if isinstance(expr, Tensor):
        right = signed_roots_by_pairs(expr.right, k).items()
        out = {}
        for a, ma in signed_roots_by_pairs(expr.left, k).items():
            for b, mb in right:
                form = tuple(map(add, a, b))
                out[form] = out.get(form, 0) + ma * mb
        return {f: m for f, m in out.items() if m}
    if isinstance(expr, (Plus, Minus)):
        sign = 1 if isinstance(expr, Plus) else -1
        out = dict(signed_roots_by_pairs(expr.left, k))
        for f, m in signed_roots_by_pairs(expr.right, k).items():
            out[f] = out.get(f, 0) + sign * m
        return {f: m for f, m in out.items() if m}
    raise TypeError(f"not a bundle expression: {expr!r}")
