"""Operations on packed polynomials and truncated classes that only the tests use.

The package keeps the arithmetic its commands run.  The tests build their
operands and oracles with these: packed polynomials from exponent-tuple
dicts, the product of two tuple-dict polynomials truncated by degree and
box, the partial derivative the forms tests take curls with, the sum of
two truncated classes, the classes e_k and e_1^g, and the convolution
recurrence as one product per pair of grades.
"""

from __future__ import annotations

from itertools import combinations, product
from math import factorial, prod

from lpbdeg import sparse
from lpbdeg.polyring import TruncatedPoly


def pack_terms(packing, terms):
    """The packed polynomial of a dict from exponent tuples to scalars."""
    return {packing.pack(e): c for e, c in terms.items()}


def ref_mul(p, q, cap=None, box=None):
    """The product of two dicts from exponent tuples to scalars, pair by pair.

    A term of degree above ``cap`` or with an exponent above ``box`` is
    dropped when that bound is given.
    """
    out = {}
    for e1, c1 in p.items():
        for e2, c2 in q.items():
            e = tuple(a + b for a, b in zip(e1, e2))
            if (cap is None or sum(e) <= cap) and (box is None or max(e) <= box):
                out[e] = out.get(e, 0) + c1 * c2
    return {e: c for e, c in out.items() if c}


def truncated_mul(p, q, packing):
    """The product of two packed polynomials truncated to the bound and box of ``packing``, by :func:`ref_mul`."""
    terms = ref_mul(packing.unpack_terms(p), packing.unpack_terms(q), packing.bound, packing.box)
    return pack_terms(packing, terms)


def diff(p, packing, var):
    """Partial derivative of a packed polynomial with respect to ``x_var``."""
    step = packing.var(var)
    offset, mask = packing.offset(var), packing.mask
    out = {}
    for k, c in p.items():
        e = (k >> offset) & mask
        if e:
            out[k - step] = c * e
    return out


def plus(p, q, c=1):
    """The class ``p + c * q`` of two classes in one ring, through the checking constructor."""
    assert p.ring == q.ring
    return TruncatedPoly(p.ring, p.ring.unpack_terms(sparse.add(dict(p.terms), q.terms, c)))


def elementary(ring, index):
    """The elementary symmetric class e_index of ``ring``, through the checking constructor."""
    subsets = combinations(range(ring.nvars), index)
    return TruncatedPoly(ring, {tuple(int(i in subset) for i in range(ring.nvars)): 1 for subset in subsets})


def e1_power(ring, g):
    """The class e_1^g of ``ring`` from its multinomial coefficients g! / prod alpha_i!."""
    expos = (e for e in product(range(g + 1), repeat=ring.nvars) if sum(e) == g)
    return TruncatedPoly(ring, {e: factorial(g) // prod(map(factorial, e)) for e in expos})


def unit_series(p):
    """``p`` with its constant term replaced by 1, a series that inverts."""
    return plus(p, TruncatedPoly.constant(p.ring, 1 - p.constant_term()))


def recurrence_by_products(a, packing, divide):
    """The oracle of ``sparse.recurrence``: each grade as a sum of ``mul_symmetric`` products.

    f_0 = 1 and f_k = sum_{i = 1..k} a_i f_{k-i}, divided by k when
    ``divide`` is set, one product per pair of grades added into the
    grade, the loops the Newton step and the series inversion ran before
    the kernel.
    """
    grades = [{} for _ in range(packing.bound + 1)]
    for key, c in a.items():
        if key:
            grades[packing.degree(key)][key] = c
    f = [{0: 1}]
    out = {0: 1}
    for k in range(1, packing.bound + 1):
        acc = {}
        for i in range(1, k + 1):
            sparse.add(acc, sparse.mul_symmetric(f[k - i], grades[i], packing))
        if divide:
            for key, c in acc.items():
                q, r = divmod(c, k)
                if r:
                    raise ArithmeticError(f"Newton step {k} leaves a remainder {r}")
                acc[key] = q
        f.append(acc)
        out.update(acc)
    return out
