"""Operations on packed polynomials and truncated classes that only the tests use.

The package keeps the arithmetic its commands run.  The tests build their
operands and oracles with these: packed polynomials from exponent-tuple
dicts, the partial derivative the forms tests take curls with, the sum
of two truncated classes, and the convolution recurrence as one product
per pair of grades.
"""

from __future__ import annotations

from lpbdeg import sparse
from lpbdeg.polyring import TruncatedPoly


def pack_terms(packing, terms):
    """The packed polynomial of a dict from exponent tuples to scalars."""
    return {packing.pack(e): c for e, c in terms.items()}


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
