"""Operations on packed polynomials and truncated classes that only the tests use.

The package keeps the arithmetic its commands run.  The tests build their
operands and oracles with these: packed polynomials from exponent-tuple
dicts, the partial derivative the forms tests take curls with, and the sum
of two truncated classes.
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
