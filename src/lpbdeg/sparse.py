"""Sparse polynomials over packed exponents: the multiplication kernels.

A polynomial is a dict from packed exponents to nonzero exact scalars.  A
packed exponent is a single nonnegative ``int``: every variable owns a
fixed bit field, variable 0 in the highest one, and above all of them sits
an unbounded field holding the total degree.  Multiplying two monomials is
then one integer addition, the packed-monomial representation of Monagan
and Pearce ("Parallel sparse polynomial multiplication using heaps", ISSAC
2009).

Every key in a polynomial is *valid*: its degree field equals the sum of
its variable fields.  Two consequences carry the whole module:

* Integer order of valid keys is graded lexicographic order (lower total
  degree first, ties broken by the exponent tuple), so sorting keys sorts
  terms for display.
* When the field width exceeds the largest exponent a product can reach,
  ``k1 + k2`` is the valid key of the product monomial.

The caller states a degree bound when it builds a :class:`Packing`; fields
are wide enough for any exponent up to that bound.  A packing may also carry
a *box*, a bound on every single exponent, clamped to the degree bound.  Its
``keep`` set holds the keys of ``Q[x] / (deg > bound, x_i^(box + 1))``: the
valid keys of degree at most the bound with every exponent in the box.  The
monomials outside the box span an ideal, so dropping them after each
product is a ring homomorphism, and :func:`mul` keeps a product key exactly
when it is in ``keep``.  That one membership test is the whole truncation
rule, and it is exact although a product need not fit the fields: a
variable field that overflows forces the total degree above the bound, and
the carry it leaves makes the key invalid, so it is never in ``keep``.  A
packing without a box truncates nothing; the forms side builds one with
fields wide enough for every product it forms.

:func:`mul` visits every pair of terms; it serves the forms side and the
Vandermonde of the Grassmann integral, and it is the reference the tests
hold :func:`mul_symmetric` to.  :func:`mul_symmetric` is the product for
operands invariant under every permutation of the variables, in a packing
with a box, and the product of every
:class:`~lpbdeg.polyring.TruncatedPoly`.  That type holds only symmetric
classes, and :func:`is_symmetric` is checked where terms enter it: the
polyring constructor, and the power sums of the signed roots in
:func:`~lpbdeg.polyring.product_shifted_linear` (which serves honest and
virtual bundles alike) and :func:`~lpbdeg.bundles.chern_character_graded`.

:func:`mul_symmetric` computes one coefficient per orbit of ``keep``, at
the representative nu whose exponents do not increase from variable 0, as
``sum over alpha in p of p[alpha] * q[nu - alpha]``, and writes it to
every key of the orbit.  The result is exactly ``mul(p, q,
packing.keep)``:

* a product of symmetric polynomials is symmetric, so the untruncated
  product has one coefficient on each orbit;
* ``keep`` is invariant under permuting the variables, so truncating to it
  commutes with the permutations, and the orbits of ``keep`` are whole
  orbits of monomials;
* a lookup ``nu - alpha`` that borrows between fields gives an invalid
  key, and every key of q is valid.  For if ``beta = nu - alpha`` is a key
  of q, then ``nu = alpha + beta`` adds two valid keys, and a field that
  overflowed would leave a carry and an invalid sum; ``nu`` is valid, so
  no field carries and beta's exponents are nu's less alpha's, entry by
  entry.  The sum thus reads exactly the pairs of terms whose product
  monomial is nu.

The orbits are tabulated once per packing, in one pass over ``keep``.

``add`` and ``scale`` never look inside a key, so they also serve dicts
keyed by exponent tuples; ``add`` accumulates into its first argument in
place, so a sum over many terms costs their size and not a copy of the
running total per term.
"""

from __future__ import annotations

import operator
from functools import lru_cache
from itertools import repeat
from typing import Iterable, Mapping

from .exact import Scalar

Poly = dict[int, Scalar]


class Packing:
    """Bit layout of packed exponents in ``nvars`` variables.

    Fields are wide enough for any exponent up to ``bound``.  A ``box``
    bounds every exponent as well; it is clamped to ``bound``, and ``keep``
    is then the frozen set of keys of the ring
    ``Q[x] / (deg > bound, x_i^(box + 1))``, so a box equal to the bound
    truncates by degree alone.  Without a box, ``box`` and ``keep`` are
    ``None`` and nothing is truncated.  The box does not change the layout.
    """

    __slots__ = ("nvars", "bound", "box", "keep", "width", "shift", "mask")

    def __init__(self, nvars: int, bound: int, box: int | None = None) -> None:
        if nvars < 1:
            raise ValueError("need at least one variable")
        if bound < 0:
            raise ValueError("degree bound must be nonnegative")
        if box is not None and box < 0:
            raise ValueError("exponent box must be nonnegative")
        self.nvars = nvars
        self.bound = bound
        self.width = max(1, bound.bit_length())
        self.shift = nvars * self.width
        self.mask = (1 << self.width) - 1
        self.box = None if box is None else min(box, bound)
        self.keep = None if self.box is None else _box_keys(nvars, bound, self.box)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Packing):
            return NotImplemented
        return (self.nvars, self.bound, self.box) == (other.nvars, other.bound, other.box)

    def __hash__(self) -> int:
        return hash((self.nvars, self.bound, self.box))

    def offset(self, var: int) -> int:
        """Bit offset of the field of variable ``var``."""
        return (self.nvars - 1 - var) * self.width

    def var(self, var: int) -> int:
        """The key of the single variable ``x_var``."""
        if not 0 <= var < self.nvars:
            raise ValueError("variable index out of range")
        return (1 << self.shift) | (1 << self.offset(var))

    def degree(self, key: int) -> int:
        return key >> self.shift

    def exponent(self, key: int, var: int) -> int:
        return (key >> self.offset(var)) & self.mask

    def pack(self, expo: Iterable[int]) -> int:
        """The key of an exponent tuple; each entry must fit its field."""
        expo = tuple(expo)
        if len(expo) != self.nvars:
            raise ValueError(f"exponent has {len(expo)} entries, expected {self.nvars}")
        key = 0
        for e in expo:
            if not 0 <= e <= self.mask:
                raise ValueError(f"exponent {e} does not fit a {self.width}-bit field")
            key = (key << self.width) | e
        return (sum(expo) << self.shift) | key

    def unpack(self, key: int) -> tuple[int, ...]:
        width, mask = self.width, self.mask
        return tuple((key >> (width * i)) & mask for i in range(self.nvars - 1, -1, -1))

    def pack_terms(self, terms: Mapping[tuple[int, ...], Scalar]) -> Poly:
        return {self.pack(e): c for e, c in terms.items()}

    def unpack_terms(self, p: Poly) -> dict[tuple[int, ...], Scalar]:
        return {self.unpack(k): c for k, c in p.items()}


@lru_cache(maxsize=None)
def _box_keys(nvars: int, bound: int, box: int) -> frozenset[int]:
    """Keys of degree at most ``bound`` with every exponent at most ``box``."""
    ring = Packing(nvars, bound)
    keys = [0]
    for var in range(nvars):
        step = ring.var(var)
        keys = [k + e * step for k in keys for e in range(min(box, bound - ring.degree(k)) + 1)]
    return frozenset(keys)


def add(acc: dict, q: dict, c: Scalar = 1) -> dict:
    """Add ``c * q`` into ``acc`` in place and return ``acc``.

    ``q`` is left unchanged, and terms that cancel leave ``acc``.  A caller
    that must keep its first operand passes a copy.
    """
    get = acc.get
    for k, v in q.items():
        # c * v would allocate a copy of every big coefficient for c = 1
        s = get(k, 0) + (v if c == 1 else c * v)
        if s:
            acc[k] = s
        else:
            acc.pop(k, None)
    return acc


def scale(p: dict, c: Scalar) -> dict:
    if c == 0:
        return {}
    return {k: v * c for k, v in p.items()}


def mul(p: Poly, q: Poly, keep: frozenset[int] | None = None) -> Poly:
    """The product ``p * q``, keeping only keys in ``keep`` when given.

    With ``keep = packing.keep`` the result is the product truncated to the
    packing's degree bound and box.  Without it nothing is dropped, so the
    caller's packing must have room for the degree of the product.
    """
    if len(q) < len(p):
        p, q = q, p
    out: Poly = {}
    get = out.get
    if keep is None:
        for k1, c1 in p.items():
            for k2, c2 in q.items():
                k = k1 + k2
                out[k] = get(k, 0) + c1 * c2
    else:
        for k1, c1 in p.items():
            for k2, c2 in q.items():
                k = k1 + k2
                if k in keep:
                    out[k] = get(k, 0) + c1 * c2
    return {k: c for k, c in out.items() if c}


@lru_cache(maxsize=None)
def _orbits(packing: Packing) -> tuple[tuple[tuple[int, ...], tuple[tuple[int, ...], ...]], ...]:
    """The orbits of ``packing.keep`` under permuting the variables.

    Entry D pairs the representatives of degree D, the keys whose exponents
    do not increase from variable 0, with the keys of their orbits.  One
    pass over ``keep`` groups each key under its sorted exponent tuple.
    """
    unpack = packing.unpack
    groups: dict[tuple[int, ...], list[int]] = {}
    for key in sorted(packing.keep):
        groups.setdefault(tuple(sorted(unpack(key), reverse=True)), []).append(key)
    grades: list[tuple[list[int], list[tuple[int, ...]]]] = [([], []) for _ in range(packing.bound + 1)]
    for expo, orbit in groups.items():
        reps, orbits = grades[sum(expo)]
        reps.append(packing.pack(expo))
        orbits.append(tuple(orbit))
    return tuple((tuple(reps), tuple(orbits)) for reps, orbits in grades)


def mul_symmetric(p: Poly, q: Poly, packing: Packing) -> Poly:
    """The product ``p * q`` truncated to ``packing.keep``, orbit by orbit.

    Both operands must be symmetric in the variables and the packing must
    have a box; the result equals ``mul(p, q, packing.keep)`` (see the
    module docstring).  Each coefficient at a representative is one C-level
    pass over the terms of the smaller operand.
    """
    if packing.keep is None:
        raise ValueError("the symmetric product needs a packing with a box")
    if len(q) < len(p):
        p, q = q, p
    shift = packing.shift
    # the terms of p by degree, as parallel lists of keys and coefficients
    grades: dict[int, tuple[list[int], list[Scalar]]] = {}
    for k, c in p.items():
        keys, coeffs = grades.setdefault(k >> shift, ([], []))
        keys.append(k)
        coeffs.append(c)
    # the p grades feeding each output degree of the truncated product
    q_degrees = {k >> shift for k in q}
    targets: dict[int, list[tuple[list[int], list[Scalar]]]] = {}
    for a, part in grades.items():
        for b in q_degrees:
            if a + b <= packing.bound:
                targets.setdefault(a + b, []).append(part)
    table = _orbits(packing)
    get, sub, times = q.get, operator.sub, operator.mul
    out: Poly = {}
    for degree, parts in targets.items():
        reps, orbits = table[degree]
        for nu, orbit in zip(reps, orbits):
            r = 0
            for keys, coeffs in parts:
                r += sum(map(times, coeffs, map(get, map(sub, repeat(nu), keys), repeat(0))))
            if r:
                for key in orbit:
                    out[key] = r
    return out


def is_symmetric(p: Poly, packing: Packing) -> bool:
    """True when ``p`` is invariant under every permutation of the variables.

    Checking adjacent transpositions suffices since they generate the
    symmetric group.
    """
    get, mask = p.get, packing.mask
    for i in range(packing.nvars - 1):
        low = packing.offset(i + 1)
        high = low + packing.width
        # adding (b - a) * step to a key moves b into field i, a into i + 1
        step = (1 << high) - (1 << low)
        for k, c in p.items():
            a, b = (k >> high) & mask, (k >> low) & mask
            if a != b and get(k + (b - a) * step, 0) != c:
                return False
    return True


def diff(p: Poly, packing: Packing, var: int) -> Poly:
    """Partial derivative with respect to ``x_var``."""
    step = packing.var(var)
    offset, mask = packing.offset(var), packing.mask
    out: Poly = {}
    for k, c in p.items():
        e = (k >> offset) & mask
        if e:
            out[k - step] = c * e
    return out
