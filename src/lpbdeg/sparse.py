"""Sparse polynomials over packed exponents: the multiplication and recurrence kernels.

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
a *box*, a bound on every single exponent, clamped to the degree bound.
:func:`monomial_tree` is the one enumeration of packed monomials: grade by
grade, each monomial up to the bound (in the box, when there is one) with
a parent that drops one factor of its lowest-index variable.  The linear
substitution of :mod:`lpbdeg.forms` walks it, and the power sums of
:mod:`lpbdeg.polyring` walk its orbit representatives (below).

A boxed packing is the ring ``Q[x] / (deg > bound, x_i^(box + 1))``, whose
monomials are the in-box monomials of degree at most the bound: 1 and the
monomials of the tree.  The monomials outside the box span an ideal, so
dropping them after each product is a ring homomorphism.  The two
truncated kernels, :func:`mul_symmetric` and :func:`recurrence`, form a
coefficient only at the in-box monomials of degree at most the bound, one
per orbit of the orbit table :func:`_orbits` reads off the tree, and they
refuse a packing without a box.  The box and the orbit table are the whole
truncation rule.  :func:`mul` truncates nothing: it visits every pair of
terms, so its caller's packing must have room for the degree of the
product.  It serves the forms side, whose packing has fields wide enough
for every product it forms, and the Vandermonde of the Grassmann integral.

The truncated kernels take operands invariant under every permutation of
the variables.  :func:`mul_symmetric` is the product ``*`` of two
:class:`~lpbdeg.polyring.TruncatedPoly` classes.  :func:`recurrence` is the
convolution recurrence of the quotient route, run by the Newton step of
:func:`~lpbdeg.polyring.product_shifted_linear` and by
:func:`~lpbdeg.polyring.inverse_unit_series`; the two share only the orbit
table.  The truncated type holds only symmetric classes:
:func:`~lpbdeg.polyring.is_symmetric` checks the exponent tuples where
terms enter it, in the polyring constructor, and the signed Chern roots
once, in :func:`~lpbdeg.polyring.power_sums`; symmetric roots have
symmetric power sums.

:func:`mul_symmetric` computes one coefficient per orbit of the in-box
monomials of degree at most the bound, at the representative nu whose
exponents do not decrease from variable 0, as
``sum over alpha in p of p[alpha] * q[nu - alpha]``, and writes it to
every key of the orbit.  The result is exactly the truncated product, the
product ``p * q`` with every monomial of degree above the bound or with an
exponent above the box dropped:

* a product of symmetric polynomials is symmetric, so the untruncated
  product has one coefficient on each orbit;
* the in-box monomials of degree at most the bound are invariant under
  permuting the variables, so truncating to them commutes with the
  permutations, and their orbits are whole orbits of monomials;
* a lookup ``nu - alpha`` that borrows between fields gives an invalid
  key, and every key of q is valid.  For if ``beta = nu - alpha`` is a key
  of q, then ``nu = alpha + beta`` adds two valid keys, and a field that
  overflowed would leave a carry and an invalid sum; ``nu`` is valid, so
  no field carries and beta's exponents are nu's less alpha's, entry by
  entry.  The sum thus reads exactly the pairs of terms whose product
  monomial is nu.

:func:`recurrence` forms the series f with f_0 = 1 and
``f_k = sum over i = 1 .. k of a_i f_{k-i}``, divided by k when asked, grade
by grade and one coefficient per orbit of the in-box monomials of degree k.
For each pair (i, k - i) it iterates over the smaller of the grades a_i and
f_{k-i}.  The chosen grades of a are concatenated, and each ``nu - alpha``
is looked up in one dict that holds every grade of f formed so far; the
chosen grades of f likewise look up ``nu - beta`` in the one dict of a.  So
the coefficient at nu is two sums, and it is exactly that of the truncated
``sum_i a_i f_{k-i}``:

* a borrowed lookup gives an invalid key, which no dict holds: by the
  argument above, a hit beta of ``nu - alpha`` is a valid key with
  ``nu = alpha + beta`` and no carry, so beta's exponents are nu's less
  alpha's, entry by entry;
* a degree field fixes which grade a key of the merged dict belongs to:
  the hit beta has degree k - i when alpha has degree i, so a lookup from
  a_i reads f_{k-i} and no other grade of f, and one from f_{k-i} reads
  a_i alone.  The grade-k terms of f that are written while grade k is
  formed are never read at grade k, since every alpha has degree at least
  1, and a constant term of a is never read;
* every pair (alpha, beta) with ``alpha + beta = nu`` is read once, from
  the side its pair of grades chose.

Sums of products of symmetric polynomials are symmetric, so by induction
on k every f_k is, and one coefficient per orbit, divided by k if asked,
is the whole grade.

The orbits are tabulated once per packing by :func:`_orbits`, from the
one tree: its representatives, the smallest key of each orbit, are the
monomials whose exponents do not decrease from variable 0.  A monomial's
tree parent drops one factor of its lowest-index variable, which keeps
the exponents nondecreasing, so the representatives are a sub-tree closed
under parents, and :func:`~lpbdeg.polyring.power_sums` forms one moment
per orbit by walking it.  Any choice of representative serves the proof
above.

``add`` and ``scale`` never look inside a key, so they also serve dicts
keyed by exponent tuples; ``add`` accumulates into its first argument in
place, so a sum over many terms costs their size and not a copy of the
running total per term.
"""

from __future__ import annotations

import operator
from functools import lru_cache
from itertools import repeat
from typing import Iterable

from .exact import Scalar

Poly = dict[int, Scalar]


class Packing:
    """Bit layout of packed exponents in ``nvars`` variables.

    Fields are wide enough for any exponent up to ``bound``.  A ``box``
    bounds every exponent as well; it is clamped to ``bound``, and the
    packing is then the ring ``Q[x] / (deg > bound, x_i^(box + 1))`` of the
    truncated kernels, so a box equal to the bound truncates by degree
    alone.  Without a box, ``box`` is ``None`` and nothing is truncated.
    The box does not change the layout.
    """

    __slots__ = ("nvars", "bound", "box", "width", "shift", "mask")

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

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Packing):
            return NotImplemented
        return (self.nvars, self.bound, self.box) == (other.nvars, other.bound, other.box)

    def __hash__(self) -> int:
        return hash((self.nvars, self.bound, self.box))

    def __repr__(self) -> str:
        return f"Packing({self.nvars}, {self.bound}, {self.box})"

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
        """The key of an exponent tuple; each entry must be an ``int`` (not a ``bool``) that fits its field."""
        expo = tuple(expo)
        if len(expo) != self.nvars:
            raise ValueError(f"exponent has {len(expo)} entries, expected {self.nvars}")
        key = 0
        for e in expo:
            if type(e) is not int:
                raise ValueError(f"exponent {e!r} is not an int")
            if not 0 <= e <= self.mask:
                raise ValueError(f"exponent {e} does not fit a {self.width}-bit field")
            key = (key << self.width) | e
        return (sum(expo) << self.shift) | key

    def unpack(self, key: int) -> tuple[int, ...]:
        width, mask = self.width, self.mask
        return tuple((key >> (width * i)) & mask for i in range(self.nvars - 1, -1, -1))

    def unpack_terms(self, p: Poly) -> dict[tuple[int, ...], Scalar]:
        return {self.unpack(k): c for k, c in p.items()}


@lru_cache(maxsize=None)
def monomial_tree(packing: Packing) -> tuple[tuple[tuple, tuple, tuple], ...]:
    """Grade-by-grade tree of the monomials of degree 1 .. ``packing.bound``.

    Entry ``j - 1`` describes grade j as three parallel tuples: ``steps``
    of ``(parent, var)``, meaning the monomial is ``x_var`` times the
    parent's monomial at that index in grade j - 1 (grade 0 is the single
    monomial 1); the packed ``keys``; and the multinomials
    j! / prod alpha_i!.  Each monomial's parent drops one factor of its
    lowest-index variable, so every monomial appears once.  With a box only
    the monomials in it are listed, and the parent of one of them is in the
    box too; without one every monomial up to the bound is.  The tree is
    built once per packing.
    """
    box = packing.bound if packing.box is None else packing.box
    # grade 0 is the empty monomial; a monomial may grow by any variable up
    # to its lowest-index one, the sole variable its parent pointer drops
    prev: list[tuple[int, int, int]] = [(0, 1, packing.nvars - 1)]
    tree = []
    for j in range(1, packing.bound + 1):
        steps, level = [], []
        for parent, (key, multinomial, lowest) in enumerate(prev):
            for var in range(lowest + 1):
                child = key + packing.var(var)
                e = packing.exponent(child, var)
                if e > box:
                    continue
                steps.append((parent, var))
                level.append((child, multinomial * j // e, var))
        tree.append((tuple(steps), tuple(k for k, _, _ in level), tuple(m for _, m, _ in level)))
        prev = level
    return tuple(tree)


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


def mul(p: Poly, q: Poly) -> Poly:
    """The untruncated product ``p * q``.

    Nothing is dropped, so the caller's packing must have room for the
    degree of the product.
    """
    if len(q) < len(p):
        p, q = q, p
    out: Poly = {}
    get = out.get
    for k1, c1 in p.items():
        for k2, c2 in q.items():
            k = k1 + k2
            out[k] = get(k, 0) + c1 * c2
    return {k: c for k, c in out.items() if c}


@lru_cache(maxsize=None)
def _orbits(packing: Packing) -> tuple[tuple[tuple, tuple, tuple], ...]:
    """The orbits of the monomials of :func:`monomial_tree` under permuting the variables.

    Entry D describes grade D, the single monomial 1 for D = 0, as three
    parallel tuples: ``steps`` of ``(parent, var)``, meaning the
    representative is ``x_var`` times representative ``parent`` of grade
    D - 1; the orbits, each sorted, so ``orbit[0]`` is the representative,
    the smallest key, whose exponents do not decrease from variable 0; and
    the multinomials.  A representative's tree parent drops one factor of
    its lowest-index variable and so does not decrease either: the
    representatives are a sub-tree of the one tree, closed under parents.
    One ``unpack`` per key groups each grade by sorted exponent tuple.
    """
    unpack = packing.unpack
    table = []
    index: dict[int, int] = {}  # tree index -> table index of each representative of the last grade
    for steps, keys, multinomials in (((), (0,), (1,)), *monomial_tree(packing)):
        groups: dict[tuple[int, ...], list[int]] = {}
        for key in keys:
            groups.setdefault(tuple(sorted(unpack(key))), []).append(key)
        orbits = {min(orbit): tuple(sorted(orbit)) for orbit in groups.values()}
        reps = [i for i, key in enumerate(keys) if key in orbits]
        rep_steps = tuple((index[parent], var) for (parent, var), key in zip(steps, keys) if key in orbits)
        table.append((rep_steps, tuple(orbits[keys[i]] for i in reps), tuple(multinomials[i] for i in reps)))
        index = {i: r for r, i in enumerate(reps)}
    return tuple(table)


def mul_symmetric(p: Poly, q: Poly, packing: Packing) -> Poly:
    """The product ``p * q`` truncated to the packing's bound and box, orbit by orbit.

    Both operands must be symmetric in the variables and the packing must
    have a box; the result is the product with every monomial outside the
    box or above the bound dropped (see the module docstring).  Each
    coefficient at a representative is one C-level pass over the terms of
    the smaller operand.
    """
    if packing.box is None:
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
        for orbit in table[degree][1]:
            nu = orbit[0]
            r = 0
            for keys, coeffs in parts:
                r += sum(map(times, coeffs, map(get, map(sub, repeat(nu), keys), repeat(0))))
            if r:
                for key in orbit:
                    out[key] = r
    return out


def recurrence(a: Poly, packing: Packing, divide: bool) -> Poly:
    """The series f with f_0 = 1 and f_k = sum_{i = 1..k} a_i f_{k-i}, truncated to the packing's bound and box.

    ``a`` holds its grades a_1, a_2, ... in one dict (a constant term is
    never read); it must be symmetric in the variables, with its keys in
    the box and of degree at most the bound, and the packing must have a
    box.  With ``divide`` each f_k is
    that sum divided by k, which must be exact: a remainder raises
    ``ArithmeticError``.  Each coefficient at a representative of grade k
    is at most two C-level passes, one over the chosen grades of a and one
    over those of f (see the module docstring).
    """
    if packing.box is None:
        raise ValueError("the recurrence needs a packing with a box")
    shift, bound = packing.shift, packing.bound
    # the terms of a by degree, as parallel lists of keys and coefficients
    a_grades: list[tuple[list[int], list[Scalar]]] = [([], []) for _ in range(bound + 1)]
    for key, c in a.items():
        if key:
            keys, coeffs = a_grades[key >> shift]
            keys.append(key)
            coeffs.append(c)
    table = _orbits(packing)
    f_grades: list[tuple[list[int], list[Scalar]]] = [([0], [1])]
    out: Poly = {0: 1}
    get_a, get_f, sub, times = a.get, out.get, operator.sub, operator.mul
    for k in range(1, bound + 1):
        # each pair (i, k - i) iterates over its smaller grade
        a_keys, a_coeffs, f_keys, f_coeffs = [], [], [], []
        for i in range(1, k + 1):
            (ak, ac), (fk, fc) = a_grades[i], f_grades[k - i]
            if not ak or not fk:
                continue
            if len(ak) <= len(fk):
                a_keys += ak
                a_coeffs += ac
            else:
                f_keys += fk
                f_coeffs += fc
        keys, coeffs = [], []
        for orbit in table[k][1]:
            nu = orbit[0]
            r = sum(map(times, a_coeffs, map(get_f, map(sub, repeat(nu), a_keys), repeat(0))))
            r += sum(map(times, f_coeffs, map(get_a, map(sub, repeat(nu), f_keys), repeat(0))))
            if divide:
                r, rem = divmod(r, k)
                if rem:
                    raise ArithmeticError(f"Newton step {k} leaves a remainder {rem}")
            if r:
                for key in orbit:
                    out[key] = r
                keys += orbit
                coeffs += repeat(r, len(orbit))
        f_grades.append((keys, coeffs))
    return out
