"""Truncated multivariate polynomials for characteristic class arithmetic.

A :class:`TruncatedPoly` lives in the quotient
``Q[x_1..x_nvars] / (deg > cap, x_i^(box + 1))`` of its ring: everything of
total degree above ``cap`` is dropped, which is exactly the right semantics
for working on a variety whose cohomology vanishes above its dimension, and
so is every monomial with an exponent above ``box``.  Terms are stored
sparsely in the packed-exponent format of :mod:`lpbdeg.sparse`, in the
ring's packing, with bound ``cap`` and exponent box ``box``, and every
product is formed only at the in-box monomials of degree at most the cap.

Every class the degree engine forms is symmetric in the Chern roots, and a
:class:`TruncatedPoly` holds only such classes: its constructor raises
``ValueError`` on terms that some permutation of the variables moves.  Sums,
scalar multiples, graded parts and products of symmetric polynomials are
symmetric, so every truncated product is formed one coefficient per orbit
of the variables.  ``*`` of two classes is the one caller of
:func:`~lpbdeg.sparse.mul_symmetric`.  The two recurrences of the quotient
route, the Newton step of :func:`product_shifted_linear` and
:func:`inverse_unit_series`, run on :func:`~lpbdeg.sparse.recurrence`,
which forms each grade from every pair of lower grades at once.  The
invariant is checked where terms enter from outside, by the one check
:func:`is_symmetric` on maps keyed by exponent tuples: the constructor
checks its terms before packing them, and :func:`power_sums` checks the
signed roots, a map that some adjacent transposition of the coordinates
moves raising ``ValueError``.  Symmetric roots have symmetric power sums,
so neither :func:`product_shifted_linear` nor
:func:`~lpbdeg.bundles.chern_character_graded` checks again.

The ring is a :class:`~lpbdeg.sparse.Packing` with a box, and every
constructor takes it whole.  The degree engine has one such ring per
Grassmannian, :attr:`~lpbdeg.grassmann.GrassContext.ring`, whose box is the
largest exponent the integral reads.  The monomials outside a box span an
ideal, so dropping them commutes with sums, products, the series inversion
and the Newton step (whose exact division by k holds coefficient by
coefficient): a boxed result is the result for the box at the cap with the
out-of-box terms removed, exactly.

Exponent tuples remain the public format: the constructor takes them, and
:meth:`TruncatedPoly.sorted_terms` gives them back.  The order used for
display and serialization is graded lexicographic: lower total degree
first, ties broken by the exponent tuple, which is the integer order of
packed keys.  Arithmetic itself is order-free.

:func:`power_sums` is the one pass from Chern roots, a map from plain
integer coefficient tuples to signed multiplicities, to their power sums:
it walks the orbit representatives of :func:`~lpbdeg.sparse._orbits`, the
sub-tree of :func:`~lpbdeg.sparse.monomial_tree` whose exponents do not
decrease, grade by grade, and gathers integer moment sums a column at a
time over fixed blocks of distinct forms, so its cost is one C-level
``map`` and one ``sum`` per orbit in the box and per block.  Both degree
routes start from it, and so does the Pluecker class e_1^g of
:meth:`~lpbdeg.grassmann.GrassContext.plucker_degree`, the g-th power sum
of the single root x_1 + ... + x_k.
:func:`product_shifted_linear` turns the power sums into a total Chern
class by Newton's identities, for honest and virtual bundles alike, and
:func:`~lpbdeg.bundles.chern_character_graded` divides them into the
graded Chern character.
"""

from __future__ import annotations

from itertools import islice
from operator import add, eq, itemgetter, mul
from typing import Iterator, Mapping

from . import sparse
from .exact import Scalar, normalize
from .sparse import Packing

Exponent = tuple[int, ...]

# distinct forms per block of power_sums: each block holds one
# column of a^alpha per monomial of two grades, so the block size bounds
# the working set whatever the number of forms
_BLOCK = 64


def exponents_of_degree(nvars: int, degree: int) -> Iterator[Exponent]:
    """All exponent tuples with ``nvars`` entries summing to ``degree``.

    The order is deterministic (first entry descending, then recursively),
    which downstream code relies on for reproducible matrix layouts.
    """
    if nvars < 1:
        raise ValueError("need at least one variable")
    if nvars == 1:
        yield (degree,)
        return
    for first in range(degree, -1, -1):
        for rest in exponents_of_degree(nvars - 1, degree - first):
            yield (first,) + rest


class TruncatedPoly:
    """Sparse polynomial in the truncated ring ``ring``.

    ``ring`` is a :class:`~lpbdeg.sparse.Packing` with a box, whose bound is
    the cap; a packing without a box raises ``ValueError``.  ``terms`` maps
    exponent tuples to scalars, stored as nonzero scalars on packed keys of
    ``ring``; terms beyond the cap or outside the box are dropped on
    construction.  The terms must be symmetric in the variables, with
    ``int`` exponents and ``int`` or ``Fraction`` coefficients; any other
    terms (a ``bool`` included), or another scalar given to :meth:`constant`
    or :meth:`scale`, raise ``ValueError``.  ``*`` multiplies two classes of
    one ring; :meth:`scale` takes a scalar.
    """

    __slots__ = ("ring", "terms")

    def __init__(self, ring: Packing, terms: Mapping[Exponent, Scalar] | None = None) -> None:
        if ring.box is None:
            raise ValueError("a truncated ring needs a packing with a box")
        nvars = ring.nvars
        clean: dict[Exponent, Scalar] = {}
        for expo, c in (terms or {}).items():
            e = tuple(expo)
            if len(e) != nvars:
                raise ValueError(f"exponent {e} does not have {nvars} entries")
            if not all(type(k) is int for k in e):
                raise ValueError(f"non-integer exponent in {e}")
            if any(k < 0 for k in e):
                raise ValueError(f"negative exponent in {e}")
            c = normalize(c)
            if c == 0 or sum(e) > ring.bound or max(e) > ring.box:
                continue
            clean[e] = clean.get(e, 0) + c
        clean = {e: c for e, c in clean.items() if c != 0}
        if not is_symmetric(clean, nvars):
            raise ValueError("terms are not symmetric in the variables")
        object.__setattr__(self, "ring", ring)
        object.__setattr__(self, "terms", {ring.pack(e): c for e, c in clean.items()})

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("TruncatedPoly is immutable")

    @classmethod
    def _raw(cls, ring: Packing, terms: sparse.Poly) -> TruncatedPoly:
        """Trusted constructor: ``terms`` is already clean, symmetric and owned."""
        obj = object.__new__(cls)
        object.__setattr__(obj, "ring", ring)
        object.__setattr__(obj, "terms", terms)
        return obj

    @property
    def nvars(self) -> int:
        return self.ring.nvars

    @property
    def cap(self) -> int:
        return self.ring.bound

    @property
    def box(self) -> int:
        return self.ring.box

    @classmethod
    def one(cls, ring: Packing) -> TruncatedPoly:
        return cls.constant(ring, 1)

    @classmethod
    def constant(cls, ring: Packing, c: Scalar) -> TruncatedPoly:
        """The constant ``c`` in ``ring``."""
        return cls(ring, {(0,) * ring.nvars: c})

    def constant_term(self) -> Scalar:
        return self.terms.get(0, 0)

    def graded_part(self, degree: int) -> TruncatedPoly:
        """The homogeneous piece of the given total degree."""
        if not 0 <= degree <= self.cap:
            raise ValueError("degree outside [0, cap]")
        part = {k: c for k, c in self.terms.items() if self.ring.degree(k) == degree}
        return TruncatedPoly._raw(self.ring, part)

    def is_homogeneous(self, degree: int) -> bool:
        return all(self.ring.degree(k) == degree for k in self.terms)

    def sorted_terms(self) -> list[tuple[Exponent, Scalar]]:
        """Terms in graded lexicographic order, the serialization order."""
        unpack = self.ring.unpack
        return [(unpack(k), c) for k, c in sorted(self.terms.items())]

    def scale(self, c: Scalar) -> TruncatedPoly:
        """The multiple ``c * self``; integral coefficients come out as ints."""
        c = normalize(c)
        if c == 0:
            return TruncatedPoly._raw(self.ring, {})
        return TruncatedPoly._raw(self.ring, {k: normalize(v * c) for k, v in self.terms.items()})

    def __mul__(self, other: TruncatedPoly) -> TruncatedPoly:
        if not isinstance(other, TruncatedPoly):
            return NotImplemented
        if self.ring != other.ring:
            raise ValueError("operands live in different truncated rings")
        return TruncatedPoly._raw(self.ring, sparse.mul_symmetric(self.terms, other.terms, self.ring))

    def __repr__(self) -> str:
        body = " + ".join(f"{c}*x^{list(e)}" for e, c in self.sorted_terms()) or "0"
        return f"TruncatedPoly({self.ring!r}, {body})"


def is_symmetric(terms: Mapping[Exponent, Scalar], nvars: int) -> bool:
    """True when ``terms``, a dict keyed by exponent tuples of ``nvars`` entries, is symmetric.

    Symmetric means invariant under every permutation of the entries; the
    adjacent transpositions generate the symmetric group, so one comparison
    per transposition decides it: each key's image holds the key's value.
    The image is looked up, one C-level pass over the keys, so no swapped
    copy of the map is built.  A zero value counts as a term, so a caller
    for whom a zero means a missing key drops its zeros first.
    """
    get = terms.get
    for i in range(nvars - 1):
        swap = itemgetter(*range(i), i + 1, i, *range(i + 2, nvars))
        if not all(map(eq, map(get, map(swap, terms)), terms.values())):
            return False
    return True


def power_sums(roots: Mapping[Exponent, int], ring: Packing, top: int) -> list[sparse.Poly]:
    """Packed integer power sums ``p_j = sum m * a^j``, j = 0 .. ``top``.

    ``roots`` maps each distinct linear form a, an integer coefficient
    tuple with ``ring.nvars`` entries, to its signed multiplicity m; ``p_0``
    is the virtual rank.  The map must be symmetric: invariant under each
    adjacent transposition of the coordinates, which generate the
    symmetric group.  Forms of another length, a coefficient or a
    multiplicity that is not an ``int`` (a ``bool`` included) and an
    asymmetric map raise ``ValueError`` before any work.  This is the one
    symmetry check on roots, and it makes every power sum symmetric.

    ``p_j = sum_{|alpha| = j} (j; alpha) M_alpha x^alpha`` over the moment
    sums ``M_alpha = sum m * a^alpha`` of the monomials in the ring's box.
    On symmetric roots ``M_alpha`` is constant on each orbit of monomials
    (Macdonald, *Symmetric Functions and Hall Polynomials*, I §2), so one
    moment is formed per orbit, at its representative in
    :func:`~lpbdeg.sparse._orbits`, and ``(j; alpha) M_alpha`` is written
    over the orbit.  Within each block of forms a representative's column
    of ``m * a^alpha`` is its parent's column times one coefficient column,
    one C-level ``map``, and its moment is the column's ``sum``.
    """
    if not 0 <= top <= ring.bound:
        raise ValueError("power sum degree outside [0, bound]")
    if any(len(f) != ring.nvars for f in roots):
        raise ValueError(f"a form does not have {ring.nvars} coefficients")
    if not all(type(c) is int for f in roots for c in f):
        raise ValueError("linear form coefficients must be integers")
    if not all(type(m) is int for m in roots.values()):
        raise ValueError("root multiplicities must be integers")
    # a missing form has multiplicity 0, so only the nonzero part must be invariant
    nonzero = roots if 0 not in roots.values() else {f: m for f, m in roots.items() if m}
    if not is_symmetric(nonzero, ring.nvars):
        raise ValueError("the roots are not symmetric in the variables")
    table = sparse._orbits(ring)[: top + 1]
    moments = [[sum(roots.values())], *([0] * len(orbits) for _, orbits, _ in table[1:])]
    items = iter(roots.items())
    while block := list(islice(items, _BLOCK)):
        columns = list(zip(*[form for form, _ in block]))
        # level[i] holds m * a^alpha over the block for representative i of a grade
        level = [[mult for _, mult in block]]
        for j, (steps, _, _) in enumerate(table[1:], 1):
            level = [list(map(mul, level[parent], columns[var])) for parent, var in steps]
            moments[j] = list(map(add, moments[j], map(sum, level)))
    return [
        {k: c for orbit, c in zip(orbits, map(mul, multinomials, column)) if c for k in orbit}
        for (_, orbits, multinomials), column in zip(table, moments)
    ]


def product_shifted_linear(roots: Mapping[Exponent, int], ring: Packing) -> TruncatedPoly:
    """The truncated product of ``(1 + form)^m`` over the signed roots.

    ``roots`` maps each distinct linear form, an integer coefficient tuple
    with ``ring.nvars`` entries, to its multiplicity m of either sign, so
    this is the total Chern class ``c(E - F) = c(E) / c(F)`` of a virtual
    bundle; an empty map yields 1.  Forms of another length, and
    coefficients or multiplicities that are not ``int``, raise
    ``ValueError`` in :func:`power_sums`.
    The result lives in ``ring``, a packing with a box, and only monomials
    in the box are ever formed.

    The product is never multiplied out.  :func:`power_sums` takes the
    additive power sums p_i of the signed roots from one moment pass, and
    Newton's identities ``k e_k = sum_{i=1..k} (-1)^(i-1) e_{k-i} p_i`` give
    the graded pieces e_k of the product (Fulton, *Intersection Theory*,
    Ch. 3), a step whose cost depends on the ring alone: one
    :func:`~lpbdeg.sparse.recurrence` with division.  The division by k is
    exact on integers; a remainder raises ``ArithmeticError``.  A map not
    symmetric in the variables raises ``ValueError`` in :func:`power_sums`.
    """
    if ring.box is None:
        raise ValueError("a truncated ring needs a packing with a box")
    # symmetric roots make every p_i and e_k symmetric, so the recurrence runs orbit by orbit
    sums = power_sums(roots, ring, ring.bound)
    # the grades (-1)^(i-1) p_i, i >= 1, so that k e_k = sum_i signed_i e_{k-i}
    signed = {key: c if i % 2 else -c for i, p in enumerate(sums[1:], 1) for key, c in p.items()}
    return TruncatedPoly._raw(ring, sparse.recurrence(signed, ring, divide=True))


def inverse_unit_series(p: TruncatedPoly) -> TruncatedPoly:
    """Multiplicative inverse of a series with constant term 1.

    Writing ``p = 1 + p_1 + p_2 + ...`` by total degree, the inverse ``q``
    satisfies the grade-by-grade recurrence
    ``q_k = -(p_1 q_{k-1} + ... + p_k q_0)``, one
    :func:`~lpbdeg.sparse.recurrence` without division.  Raises
    ``ValueError`` unless the constant term is exactly 1.
    """
    if p.constant_term() != 1:
        raise ValueError("inverse_unit_series needs constant term 1")
    # the grades of -p, so that q_k = sum_j (-p_j) q_{k-j}; the kernel skips the constant
    return TruncatedPoly._raw(p.ring, sparse.recurrence(sparse.scale(p.terms, -1), p.ring, divide=False))
