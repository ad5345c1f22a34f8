"""Truncated multivariate polynomials for characteristic class arithmetic.

A :class:`TruncatedPoly` lives in the quotient
``Q[x_1..x_nvars] / (deg > cap, x_i^(box + 1))``: everything of total degree
above ``cap`` is dropped, which is exactly the right semantics for working
on a variety whose cohomology vanishes above its dimension, and so is every
monomial with an exponent above ``box``.  Terms are stored sparsely in the
packed-exponent format of :mod:`lpbdeg.sparse`, in a packing with bound
``cap`` and exponent box ``box``, and every product keeps exactly the keys
in that packing's ``keep`` set, the one truncation rule.

Every class the degree engine forms is symmetric in the Chern roots, and a
:class:`TruncatedPoly` holds only such classes: its constructor raises
``ValueError`` on terms that some permutation of the variables moves.  Sums,
scalar multiples, graded parts and products of symmetric polynomials are
symmetric, so every truncated product runs on
:func:`~lpbdeg.sparse.mul_symmetric`, one coefficient per orbit of the
variables.  The invariant is checked where terms enter from outside: the
constructor, :func:`product_shifted_linear` (on the power sums of its
roots) and :func:`~lpbdeg.bundles.chern_character_graded` (on the same
power sums).  :func:`power_sums` itself stays a general moment pass.

The box defaults to the cap, where it drops nothing the cap keeps.  The
monomials outside a smaller box span an ideal, so dropping them commutes
with sums, products, the series inversion and the Newton step (whose exact
division by k holds coefficient by coefficient): a boxed result is the
result for the box at the cap with the out-of-box terms removed, exactly.
Only :class:`~lpbdeg.grassmann.GrassContext` picks a smaller box, the
largest exponent its integral reads.

Exponent tuples remain the public format: the constructor takes them, and
:meth:`TruncatedPoly.coefficient` and :meth:`TruncatedPoly.sorted_terms`
speak them.  The order used for display and serialization is graded
lexicographic: lower total degree first, ties broken by the exponent tuple,
which is the integer order of packed keys.  Arithmetic itself is order-free.

:func:`power_sums` is the one pass from Chern roots, a map from plain
integer coefficient tuples to signed multiplicities, to their power sums:
it gathers integer moment sums a column at a time over fixed blocks of
distinct forms, so its cost is one C-level ``map`` and one ``sum`` per
monomial in the box and per block.  Both degree routes start from it.
:func:`product_shifted_linear` turns the power sums into a total Chern
class by Newton's identities, for honest and virtual bundles alike, and
:func:`~lpbdeg.bundles.chern_character_graded` divides them into the
graded Chern character.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from operator import add, mul
from typing import Iterator, Mapping, Sequence

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


def _ring(nvars: int, cap: int, box: int | None = None) -> Packing:
    """The packing of the truncated ring; the box defaults to the cap."""
    return Packing(nvars, cap, cap if box is None else box)


class TruncatedPoly:
    """Sparse polynomial in ``nvars`` variables, truncated above ``cap``.

    ``terms`` maps packed keys of ``ring``, a :class:`~lpbdeg.sparse.Packing`
    with bound ``cap`` and exponent box ``box`` (by default ``cap``), to
    nonzero scalars; terms beyond the cap or outside the box are dropped on
    construction.  The terms must be symmetric in the variables, with
    integer exponents and ``int`` or ``Fraction`` coefficients; any other
    terms, or another scalar given to :meth:`constant` or :meth:`scale`,
    raise ``ValueError``.
    """

    __slots__ = ("ring", "terms")

    def __init__(
        self, nvars: int, cap: int, terms: Mapping[Exponent, Scalar] | None = None, box: int | None = None
    ) -> None:
        ring = _ring(nvars, cap, box)
        clean: dict[int, Scalar] = {}
        for expo, c in (terms or {}).items():
            e = tuple(expo)
            if len(e) != nvars:
                raise ValueError(f"exponent {e} does not have {nvars} entries")
            if not all(isinstance(k, int) for k in e):
                raise ValueError(f"non-integer exponent in {e}")
            if any(k < 0 for k in e):
                raise ValueError(f"negative exponent in {e}")
            c = normalize(c)
            if c == 0 or sum(e) > cap or max(e) > ring.box:
                continue
            key = ring.pack(e)
            clean[key] = clean.get(key, 0) + c
        terms = {k: c for k, c in clean.items() if c != 0}
        if not sparse.is_symmetric(terms, ring):
            raise ValueError("terms are not symmetric in the variables")
        object.__setattr__(self, "ring", ring)
        object.__setattr__(self, "terms", terms)

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
    def zero(cls, nvars: int, cap: int, box: int | None = None) -> TruncatedPoly:
        return cls.constant(nvars, cap, 0, box)

    @classmethod
    def one(cls, nvars: int, cap: int, box: int | None = None) -> TruncatedPoly:
        return cls.constant(nvars, cap, 1, box)

    @classmethod
    def constant(cls, nvars: int, cap: int, c: Scalar, box: int | None = None) -> TruncatedPoly:
        """The constant ``c`` in the ring with exponent box ``box`` (by default ``cap``)."""
        c = normalize(c)
        return cls._raw(_ring(nvars, cap, box), {0: c} if c != 0 else {})

    def _check_compatible(self, other: TruncatedPoly) -> None:
        if self.ring != other.ring:
            raise ValueError("operands live in different truncated rings")

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def constant_term(self) -> Scalar:
        return self.terms.get(0, 0)

    def coefficient(self, expo: Sequence[int]) -> Scalar:
        """Coefficient of the given exponent tuple (0 when absent)."""
        e = tuple(expo)
        if len(e) != self.nvars:
            raise ValueError(f"exponent {e} does not have {self.nvars} entries")
        if any(k < 0 for k in e) or sum(e) > self.cap or max(e) > self.box:
            return 0
        return self.terms.get(self.ring.pack(e), 0)

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

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TruncatedPoly):
            return NotImplemented
        return self.ring == other.ring and self.terms == other.terms

    def __hash__(self) -> int:
        return hash((self.ring, tuple(sorted(self.terms.items()))))

    def __add__(self, other: TruncatedPoly) -> TruncatedPoly:
        if not isinstance(other, TruncatedPoly):
            return NotImplemented
        self._check_compatible(other)
        return TruncatedPoly._raw(self.ring, sparse.add(dict(self.terms), other.terms))

    def __neg__(self) -> TruncatedPoly:
        return TruncatedPoly._raw(self.ring, {k: -c for k, c in self.terms.items()})

    def __sub__(self, other: TruncatedPoly) -> TruncatedPoly:
        if not isinstance(other, TruncatedPoly):
            return NotImplemented
        self._check_compatible(other)
        return TruncatedPoly._raw(self.ring, sparse.add(dict(self.terms), other.terms, -1))

    def scale(self, c: Scalar) -> TruncatedPoly:
        """The multiple ``c * self``; integral coefficients come out as ints."""
        c = normalize(c)
        if c == 0:
            return TruncatedPoly._raw(self.ring, {})
        return TruncatedPoly._raw(self.ring, {k: normalize(v * c) for k, v in self.terms.items()})

    def __mul__(self, other: TruncatedPoly | Scalar) -> TruncatedPoly:
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        if not isinstance(other, TruncatedPoly):
            return NotImplemented
        self._check_compatible(other)
        return TruncatedPoly._raw(self.ring, sparse.mul_symmetric(self.terms, other.terms, self.ring))

    def __rmul__(self, other: Scalar) -> TruncatedPoly:
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        return NotImplemented

    def __pow__(self, exp: int) -> TruncatedPoly:
        if exp < 0:
            raise ValueError("negative power in a truncated ring")
        out = TruncatedPoly._raw(self.ring, {0: 1})
        base = self
        while exp:
            if exp & 1:
                out = out * base
            base = base * base
            exp >>= 1
        return out

    def __repr__(self) -> str:
        body = " + ".join(f"{c}*x^{list(e)}" for e, c in self.sorted_terms()) or "0"
        box = f", box={self.box}" if self.box < self.cap else ""
        return f"TruncatedPoly({self.nvars}, {self.cap}, {body}{box})"


@lru_cache(maxsize=None)
def _moment_table(ring: Packing) -> tuple[tuple[tuple, tuple, tuple], ...]:
    """Grade-by-grade recipe for the monomials of degree 1 .. ``ring.bound``.

    Entry ``j - 1`` describes grade j as three parallel tuples: ``steps``
    of ``(parent, var)``, meaning the monomial is ``x_var`` times the
    parent's monomial at that index in grade j - 1; the packed ``keys``;
    and the ``multinomials`` j! / prod alpha_i!.  Each monomial's parent
    drops one factor of its lowest-index variable, so every monomial
    appears once.  Only monomials in the ring's box are listed; the parent
    of one of them is in the box too.
    """
    nvars, cap, box = ring.nvars, ring.bound, ring.box
    # grade 0 is the empty monomial; a monomial may grow by any variable up
    # to its lowest-index one, the sole variable its parent pointer drops
    prev: list[tuple[int, int, int]] = [(0, 1, nvars - 1)]
    table = []
    for j in range(1, cap + 1):
        steps, level = [], []
        for parent, (key, multinomial, lowest) in enumerate(prev):
            for var in range(lowest + 1):
                child = key + ring.var(var)
                e = ring.exponent(child, var)
                if e > box:
                    continue
                steps.append((parent, var))
                level.append((child, multinomial * j // e, var))
        table.append((tuple(steps), tuple(k for k, _, _ in level), tuple(m for _, m, _ in level)))
        prev = level
    return tuple(table)


def power_sums(roots: Mapping[Exponent, int], ring: Packing, top: int) -> list[sparse.Poly]:
    """Packed integer power sums ``p_j = sum m * a^j``, j = 0 .. ``top``.

    ``roots`` maps each distinct linear form a, an integer coefficient
    tuple, to its signed multiplicity m; ``p_0`` is the virtual rank.
    ``p_j = sum_{|alpha| = j} (j; alpha) M_alpha x^alpha`` over the moment
    sums ``M_alpha = sum m * a^alpha`` of the monomials in the ring's box.
    Within each block of forms a monomial's column of ``m * a^alpha`` is
    its parent's column times one coefficient column, one C-level ``map``,
    and its moment is the column's ``sum``.
    """
    if not 0 <= top <= ring.bound:
        raise ValueError("power sum degree outside [0, bound]")
    table = _moment_table(ring)[:top]
    moments = [[0] * len(keys) for _, keys, _ in table]
    distinct = list(roots.items())
    for start in range(0, len(distinct), _BLOCK):
        block = distinct[start : start + _BLOCK]
        columns = list(zip(*[form for form, _ in block]))
        # level[i] holds m * a^alpha over the block for monomial i of a grade
        level = [[mult for _, mult in block]]
        for j, (steps, _, _) in enumerate(table):
            level = [list(map(mul, level[parent], columns[var])) for parent, var in steps]
            moments[j] = list(map(add, moments[j], map(sum, level)))
    rank = sum(roots.values())
    sums: list[sparse.Poly] = [{0: rank} if rank else {}]
    for (_, keys, multinomials), column in zip(table, moments):
        sums.append({k: c * s for k, c, s in zip(keys, multinomials, column) if s})
    return sums


def product_shifted_linear(
    roots: Mapping[Exponent, int], cap: int, nvars: int, box: int | None = None
) -> TruncatedPoly:
    """The truncated product of ``(1 + form)^m`` over the signed roots.

    ``roots`` maps each distinct linear form, an integer coefficient tuple
    with ``nvars`` entries, to its multiplicity m of either sign, so this is
    the total Chern class ``c(E - F) = c(E) / c(F)`` of a virtual bundle;
    an empty map yields 1.  Forms of another length or with non-integer
    coefficients raise ``ValueError``.  The result lives in the ring with
    exponent box ``box`` (by default ``cap``), and only monomials in the box
    are ever formed.

    The product is never multiplied out.  :func:`power_sums` takes the
    additive power sums p_i of the signed roots from one moment pass, and
    Newton's identities ``k e_k = sum_{i=1..k} (-1)^(i-1) e_{k-i} p_i`` give
    the graded pieces e_k of the product (Fulton, *Intersection Theory*,
    Ch. 3), a step whose cost depends on ``cap`` alone.  The division by k
    is exact on integers; a remainder raises ``ArithmeticError``.  Roots
    whose power sums are not symmetric in the variables raise ``ValueError``.
    """
    if any(len(f) != nvars for f in roots):
        raise ValueError(f"a form does not have {nvars} coefficients")
    if not all(isinstance(c, int) for f in roots for c in f):
        raise ValueError("linear form coefficients must be integers")
    ring = _ring(nvars, cap, box)
    sums = power_sums(roots, ring, cap)
    # symmetric power sums make every e_k symmetric, so every product may
    # run orbit by orbit
    if not all(sparse.is_symmetric(p, ring) for p in sums):
        raise ValueError("the roots are not symmetric in the variables")
    # signed[i] = (-1)^(i-1) p_i, so each Newton step is a plain sum
    signed = [p if i % 2 else {k: -c for k, c in p.items()} for i, p in enumerate(sums)]
    elementary: list[sparse.Poly] = [{0: 1}]
    terms: sparse.Poly = {0: 1}
    for k in range(1, cap + 1):
        acc: sparse.Poly = {}
        for i in range(1, k + 1):
            sparse.add(acc, sparse.mul_symmetric(elementary[k - i], signed[i], ring))
        grade: sparse.Poly = {}
        for key, c in acc.items():
            q, r = divmod(c, k)
            if r:
                raise ArithmeticError(f"Newton step {k} leaves a remainder {r}")
            grade[key] = q
        elementary.append(grade)
        terms.update(grade)
    return TruncatedPoly._raw(ring, terms)


def inverse_unit_series(p: TruncatedPoly) -> TruncatedPoly:
    """Multiplicative inverse of a series with constant term 1.

    Writing ``p = 1 + p_1 + p_2 + ...`` by total degree, the inverse ``q``
    satisfies the grade-by-grade recurrence
    ``q_k = -(p_1 q_{k-1} + ... + p_k q_0)``, which is what gets evaluated
    here.  Raises ``ValueError`` unless the constant term is exactly 1.
    """
    if p.constant_term() != 1:
        raise ValueError("inverse_unit_series needs constant term 1")
    ring, cap = p.ring, p.cap
    # the grades of -p, so that each step of the recurrence is a plain sum
    p_grades: list[sparse.Poly] = [{} for _ in range(cap + 1)]
    for k, c in p.terms.items():
        p_grades[ring.degree(k)][k] = -c
    q_grades: list[sparse.Poly] = [{0: 1}]
    for k in range(1, cap + 1):
        acc: sparse.Poly = {}
        for j in range(1, k + 1):
            if p_grades[j]:
                sparse.add(acc, sparse.mul_symmetric(p_grades[j], q_grades[k - j], ring))
        q_grades.append(acc)
    out: sparse.Poly = {}
    for grade in q_grades:
        out.update(grade)
    return TruncatedPoly._raw(ring, out)


def elementary_symmetric(nvars: int, cap: int, index: int) -> TruncatedPoly:
    """The elementary symmetric polynomial ``e_index`` in the ring variables."""
    if index < 0:
        raise ValueError("negative elementary symmetric index")
    if index == 0:
        return TruncatedPoly.one(nvars, cap)
    if index > nvars or index > cap:
        return TruncatedPoly.zero(nvars, cap)
    ring = _ring(nvars, cap)
    terms = {sum(ring.var(i) for i in subset): 1 for subset in combinations(range(nvars), index)}
    return TruncatedPoly._raw(ring, terms)
