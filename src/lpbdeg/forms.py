"""Exact projective differential 1-forms and linear pullback.

A projective 1-form of foliation degree d on P^n is ``sum A_i dZ_i`` with
each A_i homogeneous of degree d+1 and the radial contraction
``sum A_i Z_i`` identically zero.  The public format of a polynomial is a
sparse dict from exponent tuples over Z_0..Z_n to integer or Fraction
coefficients, exact and untruncated (degrees stay small).  Substitutions
run on the packed-exponent kernel of :mod:`lpbdeg.sparse`, with fields
sized by the degree of the result, and convert back to tuples at the
public boundary.

:class:`ProjectiveOneForm` stores the coefficient vector and enforces
homogeneity but deliberately not the contraction identity, so that
non-members can be constructed and tested; membership is the statement
``contract_radial(form) == {}``.  The form space has a basis in closed form,
the forms ``m (Z_i dZ_j - Z_j dZ_i)`` with i < j and m a monomial in
Z_i..Z_n (:func:`form_space_basis`), so sampling (:func:`random_form`) runs
no linear algebra, and the rank-3 check of a projection is a search for a
nonzero 3 x 3 minor, whose block :func:`recover` also inverts.

:func:`integrability_defect` gives the coefficients Omega_ijk of
``mu ^ d mu``.  Two exact identities let it skip triples.  Every 1-form has
``mu ^ (mu ^ d mu) = 0``; its 4-index component makes ``A_p Omega_jkl`` a
signed sum of triples through p, so with p the first index >= 1 where
A_p != 0, the triples without 0 vanish once the C(n-1, 2) of them through p
do.  For coefficients homogeneous of degree d+1 the Euler relation gives
``i_R d mu = (d+2) mu - d(i_R mu)``, so on the radial kernel
``i_R (mu ^ d mu) = 0``, that is ``sum_l Z_l Omega_ljk = 0`` (Jouanolou,
*Equations de Pfaff algebriques*, LNM 708), and ``Z_0 Omega_0jk`` vanishes
with the triples without 0.  An integrable form whose radial contraction is
zero thus costs C(n-1, 2) of the C(n+1, 3) triples (1, 3 and 6 for n = 3,
4 and 5), and any other form gets every triple computed.  A triple is a
gather, not a product of sparse polynomials: every coefficient is
homogeneous of degree d+1, so which coefficient and derivative monomials
meet in which defect monomial depends only on (n, d).  A table built once
per (n, d) lists them as one pair of ``operator.itemgetter`` gathers per
defect monomial, and a defect coefficient is one C-level dot product of
dense vectors.

Linear pullback along a rank-3 matrix F sends a plane form to a form on
P^n, and :func:`recover` inverts that map exactly.  A form is a pullback
exactly when every vector of ker F annihilates it, ``i_v mu = 0`` and
``L_v mu = 0``, which it checks on dense coefficient vectors with the
derivative gathers of the integrability check; then the section G of F
built from an invertible column triple has ``F o G = det * identity``, and
``G^* mu`` is ``det^(d+2)`` times the plane source.  Both pullbacks, along F
and along G, run through one routine, a substitution followed by a
weighting, and every sum accumulates in place with :func:`sparse.add`.
All hot paths stay in integer arithmetic; rationals appear only in the
final rescale.
"""

from __future__ import annotations

import random
from collections.abc import Iterable
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, partial
from itertools import chain, combinations
from math import comb, lcm
from operator import add, attrgetter, itemgetter, mul, neg, sub
from typing import Callable, NamedTuple, Sequence

from . import sparse
from .exact import Scalar, normalize, require
from .polyring import exponents_of_degree
from .sparse import Packing

Exponent = tuple[int, ...]
Poly = dict[Exponent, Scalar]
# a gather over a dense coefficient vector and its weights: one partial derivative
_Derivative = tuple[Callable[[Sequence[Scalar]], tuple], tuple[int, ...]]

# (name, least value, message) of the dimension and the degree of a form
_N = ("n", 2, "ambient projective dimension must be at least 2")
_D = ("d", 0, "foliation degree must be nonnegative")


def poly_mul(p: sparse.Poly, q: sparse.Poly) -> sparse.Poly:
    """Untruncated product of two packed polynomials, one step of the substitution.

    The packing shared by ``p`` and ``q`` must have room for the degree of
    the product.
    """
    return sparse.mul(p, q)


def substitute_linear(
    polys: Sequence[Poly], rows: Sequence[Sequence[Scalar]], nvars_out: int
) -> list[Poly]:
    """Substitute a linear form for each variable of every polynomial.

    ``rows[i]`` holds the coefficients, over the output variables, of the
    form replacing variable i.  Monomial images are shared by all of
    ``polys`` and built grade by grade along :func:`sparse.monomial_tree`:
    the image of a monomial is its parent's image, the monomial less one
    factor of its lowest-index variable, times a linear polynomial, so each
    monomial up to the largest input degree costs one multiplication however
    many inputs contain it.  Only the images of one grade are held while the
    next is built, so memory follows the largest two grades rather than
    every grade.  A monomial through a zero row maps to ``{}`` without a
    product, so a substitution that sends variables to zero costs only the
    monomials in the others.
    """
    if any(len(row) != nvars_out for row in rows):
        raise ValueError("substitution rows must have nvars_out entries")
    if any(len(e) != len(rows) for p in polys for e in p):
        raise ValueError("polynomial arity does not match the substitution")
    bound = max((sum(e) for p in polys for e in p), default=0)
    source, ring = Packing(len(rows), bound), Packing(nvars_out, bound)
    lin = [{ring.var(j): c for j, c in enumerate(row) if c != 0} for row in rows]
    # terms[t] lists (input, key, coefficient) of degree t in input order
    terms: list[list[tuple[int, int, Scalar]]] = [[] for _ in range(bound + 1)]
    for index, p in enumerate(polys):
        for e, c in p.items():
            terms[sum(e)].append((index, source.pack(e), c))
    totals: list[sparse.Poly] = [{} for _ in polys]
    tree = sparse.monomial_tree(source)
    level: list[sparse.Poly] = [{0: 1}]
    images = {0: level[0]}
    for t in range(bound + 1):
        if t:
            steps, keys, _ = tree[t - 1]
            level = [
                poly_mul(level[parent], lin[var]) if level[parent] and lin[var] else {}
                for parent, var in steps
            ]
            images = dict(zip(keys, level))
        for index, key, c in terms[t]:
            sparse.add(totals[index], images[key], c)
    return [ring.unpack_terms(total) for total in totals]


@dataclass
class ProjectiveOneForm:
    """Coefficient vector ``(A_0, ..., A_n)`` of ``sum A_i dZ_i``.

    ``n`` is the ambient projective dimension and d the foliation degree,
    so each A_i is homogeneous of degree d+1 in the n+1 variables.  The
    radial-contraction identity is not enforced here; use
    :func:`contract_radial` to test membership in the form space.  An
    ``n`` or ``d`` that is not an ``int``, a coefficient that is not an
    ``int`` or a ``Fraction``, or an exponent key that is not a sequence of
    nonnegative ``int`` (a ``bool`` included), raises ``ValueError``.
    """

    n: int
    d: int
    coeffs: tuple[Poly, ...]

    def __post_init__(self) -> None:
        require(self.n, *_N)
        require(self.d, *_D)
        if len(self.coeffs) != self.n + 1:
            raise ValueError(f"need {self.n + 1} coefficient polynomials, got {len(self.coeffs)}")
        nv, degree = self.n + 1, self.d + 1
        clean = []
        for a in self.coeffs:
            poly: Poly = {}
            # a bool, float or Fraction entry is not an exponent; one C-level
            # pass clears the usual coefficient, and a key is looked at alone
            # only to name the bad one
            try:
                exact = set(map(type, chain.from_iterable(a))) <= {int}
            except TypeError:  # a key that is not a sequence
                bad = next(e for e in a if not isinstance(e, Iterable))
                raise ValueError(f"bad exponent {bad!r} for ambient dimension {self.n}") from None
            for e, c in a.items():
                key = tuple(e)
                # the entry types first, so that min never compares a str with an int
                if len(key) != nv or not exact and set(map(type, key)) != {int} or min(key) < 0:
                    raise ValueError(f"bad exponent {key} for ambient dimension {self.n}")
                c = normalize(c)
                if c:
                    poly[key] = c
            if any(sum(e) != degree for e in poly):
                raise ValueError(f"coefficients must be homogeneous of degree {degree}")
            clean.append(poly)
        self.coeffs = tuple(clean)

    @property
    def is_zero(self) -> bool:
        return all(not a for a in self.coeffs)

    def scale(self, c: Scalar) -> ProjectiveOneForm:
        c = normalize(c)
        return ProjectiveOneForm(self.n, self.d, tuple(sparse.scale(a, c) for a in self.coeffs))

    def __add__(self, other: ProjectiveOneForm) -> ProjectiveOneForm:
        if not isinstance(other, ProjectiveOneForm):
            return NotImplemented
        if (self.n, self.d) != (other.n, other.d):
            raise ValueError("forms live in different spaces")
        return ProjectiveOneForm(
            self.n, self.d, tuple(sparse.add(dict(a), b) for a, b in zip(self.coeffs, other.coeffs))
        )


def contract_radial(form: ProjectiveOneForm) -> Poly:
    """The radial contraction ``sum A_i Z_i``, zero exactly on form-space members.

    Multiplying by Z_i raises one entry of each exponent tuple, so the sum
    is formed on the tuples themselves, with no packing.
    """
    out: Poly = {}
    for i, a in enumerate(form.coeffs):
        sparse.add(out, {e[:i] + (e[i] + 1,) + e[i + 1 :]: c for e, c in a.items()})
    return out


class _DefectTable(NamedTuple):
    """The bilinear table of ``mu ^ d mu`` for the forms of degree d on P^n.

    ``top`` and ``out`` list the monomials of degree d+1 (the coefficients)
    and 2d+1 (the defects) in the order of :func:`exponents_of_degree`, and
    ``derivatives`` are those of :func:`_derivatives`.  ``products[nu]`` is
    a pair of gathers into ``a = A_i || A_j || A_k`` and ``b = curl(j, k) ||
    -curl(i, k) || curl(i, j)``: for every coefficient monomial and
    derivative monomial whose product is ``out[nu]``, their indices in each
    of the three blocks, so that ``Omega_ijk[nu]`` is the dot product of the
    two gathers.
    """

    top: tuple[Exponent, ...]
    derivatives: tuple[_Derivative, ...]
    out: tuple[Exponent, ...]
    products: tuple[tuple[itemgetter, itemgetter], ...]

    def defect(self, a: Sequence[Scalar], b: Sequence[Scalar]) -> Poly:
        """Omega_ijk from the vectors ``a`` and ``b``, one dot product per monomial."""
        values = [sum(map(mul, ga(a), gb(b))) for ga, gb in self.products]
        return {e: c for e, c in zip(self.out, values) if c}


def _gather(indices: Sequence[int]) -> Callable[[Sequence[Scalar]], tuple]:
    """``itemgetter(*indices)``, but a tuple for a single index too."""
    if len(indices) == 1:
        return lambda v, i=indices[0]: (v[i],)
    return itemgetter(*indices)


@lru_cache(maxsize=1)
def _derivatives(n: int, d: int) -> tuple[tuple[Exponent, ...], tuple[_Derivative, ...]]:
    """The monomials of degree d+1 on P^n and the partial derivatives over them.

    A coefficient is a dense vector over the first, ``top``, in the order of
    :func:`exponents_of_degree`.  ``derivatives[v]`` is a gather and its
    weights over the degree-d monomials beta, in that order too:
    ``d_v A[beta] = (beta_v + 1) A[beta + e_v]``.  Only the latest (n, d)
    stays cached, as for :func:`_defect_table`, which reads it.
    """
    nv = n + 1
    ring = Packing(nv, d + 1)
    top, low = tuple(exponents_of_degree(nv, d + 1)), exponents_of_degree(nv, d)
    top_index = {ring.pack(e): i for i, e in enumerate(top)}
    low_keys = [ring.pack(e) for e in low]
    derivatives = tuple(
        (
            _gather([top_index[k + ring.var(v)] for k in low_keys]),
            tuple(ring.exponent(k, v) + 1 for k in low_keys),
        )
        for v in range(nv)
    )
    return top, derivatives


@lru_cache(maxsize=1)
def _defect_table(n: int, d: int) -> _DefectTable:
    """The :class:`_DefectTable` of degree-d forms on P^n, built once.

    Monomials are paired on packed keys, where a product is one addition.
    Only the table of the latest (n, d) stays cached: a run checks the
    forms of one (n, d) after another, so an older table is not read again.
    """
    nv = n + 1
    ring = Packing(nv, 2 * d + 1)
    top, derivatives = _derivatives(n, d)
    low, out = (tuple(exponents_of_degree(nv, t)) for t in (d, 2 * d + 1))
    top_keys, low_keys = [ring.pack(e) for e in top], [ring.pack(e) for e in low]
    out_index = {ring.pack(e): i for i, e in enumerate(out)}
    # the three blocks of a (of b) start at multiples of size_a (size_b); a
    # pair of monomials gives the two gathers of its product one index triple
    # each, and each triple is made once so that the gathers share its ints
    size_a, size_b = len(top), len(low)
    blocks_a = [(i, i + size_a, i + 2 * size_a) for i in range(size_a)]
    blocks_b = [(i, i + size_b, i + 2 * size_b) for i in range(size_b)]
    left: list[list[tuple[int, int, int]]] = [[] for _ in out]
    right: list[list[tuple[int, int, int]]] = [[] for _ in out]
    for block_a, ka in zip(blocks_a, top_keys):
        for block_b, nu in zip(blocks_b, map(out_index.__getitem__, map(ka.__add__, low_keys))):
            left[nu].append(block_a)
            right[nu].append(block_b)
    products = tuple(
        (itemgetter(*chain.from_iterable(la)), itemgetter(*chain.from_iterable(lb)))
        for la, lb in zip(left, right)
    )
    return _DefectTable(top, derivatives, out, products)


def integrability_defect(form: ProjectiveOneForm) -> dict[tuple[int, int, int], Poly]:
    """The quadratic integrability obstructions, indexed by triples i < j < k.

    For each triple the defect is the coefficient of dZ_i dZ_j dZ_k in
    ``mu ^ d mu``,
    ``A_i (d_j A_k - d_k A_j) + A_j (d_k A_i - d_i A_k) + A_k (d_i A_j - d_j A_i)``
    with d_j the partial derivative in Z_j; the form is integrable exactly
    when every defect is the zero polynomial.

    Every coefficient is homogeneous of degree d+1, so the products depend
    only on (n, d) and are read from a table built once per (n, d) at the
    first triple formed (:class:`_DefectTable`).  Each coefficient becomes a
    dense vector over the degree-(d+1) monomials, each curl
    ``d_j A_k - d_k A_j`` is formed once per pair from two derivative
    gathers, and the coefficient of a defect monomial is one C-level dot
    product of two fused gathers over the three coefficients and the three
    curls of the triple.

    Let p be the first index >= 1 with A_p != 0.  The C(n-1, 2) triples
    without 0 that contain p are computed first.  When all of them vanish,
    the other C(n-1, 3) triples without 0 are zero and stored as ``{}``:
    the component (p, j, k, l) of ``mu ^ (mu ^ d mu) = 0`` makes
    ``A_p Omega_jkl`` a signed sum of triples through p, and the polynomial
    ring has no zero divisors.  When some pivot triple is nonzero, or no
    pivot exists, every triple without 0 is computed.  Then, when all
    triples without 0 vanish and the radial contraction is zero, the C(n, 2)
    triples (0, j, k) are zero too and stored as ``{}``: contracting
    ``mu ^ d mu`` with the radial field gives ``sum_l Z_l Omega_ljk = 0``
    (Jouanolou), so ``Z_0 Omega_0jk`` is a sum of triples without 0.
    Otherwise every triple is computed, so the dict is exact for any form.
    An integrable form in the radial kernel costs 1, 3 and 6 triples for
    n = 3, 4 and 5, against C(n+1, 3) = 4, 10 and 20.

    A form with ``Fraction`` coefficients is gathered on integers: the
    defects are quadratic in the form, so those of the form times the
    common denominator D of its coefficients, divided exactly by D^2, are
    its own.
    """
    n, d, nv = form.n, form.d, form.n + 1
    scale = lcm(*map(attrgetter("denominator"), chain.from_iterable(map(dict.values, form.coeffs))))
    coeffs = form.coeffs
    if scale != 1:
        coeffs = tuple({e: c.numerator * (scale // c.denominator) for e, c in a.items()} for a in coeffs)

    @lru_cache(maxsize=None)
    def vector(i: int) -> list[Scalar]:
        return [coeffs[i].get(e, 0) for e in _defect_table(n, d).top]

    @lru_cache(maxsize=None)
    def curl(j: int, k: int) -> list[Scalar]:
        # d_j A_k - d_k A_j, formed once per pair that a triple reads
        derivatives = _defect_table(n, d).derivatives
        (gj, wj), (gk, wk) = derivatives[j], derivatives[k]
        return list(map(sub, map(mul, wj, gj(vector(k))), map(mul, wk, gk(vector(j)))))

    def defect(i: int, j: int, k: int) -> Poly:
        a = vector(i) + vector(j) + vector(k)
        b = curl(j, k) + list(map(neg, curl(i, k))) + curl(i, j)
        omega = _defect_table(n, d).defect(a, b)
        return omega if scale == 1 else {e: normalize(Fraction(c, scale * scale)) for e, c in omega.items()}

    triples = list(combinations(range(1, nv), 3))
    pivot = next((p for p in range(1, nv) if form.coeffs[p]), None)
    inner = {t: defect(*t) for t in triples if pivot in t}
    # mu ^ (mu ^ d mu) = 0 makes A_p Omega_jkl a signed sum of triples through p
    rest_zero = pivot is not None and not any(inner.values())
    inner = {t: inner[t] if t in inner else ({} if rest_zero else defect(*t)) for t in triples}
    outer_zero = not any(inner.values()) and not contract_radial(form)
    outer = {
        (0, j, k): {} if outer_zero else defect(0, j, k)
        for j, k in combinations(range(1, nv), 2)
    }
    # the triples with 0 come first in the order of combinations(range(nv), 3)
    return {**outer, **inner}


@dataclass(frozen=True)
class LinearProjection:
    """A linear projection P^n -> P^2 given by a full-rank 3 x (n+1) matrix.

    Row r holds the coefficients of the linear form F_r; the projection is
    ``[F_0 : F_1 : F_2]``.  Construction fails unless the rank is exactly 3
    and every entry is an ``int`` or a ``Fraction``.
    """

    rows: tuple[tuple[Scalar, ...], ...]

    def __post_init__(self) -> None:
        rows = tuple(tuple(normalize(c) for c in row) for row in self.rows)
        if len(rows) != 3:
            raise ValueError("a projection to the plane needs exactly 3 rows")
        widths = {len(row) for row in rows}
        if len(widths) != 1:
            raise ValueError("projection rows have unequal lengths")
        width = widths.pop()
        if width < 3:
            raise ValueError("ambient projective dimension must be at least 2")
        if _invertible_block(rows) is None:
            raise ValueError("projection matrix must have rank exactly 3")
        object.__setattr__(self, "rows", rows)

    @property
    def n(self) -> int:
        return len(self.rows[0]) - 1


def _pull_back(rows: Sequence[Sequence[Scalar]], form: ProjectiveOneForm) -> ProjectiveOneForm:
    """The pullback of ``form`` along the linear map whose row i replaces Z_i.

    Coefficient j of the result is ``sum_i rows[i][j] * (A_i o rows)``; every
    ``A_i`` is substituted in one call, then weighted by the matrix entries.
    An ``A_i`` whose row is zero is weighted by 0 everywhere, so it is
    substituted as ``{}``: along the section of :func:`recover` only the
    three coefficients of the column triple are.
    """
    width = len(rows[0])
    polys = [a if any(row) else {} for row, a in zip(rows, form.coeffs)]
    coeffs: list[Poly] = [{} for _ in range(width)]
    for row, composed in zip(rows, substitute_linear(polys, rows, width)):
        for j, f in enumerate(row):
            if f != 0:
                sparse.add(coeffs[j], composed, f)
    return ProjectiveOneForm(width - 1, form.d, tuple(coeffs))


def pullback_linear(proj: LinearProjection, form: ProjectiveOneForm) -> ProjectiveOneForm:
    """Pull a plane 1-form back along the linear projection.

    With ``mu = sum_i B_i(F) dF_i`` expanded in the ambient coordinates, the
    j-th output coefficient is ``sum_i F[i][j] * (B_i o F)``.  The input
    must be a plane form with zero radial contraction; the output then has
    zero contraction and zero integrability defects, which the test suite
    checks exhaustively.
    """
    if form.n != 2:
        raise ValueError("pullback source must be a plane form (n = 2)")
    if contract_radial(form):
        raise ValueError("pullback source must have zero radial contraction")
    return _pull_back(proj.rows, form)


def dimension_vdn(n: int, d: int) -> int:
    """Dimension of the space of degree-d projective 1-forms on P^n.

    The contraction map from (n+1) copies of the degree-(d+1) monomial
    space onto the degree-(d+2) monomial space is surjective, so the
    dimension is ``(n+1)*C(n+d+1, n) - C(n+d+2, n)``.
    """
    require(n, *_N)
    require(d, *_D)
    return (n + 1) * comb(n + d + 1, n) - comb(n + d + 2, n)


def form_space_basis(n: int, d: int) -> tuple[ProjectiveOneForm, ...]:
    """A basis of the form space, written down in closed form.

    The forms ``m (Z_i dZ_j - Z_j dZ_i)`` for i < j and m a monomial of
    degree d in Z_i..Z_n, ordered by j and then by ``e = m Z_i`` in the order
    of :func:`exponents_of_degree`.  The form of (j, e) has ``Z^e`` at
    coefficient j and ``-Z^(e - e_i + e_j)`` at i, the first index where e is
    positive.  The forms are independent: the entry (j, e), with e positive
    before j, occurs in no other form, whose entry (i, f) has f zero before
    i.  The remaining pairs, with e zero before j, are one per degree-(d+2)
    monomial ``Z^(e + e_j)``, so the forms number ``dimension_vdn(n, d)``, the
    dimension of the kernel of the contraction, and are a basis of it (that
    such forms span is the exactness of the Koszul complex; Jouanolou,
    *Equations de Pfaff algebriques*, LNM 708).  They are also the
    normalized kernel basis that exact elimination returns for the 0/1
    contraction matrix with columns ordered by coefficient index and then by
    monomial.  The result is cached; treat the returned forms as read-only.
    The arguments are checked before the cache is read, since ``True``,
    ``1.0`` and ``1`` are one key to it.
    """
    require(n, *_N)
    require(d, *_D)
    return _form_space_basis(n, d)


@lru_cache(maxsize=None)
def _form_space_basis(n: int, d: int) -> tuple[ProjectiveOneForm, ...]:
    nv = n + 1
    basis = []
    for j in range(1, nv):
        for e in exponents_of_degree(nv, d + 1):
            i = next(v for v in range(nv) if e[v])
            if i < j:
                swapped = list(e)
                swapped[i] -= 1
                swapped[j] += 1
                coeffs: list[Poly] = [{} for _ in range(nv)]
                coeffs[j], coeffs[i] = {e: 1}, {tuple(swapped): -1}
                basis.append(ProjectiveOneForm(n, d, tuple(coeffs)))
    expected = dimension_vdn(n, d)
    if len(basis) != expected:
        raise RuntimeError(f"form space basis has {len(basis)} forms, expected {expected}")
    return tuple(basis)


def random_form(n: int, d: int, seed: int) -> ProjectiveOneForm:
    """Deterministic pseudo-random element of the form space.

    Combines the cached :func:`form_space_basis` with independent uniform
    integer coefficients in [-9, 9] drawn from ``random.Random(seed)``; the
    same (n, d, seed) always yields the same form, and the radial
    contraction of the result is identically zero.  Needs n >= 2 and d >= 0.
    """
    basis = form_space_basis(n, d)
    rng = random.Random(seed)
    weights = [rng.randint(-9, 9) for _ in basis]
    coeffs: list[Poly] = [{} for _ in range(n + 1)]
    for w, b in zip(weights, basis):
        if w == 0:
            continue
        for i in range(n + 1):
            sparse.add(coeffs[i], b.coeffs[i], w)
    return ProjectiveOneForm(n, d, tuple(coeffs))


def random_projection(n: int, seed: int) -> LinearProjection:
    """Deterministic pseudo-random full-rank projection with entries in [-9, 9].

    The source is P^n with n >= 2, since the rank must be 3.
    """
    require(n, *_N)
    rng = random.Random(seed)
    for _ in range(1000):
        rows = tuple(tuple(rng.randint(-9, 9) for _ in range(n + 1)) for _ in range(3))
        if _invertible_block(rows) is not None:
            return LinearProjection(rows)
    raise RuntimeError("failed to sample a full-rank projection")


def _adjugate3(m: Sequence[Sequence[Scalar]]) -> list[list[Scalar]]:
    """Adjugate of a 3 x 3 matrix: ``m @ adj = det * identity``."""
    cof = [
        [
            m[1][1] * m[2][2] - m[1][2] * m[2][1],
            -(m[1][0] * m[2][2] - m[1][2] * m[2][0]),
            m[1][0] * m[2][1] - m[1][1] * m[2][0],
        ],
        [
            -(m[0][1] * m[2][2] - m[0][2] * m[2][1]),
            m[0][0] * m[2][2] - m[0][2] * m[2][0],
            -(m[0][0] * m[2][1] - m[0][1] * m[2][0]),
        ],
        [
            m[0][1] * m[1][2] - m[0][2] * m[1][1],
            -(m[0][0] * m[1][2] - m[0][2] * m[1][0]),
            m[0][0] * m[1][1] - m[0][1] * m[1][0],
        ],
    ]
    return [[cof[j][i] for j in range(3)] for i in range(3)]


def _invertible_block(
    rows: Sequence[Sequence[Scalar]],
) -> tuple[tuple[int, ...], list[list[Scalar]], Scalar] | None:
    """The first column triple whose 3 x 3 block of ``rows`` is invertible.

    Returns the triple, the block's adjugate and its determinant, or
    ``None`` when every 3 x 3 minor vanishes, that is when the three rows
    have rank below 3.
    """
    for cols in combinations(range(len(rows[0])), 3):
        block = [[row[c] for c in cols] for row in rows]
        adj = _adjugate3(block)
        det = sum(block[0][j] * adj[j][0] for j in range(3))
        if det != 0:
            return cols, adj, det
    return None


def _annihilated_by_kernel(
    rows: Sequence[Sequence[Scalar]],
    mu: ProjectiveOneForm,
    block: tuple[tuple[int, ...], list[list[Scalar]], Scalar],
) -> bool:
    """Whether ``mu = F^* omega`` for some plane 1-form omega, F the matrix ``rows``.

    ``block`` is ``(cols, adj, det)`` of :func:`_invertible_block`, with
    ``F_cols adj = det * identity``.  For each column c outside the triple
    let ``w = adj F[:, c]``; then ``v_c = det e_c - sum_t w_t e_cols[t]``
    lies in ker F, and these n - 2 vectors are a basis of it.  The test is
    that each v_c annihilates mu:

    (i) ``i_{v_c} mu = det A_c - sum_t w_t A_cols[t] = 0``, and
    (ii) ``L_{v_c} mu = 0``, that is ``det d_c A_k = sum_t w_t d_cols[t] A_k``
    for each k in the triple.  By (i) every other A_c is a constant
    combination of the three A_cols[t], so (ii) holds for it as well.

    Proof that this is exact.  If ``mu = F^* omega = sum_i B_i(F Z) dF_i``,
    then ``i_v mu = sum_i B_i(F Z) (F v)_i = 0`` and ``A_k(Z + s v) =
    A_k(Z)`` for v in ker F, so (i) and (ii) hold.  Conversely, let ``b =
    adj^T A_cols / det``, so that ``sum_i b_i F[i][k] = A_k`` for k in the
    triple; by (i) ``sum_i b_i F[i][c] = (adj F[:, c]) . A_cols / det =
    A_c`` for c outside it, so ``mu = sum_i b_i(Z) dF_i``.  By (ii) each b_i
    is constant along ker F.  The section G, with the rows of adj at the
    triple and zero rows elsewhere, has ``F G = det * identity``, so
    ``Z - G F Z / det`` lies in ker F and ``b_i(Z) = b_i(G F Z / det) =
    B_i(F Z)`` with ``B_i(Y) = b_i(G Y / det)`` of degree d+1: mu is
    ``F^*(sum_i B_i dY_i)``.  At n = 2 the kernel is zero and there is
    nothing to test.

    Both conditions are checked on dense vectors over the degree-(d+1)
    monomials, the derivatives with the gathers of :func:`_derivatives`,
    which are read only when some column lies outside the triple.
    """
    cols, adj, det = block
    others = [c for c in range(len(rows[0])) if c not in cols]
    if not others:
        return True
    kernel = [[sum(adj[t][i] * rows[i][c] for i in range(3)) for t in range(3)] for c in others]
    top, derivatives = _derivatives(mu.n, mu.d)

    def annihilated(x: list[list[Scalar]]) -> bool:
        # det x[c] == sum_t w_t x[cols[t]] entry by entry, for every v_c;
        # x holds one vector per variable
        x0, x1, x2 = (x[k] for k in cols)
        for c, (w0, w1, w2) in zip(others, kernel):
            rhs = map(add, map(partial(mul, w0), x0), map(partial(mul, w1), x1))
            rhs = map(add, rhs, map(partial(mul, w2), x2))
            if list(map(partial(mul, det), x[c])) != list(rhs):
                return False
        return True

    coeffs = [[a.get(e, 0) for e in top] for a in mu.coeffs]
    if not annihilated(coeffs):
        return False
    return all(
        annihilated([list(map(mul, weights, gather(coeffs[k]))) for gather, weights in derivatives])
        for k in cols
    )


def recover(proj: LinearProjection, mu: ProjectiveOneForm) -> ProjectiveOneForm | None:
    """Invert the linear pullback: find the plane form with the given image.

    Takes the first column triple of the projection matrix F whose 3 x 3
    block is invertible.  The input is a pullback ``F^* omega`` exactly when
    every vector of ker F annihilates it (:func:`_annihilated_by_kernel`);
    when it is not, the result is ``None`` and no substitution runs.  The
    section G of F with the adjugate's rows at the triple and zero rows
    elsewhere has ``F o G = det * identity``, so ``G^* mu = (F o G)^* omega
    = det^(d+2) omega``: one pullback along G, on the path of
    :func:`pullback_linear`, gives omega.  It is returned only when its
    radial contraction is zero, that is when omega lies in the plane's form
    space; otherwise the result is ``None``.  The substitution along G forms
    no product for a monomial through a variable outside the triple.
    """
    if mu.n != proj.n:
        raise ValueError("form and projection have different ambient dimensions")
    found = _invertible_block(proj.rows)
    if found is None:  # rank 3 guarantees an invertible column triple
        raise RuntimeError("projection of rank 3 has no invertible column triple")
    if not _annihilated_by_kernel(proj.rows, mu, found):
        return None
    cols, adj, det = found
    section = [adj[cols.index(v)] if v in cols else [0, 0, 0] for v in range(proj.n + 1)]
    raw = _pull_back(section, mu)
    if contract_radial(raw):
        return None
    return raw.scale(Fraction(1, det ** (mu.d + 2)))
