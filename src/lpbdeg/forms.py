"""Exact projective differential 1-forms and linear pullback.

A projective 1-form of foliation degree d on P^n is ``sum A_i dZ_i`` with
each A_i homogeneous of degree d+1 and the radial contraction
``sum A_i Z_i`` identically zero.  The public format of a polynomial is a
sparse dict from exponent tuples over Z_0..Z_n to integer or Fraction
coefficients, exact and untruncated (degrees stay small).  Products,
derivatives and substitutions run on the packed-exponent kernel of
:mod:`lpbdeg.sparse`, with fields sized by the degree of the result, and
convert back to tuples at the public boundary.

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
4 and 5), and any other form gets every triple computed.

Linear pullback along a rank-3 matrix F sends a plane form to a form on
P^n, and :func:`recover` inverts that map exactly: the section G of F built
from an invertible column triple has ``F o G = det * identity``, so the
candidate ``G^* mu`` is accepted only when ``F^*(G^* mu) = det^(d+2) mu``.
All three pullbacks run through one routine, a substitution followed by a
weighting, and every sum accumulates in place with :func:`sparse.add`.  All
hot paths stay in integer arithmetic; rationals appear only in the final
rescale.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from math import comb
from typing import Iterable, Sequence

from . import sparse
from .exact import Scalar, normalize
from .polyring import exponents_of_degree
from .sparse import Packing

Exponent = tuple[int, ...]
Poly = dict[Exponent, Scalar]


def poly_mul(p: sparse.Poly, q: sparse.Poly) -> sparse.Poly:
    """Untruncated product of two packed polynomials, the forms hot path.

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
    ``polys`` and built degree by degree: the image of a monomial is its
    parent's image, the monomial less one factor of its first variable,
    times a linear polynomial, so each distinct exponent costs one
    multiplication however many inputs contain it.  Only the images one
    degree below are held while a degree is built, so memory follows the
    largest two degrees rather than every degree.  A monomial through a
    zero row maps to ``{}`` without a product, so a substitution that sends
    variables to zero costs only the monomials in the others.
    """
    if any(len(row) != nvars_out for row in rows):
        raise ValueError("substitution rows must have nvars_out entries")
    if any(len(e) != len(rows) for p in polys for e in p):
        raise ValueError("polynomial arity does not match the substitution")
    bound = max((sum(e) for p in polys for e in p), default=0)
    source, ring = Packing(len(rows), bound), Packing(nvars_out, bound)
    lin = [{ring.var(j): c for j, c in enumerate(row) if c != 0} for row in rows]
    steps = [source.var(i) for i in range(len(rows))]
    # the first variable of a monomial owns the highest set bit below the
    # degree field, since variable 0 sits in the highest field
    fields = (1 << source.shift) - 1

    def first_var(key: int) -> int:
        return len(rows) - 1 - ((key & fields).bit_length() - 1) // source.width

    # terms[t] lists (input, key, coefficient) of degree t in input order;
    # needed[t] maps each monomial of degree t whose image is built to its
    # first variable; a monomial through a zero row needs no parent, and
    # the parent of a degree-1 monomial is 1, whose image starts the levels
    terms: list[list[tuple[int, int, Scalar]]] = [[] for _ in range(bound + 1)]
    needed: list[dict[int, int]] = [{} for _ in range(bound + 1)]
    for index, p in enumerate(polys):
        for e, c in p.items():
            key, t = source.pack(e), sum(e)
            terms[t].append((index, key, c))
            if t:
                needed[t][key] = first_var(key)
    for t in range(bound, 1, -1):
        for key, i in needed[t].items():
            if lin[i]:
                parent = key - steps[i]
                needed[t - 1][parent] = first_var(parent)
    totals: list[sparse.Poly] = [{} for _ in polys]
    images: dict[int, sparse.Poly] = {0: {0: 1}}
    for t in range(bound + 1):
        if t:
            below, images = images, {}
            for key, i in needed[t].items():
                rest = below[key - steps[i]] if lin[i] else {}
                images[key] = poly_mul(rest, lin[i]) if rest else {}
        for index, key, c in terms[t]:
            sparse.add(totals[index], images[key], c)
    return [ring.unpack_terms(total) for total in totals]


@dataclass
class ProjectiveOneForm:
    """Coefficient vector ``(A_0, ..., A_n)`` of ``sum A_i dZ_i``.

    ``n`` is the ambient projective dimension and d the foliation degree,
    so each A_i is homogeneous of degree d+1 in the n+1 variables.  The
    radial-contraction identity is not enforced here; use
    :func:`contract_radial` to test membership in the form space.  A
    coefficient that is not an ``int`` or a ``Fraction`` raises
    ``ValueError``.
    """

    n: int
    d: int
    coeffs: tuple[Poly, ...]

    def __post_init__(self) -> None:
        if self.n < 2:
            raise ValueError("ambient projective dimension must be at least 2")
        if self.d < 0:
            raise ValueError("foliation degree must be nonnegative")
        if len(self.coeffs) != self.n + 1:
            raise ValueError(f"need {self.n + 1} coefficient polynomials, got {len(self.coeffs)}")
        nv, degree = self.n + 1, self.d + 1
        clean = []
        for a in self.coeffs:
            poly: Poly = {}
            for e, c in a.items():
                key = tuple(e)
                # a float or Fraction entry makes the sum a float or Fraction
                if len(key) != nv or min(key) < 0 or type(sum(key)) is not int:
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


def integrability_defect(form: ProjectiveOneForm) -> dict[tuple[int, int, int], Poly]:
    """The quadratic integrability obstructions, indexed by triples i < j < k.

    For each triple the defect is the coefficient of dZ_i dZ_j dZ_k in
    ``mu ^ d mu``,
    ``A_i (d_j A_k - d_k A_j) + A_j (d_k A_i - d_i A_k) + A_k (d_i A_j - d_j A_i)``
    with d_j the partial derivative in Z_j; the form is integrable exactly
    when every defect is the zero polynomial.

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
    """
    nv = form.n + 1
    ring = Packing(nv, 2 * form.d + 1)
    coeffs = [ring.pack_terms(a) for a in form.coeffs]

    @lru_cache(maxsize=None)
    def curl(j: int, k: int) -> sparse.Poly:
        # d_j A_k - d_k A_j, formed once per pair that a triple reads
        return sparse.add(sparse.diff(coeffs[k], ring, j), sparse.diff(coeffs[j], ring, k), -1)

    def defect(i: int, j: int, k: int) -> Poly:
        term = poly_mul(coeffs[i], curl(j, k))
        sparse.add(term, poly_mul(coeffs[j], curl(i, k)), -1)
        sparse.add(term, poly_mul(coeffs[k], curl(i, j)))
        return ring.unpack_terms(term)

    triples = list(combinations(range(1, nv), 3))
    pivot = next((p for p in range(1, nv) if coeffs[p]), None)
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
    """
    width = len(rows[0])
    coeffs: list[Poly] = [{} for _ in range(width)]
    for row, composed in zip(rows, substitute_linear(form.coeffs, rows, width)):
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
    if n < 2:
        raise ValueError("ambient projective dimension must be at least 2")
    if d < 0:
        raise ValueError("foliation degree must be nonnegative")
    return (n + 1) * comb(n + d + 1, n) - comb(n + d + 2, n)


@lru_cache(maxsize=None)
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
    """
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
    if n < 2:
        raise ValueError("ambient projective dimension must be at least 2")
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


def recover(proj: LinearProjection, mu: ProjectiveOneForm) -> ProjectiveOneForm | None:
    """Invert the linear pullback: find the plane form with the given image.

    Takes the first column triple of the projection matrix F whose 3 x 3
    block is invertible.  The section G of F with the adjugate's rows at the
    triple and zero rows elsewhere has ``F o G = det * identity``, so the
    linear pullback ``G^* mu`` is ``det^(d+2)`` times the only possible
    plane source.  The candidate is accepted only if it has zero radial
    contraction and ``F^*(G^* mu) = det^(d+2) mu`` exactly; otherwise the
    input was not a pullback and the result is ``None``.  Both pullbacks
    take the path of :func:`pullback_linear`, and the substitution along G
    forms no product for a monomial through a variable outside the triple.
    """
    if mu.n != proj.n:
        raise ValueError("form and projection have different ambient dimensions")
    found = _invertible_block(proj.rows)
    if found is None:  # rank 3 guarantees an invertible column triple
        raise RuntimeError("projection of rank 3 has no invertible column triple")
    cols, adj, det = found
    section = [adj[cols.index(v)] if v in cols else [0, 0, 0] for v in range(proj.n + 1)]
    raw = _pull_back(section, mu)
    if contract_radial(raw):
        return None
    factor = det ** (mu.d + 2)
    if _pull_back(proj.rows, raw).coeffs != mu.scale(factor).coeffs:
        return None
    return raw.scale(Fraction(1) / factor)
