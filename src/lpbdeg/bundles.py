"""The Chern roots of the pulled-back-forms bundle, and its Chern character.

Over the Grassmannian of k-planes with tautological subbundle T, the
pulled-back-forms bundle of degree d is the kernel K of the contraction
S^{d+1}T (x) T -> S^{d+2}T, with S^j the j-th symmetric power.  By the
splitting principle it has a formal multiset of Chern roots, each an
integer linear form in the k Chern roots x_1..x_k of the *dual*
tautological subbundle, written as its coefficient tuple.  That convention
makes the elementary symmetric polynomials of the x_i the Schubert
hyperplane classes with the usual signs: the roots of T itself are the
-x_i.

The roots are in closed form: the -gamma.x over gamma in Z>=0^k with
|gamma| = d + 2, each with multiplicity nnz(gamma) - 1, where nnz counts
the nonzero entries.  Proof: the contraction is multiplication, which is
onto, so K = S^{d+1}T (x) T - S^{d+2}T in K-theory (Fulton,
*Intersection Theory*, ch. 3).  The roots of the tensor product are the
-(beta + e_i).x over |beta| = d + 1 and i = 1..k, and -gamma.x arises
there once for each i with gamma_i > 0, so nnz(gamma) times; S^{d+2}T
has it once.  The k vertices gamma = (d + 2) e_i have multiplicity 0, so
at k = 1 K is the zero bundle.

The roots are one map from form to multiplicity, computed by C-level
passes over whole coefficient columns, not root by root, and the Chern
character takes one pass over it; the dual bundle's map is the same map
with every column negated.  The map is symmetric under permuting the x_i;
:func:`~lpbdeg.polyring.power_sums` checks this once, for the Chern class
and the character alike.

Classes are built in the one ring of the Grassmannian,
:attr:`~lpbdeg.grassmann.GrassContext.ring`, ``Q[x] / (deg > g, x_i^m)``
over G(k, m): the integral reads no monomial with an exponent above m - 1,
and the monomials beyond that box span an ideal, so the power sums here
form only monomials in the box and the integral is unchanged (see
:mod:`lpbdeg.polyring`).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, repeat
from math import factorial
from operator import neg
from types import MappingProxyType
from typing import TYPE_CHECKING, Iterator, Mapping

from .exact import normalize
from .polyring import TruncatedPoly, power_sums

if TYPE_CHECKING:
    from .grassmann import GrassContext

# a Chern root: the integer coefficients of a linear form in x_1..x_k
Root = tuple[int, ...]


@dataclass(frozen=True)
class RootSet:
    """Formal Chern roots of a bundle.

    ``signed`` maps each distinct form, an integer coefficient tuple, to
    its nonzero multiplicity.  The pulled-back-forms bundle is an honest
    bundle, so no multiplicity is negative, but the classes read the map
    as signed.
    """

    signed: Mapping[Root, int]

    @property
    def virtual_rank(self) -> int:
        return sum(self.signed.values())

    # read-only parts, form -> |m|: only the benchmark's root count hook and the tests read them
    @property
    def positive(self) -> Mapping[Root, int]:
        return MappingProxyType({f: m for f, m in self.signed.items() if m > 0})

    @property
    def negative(self) -> Mapping[Root, int]:
        return MappingProxyType({f: -m for f, m in self.signed.items() if m < 0})


def chern_roots(d: int, ctx: GrassContext) -> RootSet:
    """Chern roots of the pulled-back-forms bundle of degree ``d`` over the given Grassmannian."""
    return RootSet(_signed_roots(d, ctx.k))


def _signed_roots(d: int, k: int) -> dict[Root, int]:
    """Map from each root -gamma.x, |gamma| = d + 2, to its multiplicity nnz(gamma) - 1.

    The gamma are walked by their first k - 2 entries, the head.  With r
    of d + 2 left over, the last two entries (t, r - t), t = 0 .. r, are
    one ``range`` per coordinate, and the head's entries a ``repeat``,
    zipped into r + 1 distinct forms.  Their multiplicities, nnz(head) - 1
    plus 1 at either end of the run and 2 inside it, are written into the
    map in the same C-level pass.  The k vertices, of multiplicity 0, are
    then deleted in place.
    """
    if k < 2:
        return {}
    top = d + 2
    out: dict[Root, int] = {}
    for head, r in _heads(k - 2, top):
        base = k - 3 - head.count(0)  # nnz(head) - 1
        forms = zip(*[repeat(c, r + 1) for c in head], range(0, -r - 1, -1), range(-r, 1))
        weights = chain((base + 1,), repeat(base + 2, r - 1), (base + 1,)) if r else (base,)
        out.update(zip(forms, weights))
    for i in range(k):
        del out[tuple(-top if j == i else 0 for j in range(k))]
    return out


def _heads(width: int, budget: int) -> Iterator[tuple[Root, int]]:
    """Each negated head (-gamma_1, .., -gamma_width) with |gamma| at most ``budget``, and what it leaves."""
    if not width:
        yield (), budget
        return
    for first in range(budget + 1):
        for rest, left in _heads(width - 1, budget - first):
            yield (-first, *rest), left


def dual(roots: Mapping[Root, int]) -> dict[Root, int]:
    """The roots of the dual bundle: every coefficient column negated in one C-level pass."""
    return dict(zip(zip(*[map(neg, column) for column in zip(*roots)]), roots.values()))


def chern_character_graded(roots: Mapping[Root, int], ctx: GrassContext, degree: int) -> list[TruncatedPoly]:
    """Graded pieces ch_0 .. ch_degree of the Chern character of the bundle with ``roots``.

    ``roots`` maps each form to its signed multiplicity, as
    :attr:`RootSet.signed` does.  Entry j of the list is ``sum m r^j / j!``
    over the roots r of multiplicity m: the power sums of the roots, from
    the moment pass :func:`~lpbdeg.polyring.power_sums`, each divided by
    j!.  The pieces live in ``ctx.ring``, and no monomial outside its box
    is formed.  A degree outside [0, ``ctx.g``] and roots not symmetric in
    x_1..x_k raise ``ValueError`` in :func:`~lpbdeg.polyring.power_sums`.
    """
    ring = ctx.ring
    sums = power_sums(roots, ring, degree)
    return [
        TruncatedPoly._raw(ring, {key: normalize(Fraction(c, factorial(j))) for key, c in p.items()})
        for j, p in enumerate(sums)
    ]
