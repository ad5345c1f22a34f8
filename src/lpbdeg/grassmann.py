"""Integration of symmetric classes over a Grassmannian G(k, m).

A degree-g symmetric polynomial in the k Chern roots of the dual
tautological subbundle, with g = k(m - k) the dimension of the
Grassmannian, integrates to a number.  The implementation uses the
alternant form of the Schubert-basis expansion: multiply the class by the
Vandermonde determinant ``prod_{i<j} (x_i - x_j)`` and read off the
coefficient of ``x_1^{m-1} x_2^{m-2} ... x_k^{m-k}``.  That coefficient is
the coefficient of the top Schubert class, i.e. the integral.

The normalization is pinned by the Pluecker degree of G(k, m) in its
Pluecker embedding, ``integrate(e_1^g)``, which must come out to the
classical values (1, 5 and 42 for 3-planes in dimensions 4, 5, 6).

The Vandermonde has every exponent below k, and the target monomial every
exponent at most m - 1, so the integral reads only class coefficients whose
exponents are all at most m - 1 (Fulton, *Intersection Theory*, Ch. 14).
That bound is :attr:`GrassContext.box`.  Classes over this space are
computed in the ring ``Q[x] / (deg > g, x_i^m)``: the monomials with an
exponent of m or more span an ideal, so dropping them commutes with every
ring operation and leaves the integral exact.  Every truncated ring carries
a box, by default its cap, and :meth:`GrassContext.integrate` accepts a
class only when that box reaches m - 1.

The integral needs a symmetric class, and every
:class:`~lpbdeg.polyring.TruncatedPoly` is one: the invariant is checked
where terms enter the type (see :mod:`lpbdeg.polyring`), not here.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from . import sparse
from .exact import Scalar
from .polyring import TruncatedPoly, elementary_symmetric


@dataclass(frozen=True)
class GrassContext:
    """The Grassmannian of k-dimensional subspaces of an m-dimensional space.

    ``k`` is the number of Chern root variables used by every class over
    this space; ``g`` is the dimension, which is also the truncation cap
    needed to integrate, and ``box`` bounds the exponents it reads.
    """

    k: int
    m: int

    def __post_init__(self) -> None:
        if self.k < 1 or self.m <= self.k:
            raise ValueError("need m > k >= 1 for a positive-dimensional ambient space")

    @property
    def g(self) -> int:
        return self.k * (self.m - self.k)

    @property
    def box(self) -> int:
        """The largest single exponent :meth:`integrate` reads, m - 1."""
        return self.m - 1

    def integrate(self, cls: TruncatedPoly) -> Scalar:
        """Integral over the Grassmannian of a degree-g symmetric class.

        The class is symmetric by its type.  It must be in the k root
        variables and homogeneous of degree g (the zero polynomial counts as
        homogeneous of every degree and integrates to 0), and its ring must
        keep every exponent up to :attr:`box`: a smaller box has dropped
        coefficients the integral reads, which raises ``ValueError``.
        """
        if cls.nvars != self.k:
            raise ValueError(f"class has {cls.nvars} variables, expected {self.k}")
        if cls.box < self.box:
            raise ValueError(f"class ring keeps exponents up to {cls.box}, the integral reads up to {self.box}")
        if not cls.is_homogeneous(self.g):
            raise ValueError(f"class is not homogeneous of degree {self.g}")
        ring = cls.ring
        # expand the Vandermonde determinant, then pair each of its k! terms
        # with the class term completing it to the target monomial.  When
        # target - key is a class key, all three keys are valid packings, and
        # field sums equal to degree fields leave no room for a carry, so the
        # exponents add field by field.
        vandermonde: sparse.Poly = {0: 1}
        for i in range(self.k):
            for j in range(i + 1, self.k):
                vandermonde = sparse.mul(vandermonde, {ring.var(i): 1, ring.var(j): -1})
        target = ring.pack(self.m - 1 - i for i in range(self.k))
        total: Scalar = 0
        for key, c in vandermonde.items():
            total += c * cls.terms.get(target - key, 0)
        return total

    def plucker_degree(self) -> int:
        """Degree of the Grassmannian in its Pluecker embedding.

        This integrates ``e_1^g`` and doubles as the calibration check for
        the integration normalization.
        """
        e1 = elementary_symmetric(self.k, self.g, 1)
        value = self.integrate(e1**self.g)
        if isinstance(value, Fraction):
            if value.denominator != 1:
                raise ArithmeticError("Pluecker degree came out non-integral")
            return int(value)
        return int(value)
