"""Exact scalars, univariate polynomials and interpolation.

Scalars throughout the package are Python integers and
``fractions.Fraction`` values.  Fractions are arbitrary precision and always
normalized (lowest terms, positive denominator), so equality of scalars is
plain ``==`` and no tolerance is involved anywhere.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Sequence

Scalar = int | Fraction


def normalize(c: Scalar) -> Scalar:
    """``c`` as an ``int`` when it is an integral Fraction, else unchanged.

    Integral Fractions equal their ints, but arithmetic on them stays on the
    slower Fraction path; normalizing keeps integer work on ints.
    """
    if isinstance(c, Fraction) and c.denominator == 1:
        return c.numerator
    return c


class UniPoly:
    """Univariate polynomial with Fraction coefficients.

    ``coeffs[i]`` is the coefficient of the i-th power; trailing zeros are
    stripped on construction, so the zero polynomial has an empty coefficient
    tuple and degree -1.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[Scalar] = ()) -> None:
        cs = [Fraction(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("UniPoly is immutable")

    @classmethod
    def constant(cls, c: Scalar) -> UniPoly:
        return cls((c,))

    @classmethod
    def variable(cls) -> UniPoly:
        return cls((0, 1))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def coefficient(self, i: int) -> Fraction:
        if 0 <= i < len(self.coeffs):
            return self.coeffs[i]
        return Fraction(0)

    def __call__(self, x: Scalar) -> Fraction:
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, UniPoly):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(("UniPoly", self.coeffs))

    def __add__(self, other: UniPoly) -> UniPoly:
        if not isinstance(other, UniPoly):
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return UniPoly(out)

    def __neg__(self) -> UniPoly:
        return UniPoly(tuple(-c for c in self.coeffs))

    def __sub__(self, other: UniPoly) -> UniPoly:
        if not isinstance(other, UniPoly):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other: UniPoly | Scalar) -> UniPoly:
        if isinstance(other, (int, Fraction)):
            return UniPoly(tuple(c * other for c in self.coeffs))
        if not isinstance(other, UniPoly):
            return NotImplemented
        if not self.coeffs or not other.coeffs:
            return UniPoly()
        out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return UniPoly(out)

    def __rmul__(self, other: Scalar) -> UniPoly:
        if isinstance(other, (int, Fraction)):
            return self * other
        return NotImplemented

    def __pow__(self, exp: int) -> UniPoly:
        if exp < 0:
            raise ValueError("negative power of a polynomial")
        out = UniPoly.constant(1)
        base = self
        while exp:
            if exp & 1:
                out = out * base
            base = base * base
            exp >>= 1
        return out

    def __repr__(self) -> str:
        return f"UniPoly({list(self.coeffs)!r})"


def lagrange_interpolate(points: Sequence[tuple[Scalar, Scalar]]) -> UniPoly:
    """Unique polynomial of degree < len(points) through the given points.

    Uses Newton divided differences, which keeps the arithmetic exact and
    the work quadratic in the number of nodes.  Raises ``ValueError`` if two
    points share an abscissa.
    """
    if not points:
        return UniPoly()
    xs = [Fraction(x) for x, _ in points]
    ys = [Fraction(y) for _, y in points]
    if len(set(xs)) != len(xs):
        raise ValueError("interpolation nodes must be distinct")
    n = len(xs)
    table = list(ys)
    newton = [table[0]]
    for j in range(1, n):
        for i in range(n - 1, j - 1, -1):
            table[i] = (table[i] - table[i - 1]) / (xs[i] - xs[i - j])
        newton.append(table[j])
    poly = UniPoly()
    basis = UniPoly.constant(1)
    x = UniPoly.variable()
    for j in range(n):
        poly = poly + basis * newton[j]
        basis = basis * (x - UniPoly.constant(xs[j]))
    return poly
