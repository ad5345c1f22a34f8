"""Exact scalars, univariate polynomials and interpolation.

Scalars throughout the package are Python integers and
``fractions.Fraction`` values.  Fractions are arbitrary precision and always
normalized (lowest terms, positive denominator), so equality of scalars is
plain ``==`` and no tolerance is involved anywhere.  :func:`normalize` is the
one check on incoming scalars; an integral value leaves it as an ``int``.
:func:`require` is the one check on integer arguments: a plain ``int`` in
range.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Sequence

Scalar = int | Fraction


def normalize(c: Scalar) -> Scalar:
    """``c`` as an ``int`` when it is an integral Fraction, else unchanged.

    Integral Fractions equal their ints, but arithmetic on them stays on the
    slower Fraction path; normalizing keeps integer work on ints.  Anything
    but an ``int`` or a ``Fraction`` (a float, a ``Decimal``, or a ``bool``
    or another subclass of ``int``) raises ``ValueError``, so no inexact
    value enters through a normalized entry, and no ``True`` prints where a
    1 belongs.
    """
    if type(c) is int:
        return c
    if isinstance(c, Fraction):
        return c.numerator if c.denominator == 1 else c
    raise ValueError(f"{c!r} is not an exact scalar (int or Fraction)")


def require(value: int, name: str, least: int, message: str) -> None:
    """Refuse ``value`` unless it is a plain ``int`` of at least ``least``.

    The test is ``type(value) is int``, as in :func:`normalize`, so a
    ``bool``, a float or an integral ``Fraction`` raises ``ValueError``, and
    so does a value below ``least``, with ``message``, before any work.
    This is the one check on the integer arguments (dimensions and degrees)
    of the package's entry points.
    """
    if type(value) is not int:
        raise ValueError(f"{name} must be an int, not {value!r}")
    if value < least:
        raise ValueError(message)


class UniPoly:
    """Univariate polynomial with exact coefficients.

    ``coeffs[i]`` is the coefficient of the i-th power, passed through
    :func:`normalize` like the argument and value of a call; trailing zeros
    are stripped on construction, so the zero polynomial has an empty
    coefficient tuple and degree -1.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[Scalar] = ()) -> None:
        cs = [normalize(c) for c in coeffs]
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

    def coefficient(self, i: int) -> Scalar:
        if 0 <= i < len(self.coeffs):
            return self.coeffs[i]
        return 0

    def __call__(self, x: Scalar) -> Scalar:
        x = normalize(x)
        acc: Scalar = 0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return normalize(acc)

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

    def __mul__(self, other: UniPoly | Scalar) -> UniPoly:
        if not isinstance(other, UniPoly):
            other = normalize(other)
            return UniPoly(tuple(c * other for c in self.coeffs))
        if not self.coeffs or not other.coeffs:
            return UniPoly()
        out: list[Scalar] = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return UniPoly(out)

    def __rmul__(self, other: Scalar) -> UniPoly:
        return self * other

    def __repr__(self) -> str:
        return f"UniPoly({list(self.coeffs)!r})"


def lagrange_interpolate(points: Sequence[tuple[Scalar, Scalar]]) -> UniPoly:
    """Unique polynomial of degree < len(points) through the given points.

    Nodes and values pass through :func:`normalize`.  Newton divided
    differences, expanded from the inside out by Horner's rule, keep the
    work quadratic in the number of nodes.  Raises ``ValueError`` if two
    points share an abscissa.
    """
    xs = [normalize(x) for x, _ in points]
    table = [normalize(y) for _, y in points]
    if len(set(xs)) != len(xs):
        raise ValueError("interpolation nodes must be distinct")
    n = len(xs)
    for j in range(1, n):
        for i in range(n - 1, j - 1, -1):
            table[i] = Fraction(table[i] - table[i - 1]) / (xs[i] - xs[i - j])
    # no points leave no coefficients: the zero polynomial
    coeffs = table[-1:]
    for j in range(n - 2, -1, -1):
        # coeffs <- coeffs * (x - x_j) + table[j], lowest power first
        coeffs = [a - xs[j] * b for a, b in zip([table[j], *coeffs], [*coeffs, 0])]
    return UniPoly(coeffs)
