"""Helpers on the action of permuting the variables, shared by the tests.

Polynomials here are dicts from exponent tuples to coefficients and linear
forms are coefficient tuples, the representations the tests build classes
and Chern roots from.
"""

from __future__ import annotations

from itertools import permutations


def symmetrize(terms):
    """The sum of every distinct image of each term under permuting the variables.

    Terms whose images cancel are dropped, so the result has no zero terms.
    """
    out = {}
    for e, c in terms.items():
        for image in set(permutations(e)):
            out[image] = out.get(image, 0) + c
    return {e: c for e, c in out.items() if c}


def orbits_of(forms):
    """Each form with its distinct images under permuting the variables."""
    return [image for form in forms for image in sorted(set(permutations(form)))]
