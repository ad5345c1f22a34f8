"""Exact computation of degrees of linear pullback components of foliation
spaces, by integration of Segre classes over a Grassmannian.

The package is organized bottom-up:

* :mod:`lpbdeg.exact` -- rational scalars, univariate polynomials and
  interpolation.
* :mod:`lpbdeg.sparse` -- the packed-exponent sparse polynomial kernel that
  every multivariate product below runs on.
* :mod:`lpbdeg.polyring` -- truncated multivariate polynomial ring used for
  characteristic classes in Chern roots.
* :mod:`lpbdeg.symfunc` -- partitions and the character-sum route to Segre
  classes.
* :mod:`lpbdeg.bundles` -- the Chern roots of the pulled-back-forms bundle
  in closed form, as one map from linear form to multiplicity, and the
  Chern character of a root map.
* :mod:`lpbdeg.grassmann` -- integration of symmetric classes over G(k, m).
* :mod:`lpbdeg.foliation` -- the degree engine for linear pullback components
  and the interpolated closed forms.
* :mod:`lpbdeg.forms` -- explicit projective differential 1-forms, linear
  pullback and recovery.
* :mod:`lpbdeg.cli` -- command line front end with a persistent degree cache.

Everything is exact: coefficients are integers or ``fractions.Fraction``
values, and no floating point enters any computation.
"""

__version__ = "0.1.0"

from .exact import UniPoly, lagrange_interpolate
from .foliation import (
    InternalInconsistencyError,
    LpbInvariants,
    closed_form,
    degree_lpb,
    lpb_invariants,
    reference_formula,
)
from .forms import LinearProjection, ProjectiveOneForm, pullback_linear, recover

__all__ = [
    "InternalInconsistencyError",
    "LinearProjection",
    "LpbInvariants",
    "ProjectiveOneForm",
    "UniPoly",
    "__version__",
    "closed_form",
    "degree_lpb",
    "lagrange_interpolate",
    "lpb_invariants",
    "pullback_linear",
    "recover",
    "reference_formula",
]
