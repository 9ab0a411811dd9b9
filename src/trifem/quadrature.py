"""Numerical integration rules on the reference triangle and unit interval.

Triangle rules are collapsed (Duffy) tensor-product Gauss rules on the
reference triangle with vertices (0,0), (1,0), (0,1); interval rules are
Gauss-Legendre on [0,1].  All weights are positive and each rule is exact
for polynomials up to the requested total degree.  Each rule is built
once per degree and shared read-only.
"""

from dataclasses import dataclass
from functools import cache

import numpy as np

MAX_TRIANGLE_DEGREE = 12
MAX_INTERVAL_DEGREE = 24


@dataclass(frozen=True, eq=False)
class QuadRule:
    """Quadrature points and weights.

    ``points`` has shape (n, 2) for triangle rules and (n,) for interval
    rules.  Instances are immutable and safe to share: both arrays are
    read-only.  Rules compare and hash by identity.
    """

    points: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        self.points.flags.writeable = self.weights.flags.writeable = False


def _gauss01(npts):
    # Gauss-Legendre on [0, 1]
    x, w = np.polynomial.legendre.leggauss(npts)
    return 0.5 * (x + 1.0), 0.5 * w


@cache
def interval_rule(exact_degree: int) -> QuadRule:
    """Gauss-Legendre rule on [0, 1] exact for polynomials of the given degree."""
    if not 0 <= exact_degree <= MAX_INTERVAL_DEGREE:
        raise ValueError(f"interval rule degree {exact_degree} out of range "
                         f"[0, {MAX_INTERVAL_DEGREE}]")
    npts = exact_degree // 2 + 1  # 2*npts - 1 >= exact_degree
    x, w = _gauss01(npts)
    return QuadRule(points=x, weights=w)


@cache
def triangle_rule(exact_degree: int) -> QuadRule:
    """Collapsed tensor Gauss rule on the reference triangle.

    The Duffy substitution x = s, y = t*(1-s) carries a Jacobian (1-s), so
    the s-direction needs one extra degree of exactness.
    """
    if not 0 <= exact_degree <= MAX_TRIANGLE_DEGREE:
        raise ValueError(f"triangle rule degree {exact_degree} out of range "
                         f"[0, {MAX_TRIANGLE_DEGREE}]")
    ns = (exact_degree + 1) // 2 + 1   # integrates degree exact_degree + 1 in s
    nt = exact_degree // 2 + 1         # integrates degree exact_degree in t
    s, ws = _gauss01(ns)
    t, wt = _gauss01(nt)
    ss, tt = np.meshgrid(s, t, indexing="ij")
    x = ss.ravel()
    y = (tt * (1.0 - ss)).ravel()
    w = (np.outer(ws * (1.0 - s), wt)).ravel()
    return QuadRule(points=np.column_stack([x, y]), weights=w)
