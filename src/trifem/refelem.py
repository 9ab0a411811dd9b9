"""Reference-cell nodal bases for triangular scalar elements.

Supported families: Lagrange (degree 1-5), cubic Hermite, Morley, quintic
Argyris and Bell.  Nodal bases are represented by coefficient matrices over
an orthonormal polynomial basis of the reference triangle with vertices
(0,0), (1,0), (0,1); tabulation of values and derivatives is analytic.

Reference conventions: edge i is opposite vertex i, reference normals point
out of the triangle, reference tangents run from the lower-numbered to the
higher-numbered endpoint of each edge.
"""

from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from math import factorial, lcm
from numbers import Integral

import numpy as np

from .quadrature import interval_rule

MAX_POLY_DEGREE = 6
_MAX_DERIV_ORDER = 3  # internal; the public tabulate API stops at 2

REF_VERTICES = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
EDGE_VERTICES = ((1, 2), (0, 2), (0, 1))
REF_NORMALS = np.array([[1.0, 1.0], [-1.0, 0.0], [0.0, -1.0]])
REF_NORMALS[0] /= np.sqrt(2.0)
REF_TANGENTS = np.array([[-1.0, 1.0], [0.0, 1.0], [1.0, 0.0]])
REF_TANGENTS[0] /= np.sqrt(2.0)
REF_EDGE_MIDPOINTS = np.array([[0.5, 0.5], [0.0, 0.5], [0.5, 0.0]])
BARYCENTER = np.array([1.0 / 3.0, 1.0 / 3.0])

FAMILY_DEGREES = {"hermite": 3, "morley": 2, "argyris": 5, "bell": 5}


def ref_edge_points(e, s):
    """Points REF_VERTICES[a] + s (REF_VERTICES[b] - REF_VERTICES[a]) of
    reference edge e = (a, b) at edge parameters s (n,), shape (n, 2)."""
    a, b = EDGE_VERTICES[e]
    return (REF_VERTICES[a][None, :]
            + s[:, None] * (REF_VERTICES[b] - REF_VERTICES[a])[None, :])


def derivative_alphas(order: int):
    """Multi-indices (ax, ay) with |alpha| = order, x-major."""
    return [(order - j, j) for j in range(order + 1)]


def _monomials(degree):
    return [(t - j, j) for t in range(degree + 1) for j in range(t + 1)]


def _exact_moment(a, b):
    # integral of x^a y^b over the reference triangle
    return Fraction(factorial(a) * factorial(b), factorial(a + b + 2))


def _exact_gram_schmidt(gram):
    """Exact Gram-Schmidt of the unit vectors e_k under G: the u_k and <u_k, u_k>.

    Gram-Schmidt of the e_k is Gaussian elimination without pivoting on
    [G | I]: row k ends as [G u_k | u_k], and (G u_k)[k] = <u_k, u_k>.  It
    runs fraction-free (Bareiss) on s G, scaled to integers by the least
    common denominator s: every entry stays an integer, and row k ends as
    d_{k-1} times its Gaussian row, where d_k is the leading minor of order
    k + 1 of s G and its pivot.  Exact, so the Fractions are those of any
    exact Gram-Schmidt.
    """
    n = len(gram)
    s = lcm(*(g.denominator for row in gram for g in row))
    rows = [[g.numerator * (s // g.denominator) for g in row]
            + [int(i == k) for i in range(n)] for k, row in enumerate(gram)]
    prev = 1
    for k, rk in enumerate(rows):
        p = rk[k]
        for i in range(k + 1, n):
            ri, m = rows[i], rows[i][k]
            # row i of the identity block is zero past column n + i
            ri[k + 1:n + i + 1] = [(p * a - m * b) // prev for a, b in
                                   zip(ri[k + 1:n + i + 1], rk[k + 1:n + i + 1])]
        prev = p
    vectors, sq_norms, prev = [], [], 1
    for k, rk in enumerate(rows):
        vectors.append([Fraction(x, prev) for x in rk[n:]])
        sq_norms.append(Fraction(rk[k], prev * s))
        prev = rk[k]
    return vectors, sq_norms


class PolyBasis:
    """Orthonormal polynomial basis of total degree <= p on the reference triangle.

    Built by exact (rational) Gram-Schmidt on monomials, normalized w.r.t.
    the plain area measure, so the degree-0 member has value sqrt(2).
    Members are stored as monomial coefficient rows; evaluation and
    differentiation are exact for polynomials.
    """

    def __init__(self, degree: int):
        if not 0 <= degree <= MAX_POLY_DEGREE:
            raise ValueError(f"polynomial degree {degree} out of range "
                             f"[0, {MAX_POLY_DEGREE}]")
        self.degree = degree
        self.monomials = _monomials(degree)
        self.dim = len(self.monomials)
        self._index = {m: i for i, m in enumerate(self.monomials)}

        # moment matrix of monomial products, exact
        n = self.dim
        moments = [[_exact_moment(a1 + a2, b1 + b2)
                    for (a2, b2) in self.monomials]
                   for (a1, b1) in self.monomials]

        basis, sq_norms = _exact_gram_schmidt(moments)
        norms = np.sqrt(np.array(sq_norms, dtype=float))
        self.coeffs = np.array(basis, dtype=float) / norms[:, None]

        # first-derivative operators on monomial coefficient vectors
        dx = np.zeros((n, n))
        dy = np.zeros((n, n))
        for (a, b), j in self._index.items():
            if a > 0:
                dx[self._index[(a - 1, b)], j] = a
            if b > 0:
                dy[self._index[(a, b - 1)], j] = b
        self._dx, self._dy = dx, dy
        for a in (self.coeffs, dx, dy):
            a.flags.writeable = False

    def _alpha_coeffs(self, alpha):
        c = self.coeffs
        ax, ay = alpha
        for _ in range(ax):
            c = c @ self._dx.T
        for _ in range(ay):
            c = c @ self._dy.T
        return c

    def tabulate(self, points, max_order: int = 0):
        """Values and derivatives at points, as a dict alpha -> (dim, npts)."""
        if max_order > _MAX_DERIV_ORDER:
            raise ValueError(f"derivative order {max_order} unsupported")
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        vand = np.array([pts[:, 0] ** a * pts[:, 1] ** b
                         for (a, b) in self.monomials])
        out = {}
        for order in range(max_order + 1):
            for alpha in derivative_alphas(order):
                out[alpha] = self._alpha_coeffs(alpha) @ vand
        return out


@cache
def build_poly_basis(degree: int) -> PolyBasis:
    """Orthonormal basis spanning polynomials of total degree <= degree,
    built once per degree and shared read-only (Argyris and Bell share the
    quintic one)."""
    return PolyBasis(degree)


@dataclass(frozen=True)
class NodalFunctional:
    """One degree of freedom on the reference cell: the partial derivative
    d^alpha at point, alpha = (ax, ay) of order at most 2, or, with normal
    set, the derivative along the normal of reference edge entity[1].
    entity is the (dimension, local index) the DoF attaches to.
    """

    point: tuple
    entity: tuple
    alpha: tuple = (0, 0)
    normal: bool = False

    def __post_init__(self):
        x, y = self.point
        if min(x, y) < -1e-14 or x + y > 1.0 + 1e-14:
            raise ValueError(f"functional point {self.point} outside reference triangle")
        if self.alpha not in _FUNCTIONAL_ALPHAS:
            raise ValueError(f"functional multi-index {self.alpha} is not one "
                             "of order at most 2")
        if self.normal and (self.entity[0] != 1 or self.alpha != (0, 0)):
            raise ValueError("an edge-normal derivative needs an edge entity "
                             "and alpha (0, 0)")

    @property
    def derivative_order(self) -> int:
        return 1 if self.normal else sum(self.alpha)


_FUNCTIONAL_ALPHAS = tuple(a for k in range(3) for a in derivative_alphas(k))


def apply_functionals(functionals, tab, normals) -> np.ndarray:
    """Functional k applied to column k of a tabulation: tab maps alpha to
    arrays (..., n), a functional reads its own alpha's entry, and an
    edge-normal one n . (tab[(1, 0)], tab[(0, 1)]) along its edge's normal
    in normals (..., 3, 2).  Returns (..., n)."""
    cols = []
    for k, f in enumerate(functionals):
        if f.normal:
            n = np.moveaxis(normals[..., f.entity[1], :], -1, 0)
            cols.append(n[0] * tab[(1, 0)][..., k] + n[1] * tab[(0, 1)][..., k])
        else:
            cols.append(tab[f.alpha][..., k])
    return np.stack(cols, axis=-1)


def _vandermonde(functionals, poly: PolyBasis) -> np.ndarray:
    """Generalized Vandermonde: row k is functional k applied to each member,
    with the members tabulated at one functional's point at a time."""
    order = max(f.derivative_order for f in functionals)
    tabs = [poly.tabulate([f.point], max_order=order) for f in functionals]
    tab = {alpha: np.concatenate([t[alpha] for t in tabs], axis=1)
           for alpha in tabs[0]}
    return apply_functionals(functionals, tab, REF_NORMALS).T


def legendre4(sigma):
    """Degree-4 Legendre polynomial on [0, 1] (edge parameter coordinates)."""
    t = 2.0 * np.asarray(sigma) - 1.0
    return (35.0 * t ** 4 - 30.0 * t ** 2 + 3.0) / 8.0


def _edge_quartic_moment_rows(poly: PolyBasis) -> np.ndarray:
    """Moments of the normal derivative against the quartic Legendre mode.

    Row i is u -> integral over reference edge i of (n_i . grad u) P4(sigma)
    d sigma in the unit edge parametrization.  Used to constrain Bell's
    function space to cubic normal derivatives along each edge.
    """
    rule = interval_rule(2 * poly.degree)
    rows = np.zeros((3, poly.dim))
    for e in range(3):
        tab = poly.tabulate(ref_edge_points(e, rule.points), max_order=1)
        dn = REF_NORMALS[e, 0] * tab[(1, 0)] + REF_NORMALS[e, 1] * tab[(0, 1)]
        rows[e] = dn @ (rule.weights * legendre4(rule.points))
    return rows


@dataclass(frozen=True)
class ReferenceElement:
    """A nodal finite element on the reference triangle.

    coeffs has one row per basis function that the passes pull back, in
    the orthonormal PolyBasis: the nodal ones, then for Bell the three duals
    of the quartic edge-mode constraints, so that its 21 rows span the full
    quintic space used when mapping Bell cells.  bell_tables holds that
    space's geometry-independent arrays (see _bell_tables).  Instances are
    shared read-only, their arrays included.
    """

    family: str
    degree: int
    functionals: tuple
    coeffs: np.ndarray
    poly: PolyBasis
    bell_tables: tuple = None

    def __post_init__(self):
        for a in (self.coeffs, *(self.bell_tables or ())):
            a.flags.writeable = False

    @property
    def n_dofs(self) -> int:
        return len(self.functionals)

    def entity_dofs(self):
        """dict dim -> {entity index -> list of local DoF indices}."""
        out = {0: {v: [] for v in range(3)},
               1: {e: [] for e in range(3)},
               2: {0: []}}
        for i, f in enumerate(self.functionals):
            dim, idx = f.entity
            out[dim][idx].append(i)
        return out

    def describe(self) -> str:
        if self.family == "lagrange":
            return f"lagrange:{self.degree}"
        return self.family


def _lagrange_functionals(k):
    fns = [NodalFunctional(tuple(REF_VERTICES[v]), (0, v)) for v in range(3)]
    for e in range(3):
        for pt in ref_edge_points(e, np.arange(1, k) / k):
            fns.append(NodalFunctional(tuple(pt), (1, e)))
    for i in range(1, k):
        for j in range(1, k - i):
            fns.append(NodalFunctional((i / k, j / k), (2, 0)))
    return fns


def _vertex_jet_functionals(v, order):
    return [NodalFunctional(tuple(REF_VERTICES[v]), (0, v), alpha)
            for k in range(order + 1) for alpha in derivative_alphas(k)]


def _edge_normal_functionals():
    return [NodalFunctional(tuple(REF_EDGE_MIDPOINTS[e]), (1, e), normal=True)
            for e in range(3)]


def build_reference_element(family: str, degree: int = None) -> ReferenceElement:
    """Construct the nodal basis of the requested element family.

    The coefficient matrix is obtained by inverting the generalized
    Vandermonde matrix of the nodal functionals; Bell additionally imposes
    the three quartic-edge-mode constraints to square up its 18x21 system.
    """
    family = family.lower()
    if degree is not None and (isinstance(degree, bool)
                               or not isinstance(degree, Integral)):
        raise ValueError(f"element degree {degree!r} is not an integer")
    if family == "lagrange":
        if degree is None or not 1 <= degree <= 5:
            raise ValueError(f"lagrange degree {degree} out of range [1, 5]")
        k = degree
        fns = _lagrange_functionals(k)
    elif family in FAMILY_DEGREES:
        k = FAMILY_DEGREES[family]
        if degree is not None and degree != k:
            raise ValueError(f"{family} is fixed at degree {k}")
        if family == "hermite":
            fns = sum((_vertex_jet_functionals(v, 1) for v in range(3)), [])
            fns.append(NodalFunctional(tuple(BARYCENTER), (2, 0)))
        elif family == "morley":
            fns = sum((_vertex_jet_functionals(v, 0) for v in range(3)), [])
            fns += _edge_normal_functionals()
        elif family == "argyris":
            fns = sum((_vertex_jet_functionals(v, 2) for v in range(3)), [])
            fns += _edge_normal_functionals()
        else:  # bell
            fns = sum((_vertex_jet_functionals(v, 2) for v in range(3)), [])
    else:
        raise ValueError(f"unsupported element family {family!r}")

    poly = build_poly_basis(k)
    B = _vandermonde(fns, poly)
    if family == "bell":
        B = np.vstack([B, _edge_quartic_moment_rows(poly)])
    if np.linalg.cond(B) > 1e12:
        raise ValueError(f"singular nodal system for {family}: "
                         "inconsistent functional set")
    C = np.linalg.inv(B.T)
    return ReferenceElement(family=family, degree=k, functionals=tuple(fns),
                            coeffs=C, poly=poly,
                            bell_tables=_bell_tables(poly, C)
                            if family == "bell" else None)


def _bell_tables(poly, coeffs):
    """What the Bell map reads of the enriched quintic basis coeffs: its
    vertex jets (3, 6, 21), in the order of Bell's vertex functionals, and
    per edge the weighted quartic-Legendre moments of its x and y reference
    derivatives (3, 2, 21)."""
    vertex_tab = tabulate_coeffs(poly, coeffs, REF_VERTICES, 2)
    jets = np.stack([t.T for t in vertex_tab.values()], axis=1)
    rule = interval_rule(2 * poly.degree)
    leg = rule.weights * legendre4(rule.points)
    moments = np.zeros((3, 2, len(coeffs)))
    for e in range(3):
        etab = tabulate_coeffs(poly, coeffs, ref_edge_points(e, rule.points), 1)
        moments[e] = etab[(1, 0)] @ leg, etab[(0, 1)] @ leg
    return jets, moments


def tabulate_coeffs(poly: PolyBasis, coeffs: np.ndarray, points,
                    max_order: int) -> dict:
    """Tabulate an arbitrary coefficient-row basis (internal, allows order 3)."""
    ptab = poly.tabulate(points, max_order=max_order)
    return {alpha: coeffs @ v for alpha, v in ptab.items()}


def tabulate(element: ReferenceElement, points, max_order: int = 0) -> dict:
    """Tabulate nodal basis values and derivatives (orders 0..max_order <= 2),
    as a dict alpha -> (n_basis, n_points).

    Derivatives are computed by differentiating the polynomial basis
    analytically and contracting with the nodal coefficients.
    """
    if max_order > 2:
        raise ValueError("tabulate supports derivative orders up to 2")
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    if (pts.min() < -1e-12 or (pts[:, 0] + pts[:, 1]).max() > 1.0 + 1e-12):
        raise ValueError("tabulation points must lie in the closed reference triangle")
    return tabulate_coeffs(element.poly, element.coeffs[:element.n_dofs], pts, max_order)
