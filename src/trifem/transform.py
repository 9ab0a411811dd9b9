"""Per-cell transformation matrices relating physical nodal bases to pullbacks.

For each element family this module builds the matrix M with
psi_i = sum_j M_ij (psihat_j o F), where F maps the physical cell to the
reference cell and J = d xhat / d x is its Jacobian (as provided by
mesh.CellGeometry).  Affine-equivalent families (Lagrange) get the
identity; Hermite gets per-vertex Jacobian blocks; Morley and Argyris fill
V = M^T in place from the edge blocks B^i = Ghat_i J^{-T} G_i^T; Bell
restricts a mapped enriched quintic.

Every builder takes the geometry of one cell or of a batch of cells
(mesh.batch_geometry) and returns M as an array with the same leading
axes, so a single cell is the batch of one and there is one code path.
cell_transform is the one entry point: it picks the family's builder,
scales the rows by the diagonal S that scaling_diagonal reads off the
element's functionals, and returns M in a TransformMatrix.

All constructions are pinned by nodal duality: applying the physical
functionals to the transformed basis must give the identity.
"""

from dataclasses import dataclass

import numpy as np

from .mesh import CellGeometry
from .refelem import EDGE_VERTICES, REF_NORMALS, REF_TANGENTS, ReferenceElement


@dataclass
class TransformMatrix:
    """Transformation: matrix has shape (..., n_dofs, n_tab_basis)."""

    matrix: np.ndarray


def _eye(n, batch):
    return np.broadcast_to(np.eye(n), batch + (n, n)).copy()


def edge_blocks(geom: CellGeometry) -> np.ndarray:
    """B^i = Ghat_i J^{-T} G_i^T coupling (normal, tangent) derivative pairs,
    shape (..., 3, 2, 2)."""
    Ghat = np.stack([REF_NORMALS, REF_TANGENTS], axis=1)
    G = np.stack([geom.normals, geom.tangents], axis=-2)
    JinvT = np.swapaxes(geom.Jinv, -1, -2)[..., None, :, :]
    return Ghat @ JinvT @ np.swapaxes(G, -1, -2)


_VOIGT_UNITS = np.array([[[1.0, 0.0], [0.0, 0.0]],
                         [[0.0, 1.0], [1.0, 0.0]],
                         [[0.0, 0.0], [0.0, 1.0]]])


def hessian_pushforward(J: np.ndarray) -> np.ndarray:
    """3x3 matrix T with voigt(J^T H J) = T voigt(H), Voigt order (xx, xy, yy)."""
    J = J[..., None, :, :]
    P = np.swapaxes(J, -1, -2) @ _VOIGT_UNITS @ J
    return np.stack([P[..., 0, 0], P[..., 0, 1], P[..., 1, 1]], axis=-2)


def hermite_M(geom: CellGeometry) -> np.ndarray:
    """Cubic Hermite: value rows untouched, per-vertex gradient pairs mapped.

    The gradient block is the Jacobian of the reference-to-physical map
    (J^{-1}), which is what nodal duality requires: a unit physical slope
    needs a 1/slope-of-pullback coefficient.
    """
    M = _eye(10, geom.J.shape[:-2])
    for v in range(3):
        M[..., 3 * v + 1:3 * v + 3, 3 * v + 1:3 * v + 3] = geom.Jinv
    return M


def morley_M(geom: CellGeometry) -> np.ndarray:
    """Morley: closed-form V with entries -+B^i_01/l_i and B^i_00; M = V^T."""
    V = _eye(6, geom.J.shape[:-2])
    B = edge_blocks(geom)
    for e, (a, b) in enumerate(EDGE_VERTICES):
        ell = geom.edge_lengths[..., e]
        V[..., 3 + e, 3 + e] = B[..., e, 0, 0]
        V[..., 3 + e, a] = -B[..., e, 0, 1] / ell
        V[..., 3 + e, b] = B[..., e, 0, 1] / ell
    return np.swapaxes(V, -1, -2)


def morley_three_step(geom: CellGeometry):
    """Factors (E, VC, D) of Morley's V = E VC D via the extended node set
    (tangential midpoint derivatives), the cross-check of morley_M.

    D computes the tangential derivative of a quadratic at each edge midpoint
    by differencing the endpoint values; VC is block diagonal with B^i on the
    extended derivative pairs; E selects the 6 Morley nodes.
    """
    batch = geom.J.shape[:-2]
    B = edge_blocks(geom)
    D = np.zeros(batch + (9, 6))
    VC = _eye(9, batch)
    E = np.zeros((6, 9))
    D[..., :3, :3] = np.eye(3)
    E[:3, :3] = np.eye(3)
    for e, (a, b) in enumerate(EDGE_VERTICES):
        ell = geom.edge_lengths[..., e]
        D[..., 3 + 2 * e, 3 + e] = 1.0
        D[..., 4 + 2 * e, a] = -1.0 / ell
        D[..., 4 + 2 * e, b] = 1.0 / ell
        VC[..., 3 + 2 * e:5 + 2 * e, 3 + 2 * e:5 + 2 * e] = B[..., e, :, :]
        E[3 + e, 3 + 2 * e] = 1.0
    return E, VC, D


# midpoint first derivative of a 1D quintic from endpoint jets on [0, l]:
# p'(l/2) = 15/8 (p(b)-p(a))/l - 7/16 (p'(a)+p'(b)) - l/32 (p''(a)-p''(b))
_Q5_VALUE, _Q5_SLOPE, _Q5_CURV = 15.0 / 8.0, 7.0 / 16.0, 1.0 / 32.0


def argyris_M(geom: CellGeometry) -> np.ndarray:
    """Argyris: V = E VC D filled in place, M = V^T.  Edge row 18 + e takes
    B^e_00 on its normal DoF and B^e_01 times the quintic midpoint rule for
    the tangential derivative on the endpoint jets."""
    V = _eye(21, geom.J.shape[:-2])
    B = edge_blocks(geom)
    JinvT = np.swapaxes(geom.Jinv, -1, -2)
    Theta = np.linalg.inv(hessian_pushforward(geom.J))
    for v in range(3):
        V[..., 6 * v + 1:6 * v + 3, 6 * v + 1:6 * v + 3] = JinvT
        V[..., 6 * v + 3:6 * v + 6, 6 * v + 3:6 * v + 6] = Theta
    for e, (a, b) in enumerate(EDGE_VERTICES):
        ell = geom.edge_lengths[..., e, None]
        t = geom.tangents[..., e, :]
        tt = np.stack([t[..., 0] ** 2, 2.0 * t[..., 0] * t[..., 1],
                       t[..., 1] ** 2], axis=-1)
        w = B[..., e, 0, 1, None]
        row = V[..., 18 + e, :]
        row[..., 18 + e] = B[..., e, 0, 0]
        row[..., 6 * a] = w[..., 0] * (-_Q5_VALUE / ell[..., 0])
        row[..., 6 * b] = w[..., 0] * (_Q5_VALUE / ell[..., 0])
        row[..., 6 * a + 1:6 * a + 3] = row[..., 6 * b + 1:6 * b + 3] = \
            w * (-_Q5_SLOPE * t)
        row[..., 6 * a + 3:6 * a + 6] = w * (-_Q5_CURV * ell * tt)
        row[..., 6 * b + 3:6 * b + 6] = w * (_Q5_CURV * ell * tt)
    # the selector products stored every zero as +0; the -0 that inv leaves
    # in Theta and that w * -0 makes would print as "-0" in dump-m
    V += 0.0
    # a transposed view of a C-ordered V, as the products returned: the
    # congruence matmul's summation order depends on the layout of M
    return np.swapaxes(V, -1, -2)


def bell_M(geom: CellGeometry, element: ReferenceElement) -> np.ndarray:
    """Bell: map the enriched quintic, keep the 18 combinations that match the
    vertex functionals and have vanishing quartic edge modes (18 x 21).

    Row k of W is physical functional k (vertex jets, then quartic edge
    modes) applied to the pulled-back enriched quintic basis."""
    if element.family != "bell":
        raise ValueError("bell_M needs a bell reference element")
    jets, moments = element.bell_tables
    J = geom.J
    T = hessian_pushforward(J)
    JT = np.swapaxes(J, -1, -2)

    W = np.zeros(J.shape[:-2] + (21, 21))
    for v in range(3):
        W[..., 6 * v, :] = jets[v, 0]
        W[..., 6 * v + 1:6 * v + 3, :] = JT @ jets[v, 1:3]
        W[..., 6 * v + 3:6 * v + 6, :] = T @ jets[v, 3:6]

    for e in range(3):
        # n . grad_phys = (J n) . grad_ref
        dvec = (J @ geom.normals[..., e, :, None])[..., 0]
        W[..., 18 + e, :] = (dvec[..., 0, None] * moments[e, 0]
                             + dvec[..., 1, None] * moments[e, 1])
    return np.linalg.inv(np.swapaxes(W, -1, -2))[..., :18, :]


def scaling_diagonal(element: ReferenceElement, geom: CellGeometry) -> np.ndarray:
    """Diagonal S equilibrating basis magnitudes across DoF kinds, read off
    the element's functionals.

    Value DoFs keep 1; a DoF of derivative order k at vertex v gets
    h(v)^{-k} and an edge-normal derivative gets 1/l_i.  A unit-derivative
    basis function has magnitude O(h^k), so dividing by h^k levels the
    basis (equivalently, the scaled DoF values h^k d^k u behave like
    divided differences of u), which restores Lagrange-like conditioning.
    """
    h = geom.vertex_h
    if h is None:
        raise ValueError("scaling requires vertex sizes in the cell geometry")
    S = np.ones(h.shape[:-1] + (element.n_dofs,))
    for i, f in enumerate(element.functionals):
        k = f.derivative_order
        if k:
            dim, idx = f.entity
            size = h[..., idx] if dim == 0 else geom.edge_lengths[..., f.edge]
            S[..., i] = 1.0 / size ** k
    return S


def cell_transform(element: ReferenceElement, geom: CellGeometry,
                   scale: bool) -> TransformMatrix:
    """M of one cell, or of every cell of a batched geometry, with its rows
    scaled by scaling_diagonal when scale is set.  Unscaled Lagrange gets
    one identity that stands for every cell of a batch."""
    fam = element.family
    if fam == "lagrange":
        M = np.eye(element.n_dofs)
    elif fam == "bell":
        M = bell_M(geom, element)
    else:
        M = {"hermite": hermite_M, "morley": morley_M,
             "argyris": argyris_M}[fam](geom)
    if scale:
        M = scaling_diagonal(element, geom)[..., :, None] * M
    return TransformMatrix(matrix=M)


def dump_M_csv(M: np.ndarray, path) -> None:
    """Dump M as CSV, 17 significant digits, for cross-implementation diffing."""
    with open(path, "w") as fh:
        np.savetxt(fh, M, fmt="%.17g", delimiter=",")
