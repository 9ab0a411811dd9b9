"""Per-cell transformation matrices relating physical nodal bases to pullbacks.

The matrix M has psi_i = sum_j M_ij (psihat_j o F), where F maps the
physical cell to the reference cell and J = d xhat / d x is its Jacobian
(as provided by mesh.CellGeometry).  The element's mapping picks its
builder: the identity for point values only (Lagrange); pushforward_M,
which reads V = M^T off how each functional pushes forward, edge-normal
derivatives through B^i = Ghat_i J^{-T} G_i^T along the normals the caller
passes (Hermite, Morley, Argyris); the restriction of a mapped enriched
quintic, bell_M, where constraint rows extend the basis (Bell).

Every builder takes the geometry of one cell or of a batch of cells
(mesh.batch_geometry) and returns M as an array with the same leading
axes, so a single cell is the batch of one and there is one code path.
cell_transform is the one entry point: it picks the builder, scales the
rows by the diagonal S that scaling_diagonal reads off the element's
functionals, and returns M in a TransformMatrix.

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


def edge_blocks(geom: CellGeometry, normals=None) -> np.ndarray:
    """B^i = Ghat_i J^{-T} G_i^T coupling (normal, tangent) derivative pairs,
    shape (..., 3, 2, 2), along normals (outward by default)."""
    Ghat = np.stack([REF_NORMALS, REF_TANGENTS], axis=1)
    n = geom.normals if normals is None else normals
    G = np.stack([n, geom.tangents], axis=-2)
    JinvT = geom.Jinv.mT[..., None, :, :]
    return Ghat @ JinvT @ G.mT


_VOIGT_UNITS = np.array([[[1.0, 0.0], [0.0, 0.0]],
                         [[0.0, 1.0], [1.0, 0.0]],
                         [[0.0, 0.0], [0.0, 1.0]]])


def hessian_pushforward(J: np.ndarray) -> np.ndarray:
    """3x3 matrix T with voigt(J^T H J) = T voigt(H), Voigt order (xx, xy, yy)."""
    J = J[..., None, :, :]
    P = J.mT @ _VOIGT_UNITS @ J
    return np.stack([P[..., 0, 0], P[..., 0, 1], P[..., 1, 1]], axis=-2)


def morley_three_step(geom: CellGeometry):
    """Factors (E, VC, D) of Morley's V = E VC D via the extended node set
    (tangential midpoint derivatives), the cross-check of Morley's M.

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


# p'(l/2) on an edge of length l from the endpoint jets of order k of a 1D
# polynomial: sum_j c_j l^(j-1) ((-1)^j p^(j)(b) - p^(j)(a)), c the rule of
# order k, exact through degree 2k + 2: the secant and Argyris's quintic rule
MIDPOINT_RULES = {0: (1.0,), 2: (15.0 / 8.0, 7.0 / 16.0, 1.0 / 32.0)}


def _fill_midpoint_rule(row, ja, jb, k, w, geom, e):
    """row's entries on the jets ja and jb (DoF indices, value first) of
    edge e's ends: w times the rule of order k for the derivative along e."""
    ell, t = geom.edge_lengths[..., e], geom.tangents[..., e, :]
    if k == 0:  # w / l, the order of Morley's closed form, not w * (1 / l)
        row[..., ja[0]], row[..., jb[0]] = -w / ell, w / ell
        return
    w, ell, t0, t1 = w[..., None], ell[..., None], t[..., 0], t[..., 1]
    tj = (1.0, t, np.stack([t0 ** 2, 2.0 * t0 * t1, t1 ** 2], axis=-1))
    for j, c in enumerate(MIDPOINT_RULES[k]):
        lead = (c / ell if j == 0 else c * ell ** (j - 1)) * tj[j]
        dofs = slice(j * (j + 1) // 2, (j + 1) * (j + 2) // 2)  # order j
        row[..., ja[dofs]] = w * -lead
        row[..., jb[dofs]] = w * (-1) ** j * lead


def pushforward_M(element: ReferenceElement, geom: CellGeometry,
                  normals=None) -> np.ndarray:
    """M = V^T of an element of point values, vertex gradient pairs and
    Hessian triples and edge-normal derivatives, V filled in place as each
    functional pushes forward: 1, J^{-T} from the pair's alpha (1, 0),
    T(J)^{-1} from the triple's alpha (2, 0), and B^e_00 on an edge-normal
    derivative plus B^e_01 times the midpoint rule of its endpoint jets.
    Edge-normal DoFs follow normals (..., 3, 2), each cell's outward
    normals by default.  M's layout fixes the summation order of
    M Atilde M^T, so the study digits: Hermite's M stays C-ordered
    (transposed, its N=32 digits move), the others a transposed view of V."""
    fns, jets = element.functionals, element.entity_dofs()[0]
    V = _eye(element.n_dofs, geom.J.shape[:-2])
    Theta = (np.linalg.inv(hessian_pushforward(geom.J))
             if any(f.alpha == (2, 0) for f in fns) else None)
    B = edge_blocks(geom, normals) if any(f.normal for f in fns) else None
    for i, f in enumerate(fns):
        if f.alpha == (1, 0):
            V[..., i:i + 2, i:i + 2] = geom.Jinv.mT
        elif f.alpha == (2, 0):
            V[..., i:i + 3, i:i + 3] = Theta
        elif f.normal:
            e = f.entity[1]
            ja, jb = (jets[v] for v in EDGE_VERTICES[e])
            V[..., i, i] = B[..., e, 0, 0]
            _fill_midpoint_rule(V[..., i, :], ja, jb,
                                fns[ja[-1]].derivative_order, B[..., e, 0, 1],
                                geom, e)
    M = V.mT  # Hermite's layout is a fact of its digits, not of its map
    return np.ascontiguousarray(M) if element.family == "hermite" else M


def bell_M(geom: CellGeometry, element: ReferenceElement) -> np.ndarray:
    """Bell: map the enriched quintic, keep the 18 combinations that match the
    vertex functionals and have vanishing quartic edge modes (18 x 21).

    Row k of W is physical functional k (vertex jets, then quartic edge
    modes) applied to the pulled-back enriched quintic basis."""
    if element.mapping != "restriction":
        raise ValueError("bell_M needs a bell reference element")
    jets, moments = element.bell_tables
    J = geom.J
    T = hessian_pushforward(J)
    JT = J.mT

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
    return np.linalg.inv(W.mT)[..., :18, :]


def scaling_diagonal(element: ReferenceElement, geom: CellGeometry) -> np.ndarray:
    """Diagonal S equilibrating basis magnitudes across DoF kinds, read off
    each functional's derivative order and entity.

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
            size = h[..., idx] if dim == 0 else geom.edge_lengths[..., idx]
            S[..., i] = 1.0 / size ** k
    return S


def cell_transform(element: ReferenceElement, geom: CellGeometry,
                   scale: bool, normals=None) -> TransformMatrix:
    """M of one cell, or of every cell of a batched geometry, with its rows
    scaled by scaling_diagonal when scale is set, edge-normal DoFs along
    normals.  An unscaled identity map gets one identity for every cell."""
    if element.mapping == "identity":
        M = np.eye(element.n_dofs)
    else:
        M = (bell_M(geom, element) if element.mapping == "restriction"
             else pushforward_M(element, geom, normals))
        M += 0.0  # the -0 of inv and w * -0, which dump-m would print
    if scale:
        M = scaling_diagonal(element, geom)[..., :, None] * M
    return TransformMatrix(matrix=M)


def dump_M_csv(M: np.ndarray, path) -> None:
    """Dump M as CSV, 17 significant digits, for cross-implementation diffing."""
    with open(path, "w") as fh:
        np.savetxt(fh, M, fmt="%.17g", delimiter=",")
