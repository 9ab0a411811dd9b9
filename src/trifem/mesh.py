"""Triangulations of the unit square and per-cell affine geometry.

Meshes are regular N x N grids split along the (i,j)-(i+1,j+1) diagonal,
optionally with interior vertices displaced by a deterministic sinusoidal
perturbation.  Edge endpoints are stored with the lower vertex index first;
that single convention drives tangent signs and the sign consistency of
shared derivative DoFs downstream.
"""

from dataclasses import dataclass, fields

import numpy as np

from .refelem import EDGE_VERTICES, REF_VERTICES


@dataclass
class TriangleMesh:
    """Immutable triangulation with full edge connectivity.

    cells are vertex-index triples in counter-clockwise order.  For each
    cell, cell_edges[c, i] is the global index of the edge opposite local
    vertex i and cell_edge_signs[c, i] is +1 iff the cell's boundary
    traversal runs the edge in stored (low-to-high) order.
    """

    vertices: np.ndarray
    cells: np.ndarray
    edges: np.ndarray
    cell_edges: np.ndarray
    cell_edge_signs: np.ndarray
    edge_cells: list
    boundary_edges: np.ndarray
    boundary_vertices: np.ndarray

    @property
    def n_vertices(self):
        return len(self.vertices)

    @property
    def n_cells(self):
        return len(self.cells)

    @property
    def n_edges(self):
        return len(self.edges)


def signed_area(vertices, cell):
    """Signed area of a vertex-index triple, or of each row of an (n, 3) array."""
    v = vertices[cell]
    u, w = v[..., 1, :] - v[..., 0, :], v[..., 2, :] - v[..., 0, :]
    return 0.5 * (u[..., 0] * w[..., 1] - u[..., 1] * w[..., 0])


# A cell is degenerate when its area is at most this share of its squared
# longest edge (a right isosceles cell has 1/4): the condition number of
# its Jacobian is then of order 1e10 or more, whatever the cell's size.
DEGENERACY_RTOL = 1e-10


def _degenerate(area, verts):
    """Which cells of vertices (..., 3, 2) with (signed) areas `area` are
    degenerate or, for a signed area, negatively oriented."""
    d = _edge_vectors(verts)
    return area <= DEGENERACY_RTOL * (d * d).sum(axis=-1).max(axis=-1)


def build_mesh(vertices, cells) -> TriangleMesh:
    """Assemble connectivity for given vertices and positively-oriented cells.

    Edges are numbered in order of first appearance, cell by cell and local
    edge by local edge.  Raises ValueError for a degenerate or negatively
    oriented cell and for an edge shared by more than two cells.
    """
    vertices = np.asarray(vertices, dtype=float)
    cells = np.asarray(cells, dtype=int)
    bad = np.flatnonzero(_degenerate(signed_area(vertices, cells),
                                     vertices[cells]))
    if len(bad):
        raise ValueError(f"cell {bad[0]} is degenerate or negatively oriented")

    ends = np.array(EDGE_VERTICES)
    va, vb = cells[:, ends[:, 0]], cells[:, ends[:, 1]]
    lo, hi = np.minimum(va, vb), np.maximum(va, vb)
    _, first, inverse = np.unique((lo * len(vertices) + hi).ravel(),
                                  return_index=True, return_inverse=True)
    appearance = np.argsort(first)
    cell_edges = np.argsort(appearance)[inverse].reshape(cells.shape)
    edges = np.column_stack([lo.ravel(), hi.ravel()])[first[appearance]]
    # CCW traversal of edge i runs v1->v2, v2->v0, v0->v1: forward for
    # edges 0 and 2, backward for edge 1
    ccw_forward = np.where([True, False, True], va < vb, vb < va)
    cell_edge_signs = np.where(ccw_forward, 1, -1)

    counts = np.bincount(cell_edges.ravel(), minlength=len(edges))
    crowded = np.flatnonzero(counts > 2)
    if len(crowded):
        a, b = edges[crowded[0]]
        raise ValueError(f"edge ({a}, {b}) is shared by {counts[crowded[0]]} "
                         "cells; at most two are allowed")
    by_edge = np.argsort(cell_edges.ravel(), kind="stable") // 3
    edge_cells = [c.tolist() for c in np.split(by_edge, np.cumsum(counts)[:-1])]
    boundary_edges = np.flatnonzero(counts == 1)
    boundary_vertices = np.unique(edges[boundary_edges].ravel())
    return TriangleMesh(vertices=vertices, cells=cells, edges=edges,
                        cell_edges=cell_edges, cell_edge_signs=cell_edge_signs,
                        edge_cells=edge_cells, boundary_edges=boundary_edges,
                        boundary_vertices=boundary_vertices)


def build_unit_square_mesh(n: int, perturb: float = 0.0) -> TriangleMesh:
    """N x N unit-square grid split into 2N^2 triangles.

    Interior vertices are displaced by the deterministic field
    dx = (eps/N) sin(2 pi y) sin(pi x), dy = (eps/N) sin(2 pi x) sin(pi y);
    boundary vertices stay put.  Raises if the perturbation inverts a cell.
    """
    if n < 1:
        raise ValueError("mesh resolution must be >= 1")
    if not 0.0 <= perturb < 0.5:
        raise ValueError("perturbation amplitude must lie in [0, 0.5)")

    idx = lambda i, j: j * (n + 1) + i
    xs = np.linspace(0.0, 1.0, n + 1)
    xx, yy = np.meshgrid(xs, xs, indexing="ij")
    vertices = np.column_stack([xx.ravel(order="F"), yy.ravel(order="F")])

    if perturb > 0.0:
        x, y = vertices[:, 0].copy(), vertices[:, 1].copy()
        interior = (x > 0) & (x < 1) & (y > 0) & (y < 1)
        amp = perturb / n
        vertices[interior, 0] += amp * np.sin(2 * np.pi * y[interior]) * np.sin(np.pi * x[interior])
        vertices[interior, 1] += amp * np.sin(2 * np.pi * x[interior]) * np.sin(np.pi * y[interior])

    cells = []
    for j in range(n):
        for i in range(n):
            v00, v10 = idx(i, j), idx(i + 1, j)
            v01, v11 = idx(i, j + 1), idx(i + 1, j + 1)
            cells.append((v00, v10, v11))
            cells.append((v00, v11, v01))
    mesh = build_mesh(vertices, np.array(cells))
    return mesh


@dataclass
class CellGeometry:
    """Affine geometry of one cell, or of a batch of cells along a leading axis.

    J is the Jacobian of the physical-to-reference map F: K -> Khat
    (entries d xhat_a / d x_b), so physical gradients obey
    grad = J^T refgrad.  normals are outward unit normals per local edge;
    tangents run from the lower- to the higher-numbered local endpoint.
    Indexing a batch (geom[i], geom[slice], geom[index_array]) selects cells.
    """

    cell: np.ndarray
    vertices: np.ndarray
    J: np.ndarray
    Jinv: np.ndarray
    detJinv_abs: np.ndarray
    normals: np.ndarray
    tangents: np.ndarray
    edge_lengths: np.ndarray
    diameter: np.ndarray
    vertex_h: np.ndarray = None

    def __getitem__(self, index):
        return CellGeometry(**{f.name: None if getattr(self, f.name) is None
                               else getattr(self, f.name)[index]
                               for f in fields(self)})

    def ref_to_phys(self, points):
        """Reference points (n, 2) to physical points (..., n, 2)."""
        pts = np.atleast_2d(points)
        return self.vertices[..., :1, :] + pts @ np.swapaxes(self.Jinv, -1, -2)

    def phys_to_ref(self, points):
        pts = np.atleast_2d(points)
        return (pts - self.vertices[..., :1, :]) @ np.swapaxes(self.J, -1, -2)


@dataclass(frozen=True)
class VertexSizeField:
    """Characteristic size at each vertex, agreed on by all incident cells."""

    h: np.ndarray


def _edge_vectors(verts):
    """Edge vectors (..., 3, 2) from the lower- to the higher-numbered local
    endpoint of each local edge, for cell vertices (..., 3, 2)."""
    ends = np.array(EDGE_VERTICES)
    return verts[..., ends[:, 1], :] - verts[..., ends[:, 0], :]


def batch_geometry(mesh: TriangleMesh, size_field: VertexSizeField = None,
                   cells=None) -> CellGeometry:
    """Geometry of the given cells (all by default), batched along axis 0."""
    index = np.arange(mesh.n_cells) if cells is None else np.asarray(cells)
    verts = mesh.vertices[mesh.cells[index]]
    B = np.stack([verts[:, 1] - verts[:, 0], verts[:, 2] - verts[:, 0]],
                 axis=-1)  # d x / d xhat
    det = B[:, 0, 0] * B[:, 1, 1] - B[:, 0, 1] * B[:, 1, 0]
    bad = np.flatnonzero(_degenerate(0.5 * np.abs(det), verts))
    if len(bad):
        raise ValueError(f"cell {index[bad[0]]} is degenerate")
    J = np.stack([np.stack([B[:, 1, 1], -B[:, 0, 1]], axis=-1),
                  np.stack([-B[:, 1, 0], B[:, 0, 0]], axis=-1)],
                 axis=1) / det[:, None, None]

    d = _edge_vectors(verts)
    lengths = np.hypot(d[..., 0], d[..., 1])
    tangents = d / lengths[..., None]
    normals = np.stack([tangents[..., 1], -tangents[..., 0]], axis=-1)
    # edge e is opposite vertex e: flip normals that point at it
    mids = 0.5 * (verts[:, [a for a, _ in EDGE_VERTICES]]
                  + verts[:, [b for _, b in EDGE_VERTICES]])
    inward = np.einsum("cek,cek->ce", normals, mids - verts) < 0
    normals[inward] *= -1.0

    vertex_h = size_field.h[mesh.cells[index]] if size_field is not None else None
    return CellGeometry(cell=index, vertices=verts, J=J, Jinv=B,
                        detJinv_abs=np.abs(det), normals=normals,
                        tangents=tangents, edge_lengths=lengths,
                        diameter=lengths.max(axis=-1), vertex_h=vertex_h)


def cell_geometry(mesh: TriangleMesh, cell_index: int,
                  size_field: VertexSizeField = None) -> CellGeometry:
    """Geometric quantities of one cell: a batch of one, unbatched."""
    return batch_geometry(mesh, size_field, [cell_index])[0]


def reference_cell_geometry() -> CellGeometry:
    """Geometry of the reference triangle itself (identity map)."""
    mesh = build_mesh(REF_VERTICES, np.array([[0, 1, 2]]))
    return cell_geometry(mesh, 0, vertex_size_field(mesh))


def vertex_size_field(mesh: TriangleMesh) -> VertexSizeField:
    """h(v) = arithmetic mean of the diameters of the cells incident to v."""
    d = _edge_vectors(mesh.vertices[mesh.cells])
    diam = np.hypot(d[..., 0], d[..., 1]).max(axis=-1)
    v = mesh.cells.ravel()
    sums = np.bincount(v, weights=np.repeat(diam, 3), minlength=mesh.n_vertices)
    counts = np.bincount(v, minlength=mesh.n_vertices)
    return VertexSizeField(h=sums / counts)


def global_edge_normal(mesh: TriangleMesh, edge_index: int) -> np.ndarray:
    """Unit normal of an edge: the stored-edge direction rotated 90 deg CCW."""
    a, b = mesh.edges[edge_index]
    d = mesh.vertices[b] - mesh.vertices[a]
    d = d / np.hypot(*d)
    return np.array([-d[1], d[0]])


def export_text(mesh: TriangleMesh, path) -> None:
    """Plain-text export: lines 'v x y' then 'c i j k' (0-based)."""
    with open(path, "w") as fh:
        for x, y in mesh.vertices:
            fh.write(f"v {x:.17g} {y:.17g}\n")
        for i, j, k in mesh.cells:
            fh.write(f"c {i} {j} {k}\n")
