"""Triangulations of the unit square and per-cell affine geometry.

A mesh is its vertices and cells: TriangleMesh checks them and derives its
connectivity whenever one is made, dataclasses.replace included.  Meshes of
the unit square are regular N x N grids split along the (i,j)-(i+1,j+1)
diagonal, optionally with interior vertices displaced by a deterministic
sinusoidal perturbation.  Edge endpoints are stored with the lower vertex
index first.  Orientation is computed once, here:
TriangleMesh.cell_edge_forward, the one flag the DoF map, the global edge
normals and the IP facets all read.
"""

from dataclasses import dataclass, field, fields
from numbers import Integral

import numpy as np

from .refelem import EDGE_VERTICES, REF_VERTICES


@dataclass(frozen=True, eq=False)
class TriangleMesh:
    """Triangulation with full edge connectivity: TriangleMesh(vertices, cells).

    cells are vertex-index triples in counter-clockwise order; every other
    array is derived from the two.  Edges are numbered in order of first
    appearance, cell by cell and local edge by local edge.  cell_edges[c, i]
    is the global index of the edge opposite local vertex i of cell c;
    cell_edge_forward[c, i] is true iff it runs lower vertex first (its
    stored direction) in EDGE_VERTICES order.  edge_cells[e, s] is the
    (cell, local edge) pair of side s of edge e, side 0 having the lower
    cell index; the missing side 1 of a boundary edge is (-1, -1).

    Raises ValueError unless vertices are finite (V, 2) and cells are
    (C, 3) integers in [0, V), for no cells, for a vertex in no cell, for a
    degenerate or negatively oriented cell and for an edge in more than two
    cells or run the same way by two (overlapping cells).

    A mesh is immutable: its arrays are read-only, the vertices and cells
    copies of those it was made from, so the cell data that
    assembly.cell_blocks keeps in _cell_data always describes the mesh's
    own vertices and cells.  Meshes compare and hash by identity.
    """

    vertices: np.ndarray
    cells: np.ndarray
    edges: np.ndarray = field(init=False)
    cell_edges: np.ndarray = field(init=False)
    cell_edge_forward: np.ndarray = field(init=False)
    edge_cells: np.ndarray = field(init=False)
    boundary_edges: np.ndarray = field(init=False)
    _cell_data: dict = field(default_factory=dict, init=False, repr=False,
                             compare=False)

    def __post_init__(self):
        vertices = np.array(self.vertices, dtype=float)
        cells = np.array(self.cells)
        if vertices.ndim != 2 or vertices.shape[1] != 2 \
                or not np.isfinite(vertices).all():
            raise ValueError("vertices must be a finite (V, 2) array")
        if cells.ndim != 2 or cells.shape[1] != 3 \
                or not np.issubdtype(cells.dtype, np.integer):
            raise ValueError("cells must be a (C, 3) integer array")
        bad = np.flatnonzero(((cells < 0) | (cells >= len(vertices))).any(axis=1))
        if len(bad):
            raise ValueError(f"cell {bad[0]} has a vertex index outside "
                             f"[0, {len(vertices)})")
        if not len(cells):
            raise ValueError("a mesh needs at least one cell")
        cells = cells.astype(int, copy=False)
        unused = np.setdiff1d(np.arange(len(vertices)), cells)
        if len(unused):
            raise ValueError(f"vertex {unused[0]} is in no cell")
        d = _edge_vectors(vertices[cells])
        bad = np.flatnonzero(signed_area(vertices, cells) <= DEGENERACY_RTOL
                             * (d * d).sum(axis=-1).max(axis=-1))
        if len(bad):
            raise ValueError(f"cell {bad[0]} is degenerate or negatively "
                             "oriented")

        va, vb = (cells[:, list(end)] for end in zip(*EDGE_VERTICES))
        lo, hi = np.minimum(va, vb), np.maximum(va, vb)
        _, first, inverse = np.unique((lo * len(vertices) + hi).ravel(),
                                      return_index=True, return_inverse=True)
        appearance = np.argsort(first)
        cell_edges = np.argsort(appearance)[inverse].reshape(cells.shape)
        edges = np.column_stack([lo.ravel(), hi.ravel()])[first[appearance]]

        counts = np.bincount(cell_edges.ravel(), minlength=len(edges))
        crowded = np.flatnonzero(counts > 2)
        if len(crowded):
            a, b = edges[crowded[0]]
            raise ValueError(f"edge ({a}, {b}) is shared by "
                             f"{counts[crowded[0]]} cells; at most two are "
                             "allowed")
        # (cell, local edge) pairs grouped by edge, in cell order within an edge
        sides = np.stack(np.divmod(np.argsort(cell_edges.ravel(), kind="stable"),
                                   3), axis=-1)
        start = np.cumsum(counts) - counts
        shared = counts == 2
        edge_cells = np.full((len(edges), 2, 2), -1)
        edge_cells[:, 0] = sides[start]
        edge_cells[shared, 1] = sides[start[shared] + 1]
        # counter-clockwise neighbours start their edge at different vertices
        c, e = np.moveaxis(edge_cells[shared], -1, 0)
        folded = np.flatnonzero(np.equal(*cells[c, (e + 1) % 3].T))
        if len(folded):
            (c0, c1), (a, b) = c[folded[0]], edges[shared][folded[0]]
            raise ValueError(f"edge ({a}, {b}) runs the same way in cells "
                             f"{c0} and {c1}, which overlap")

        for name, a in (("vertices", vertices), ("cells", cells),
                        ("edges", edges), ("cell_edges", cell_edges),
                        ("cell_edge_forward", va < vb),
                        ("edge_cells", edge_cells),
                        ("boundary_edges", np.flatnonzero(counts == 1))):
            a.flags.writeable = False
            object.__setattr__(self, name, a)

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


def build_unit_square_mesh(n: int, perturb: float = 0.0) -> TriangleMesh:
    """N x N unit-square grid split into 2N^2 triangles.

    Interior vertices are displaced by the deterministic field
    dx = (eps/N) sin(2 pi y) sin(pi x), dy = (eps/N) sin(2 pi x) sin(pi y);
    boundary vertices stay put.  Raises ValueError unless n is an integer
    >= 1, and if the perturbation inverts a cell.
    """
    if not isinstance(n, Integral) or isinstance(n, bool) or n < 1:
        raise ValueError("mesh resolution must be an integer >= 1")
    if not 0.0 <= perturb < 0.5:
        raise ValueError("perturbation amplitude must lie in [0, 0.5)")

    xs = np.linspace(0.0, 1.0, n + 1)
    xx, yy = np.meshgrid(xs, xs, indexing="ij")
    vertices = np.column_stack([xx.ravel(order="F"), yy.ravel(order="F")])

    if perturb > 0.0:
        x, y = vertices[:, 0].copy(), vertices[:, 1].copy()
        interior = (x > 0) & (x < 1) & (y > 0) & (y < 1)
        amp = perturb / n
        vertices[interior, 0] += amp * np.sin(2 * np.pi * y[interior]) * np.sin(np.pi * x[interior])
        vertices[interior, 1] += amp * np.sin(2 * np.pi * x[interior]) * np.sin(np.pi * y[interior])

    # square (i, j), j-major, has lower-left vertex j (n + 1) + i and is
    # split into (v00, v10, v11) and (v00, v11, v01)
    v00 = (np.arange(n)[:, None] * (n + 1) + np.arange(n)).ravel()
    v10, v01, v11 = v00 + 1, v00 + n + 1, v00 + n + 2
    cells = np.stack([v00, v10, v11, v00, v11, v01], axis=-1).reshape(-1, 3)
    return TriangleMesh(vertices, cells)


@dataclass(eq=False)
class CellGeometry:
    """Affine geometry of one cell, or of a batch of cells along a leading axis.

    J is the Jacobian of the physical-to-reference map F: K -> Khat
    (entries d xhat_a / d x_b), so physical gradients obey
    grad = J^T refgrad.  normals are outward unit normals per local edge;
    tangents run from the lower- to the higher-numbered local endpoint.
    Indexing a batch (geom[i], geom[slice], geom[index_array]) selects cells.
    Geometries compare and hash by identity, as meshes do.
    """

    vertices: np.ndarray
    J: np.ndarray
    Jinv: np.ndarray
    detJinv_abs: np.ndarray
    normals: np.ndarray
    tangents: np.ndarray
    edge_lengths: np.ndarray
    vertex_h: np.ndarray = None

    def __getitem__(self, index):
        return CellGeometry(**{f.name: None if getattr(self, f.name) is None
                               else getattr(self, f.name)[index]
                               for f in fields(self)})

    def ref_to_phys(self, points):
        """Reference points (n, 2) to physical points (..., n, 2)."""
        pts = np.atleast_2d(points)
        return self.vertices[..., :1, :] + pts @ np.swapaxes(self.Jinv, -1, -2)


def _edge_vectors(verts):
    """Edge vectors (..., 3, 2) from the lower- to the higher-numbered local
    endpoint of each local edge, for cell vertices (..., 3, 2)."""
    ends = np.array(EDGE_VERTICES)
    return verts[..., ends[:, 1], :] - verts[..., ends[:, 0], :]


def batch_geometry(mesh: TriangleMesh, size_field: np.ndarray = None,
                   cells=None) -> CellGeometry:
    """Geometry of the given cells (all by default), batched along axis 0.

    size_field (vertex_size_field) gives each cell its vertex sizes vertex_h.
    """
    index = np.arange(mesh.n_cells) if cells is None else np.asarray(cells)
    verts = mesh.vertices[mesh.cells[index]]
    B = np.stack([verts[:, 1] - verts[:, 0], verts[:, 2] - verts[:, 0]],
                 axis=-1)  # d x / d xhat
    det = B[:, 0, 0] * B[:, 1, 1] - B[:, 0, 1] * B[:, 1, 0]
    J = np.stack([np.stack([B[:, 1, 1], -B[:, 0, 1]], axis=-1),
                  np.stack([-B[:, 1, 0], B[:, 0, 0]], axis=-1)],
                 axis=1) / det[:, None, None]

    d = _edge_vectors(verts)
    lengths = np.hypot(d[..., 0], d[..., 1])
    tangents = d / lengths[..., None]
    # tangents rotated clockwise: outward where the tangent runs with the
    # counter-clockwise traversal, as on edges 0 and 2 but not on edge 1
    normals = np.stack([tangents[..., 1], -tangents[..., 0]], axis=-1)
    normals[:, 1] *= -1.0

    vertex_h = size_field[mesh.cells[index]] if size_field is not None else None
    return CellGeometry(vertices=verts, J=J, Jinv=B, detJinv_abs=np.abs(det),
                        normals=normals, tangents=tangents,
                        edge_lengths=lengths, vertex_h=vertex_h)


def cell_geometry(mesh: TriangleMesh, cell_index: int,
                  size_field: np.ndarray = None) -> CellGeometry:
    """Geometric quantities of one cell: a batch of one, unbatched."""
    return batch_geometry(mesh, size_field, [cell_index])[0]


def reference_cell_geometry() -> CellGeometry:
    """Geometry of the reference triangle itself (identity map)."""
    mesh = TriangleMesh(REF_VERTICES, np.array([[0, 1, 2]]))
    return cell_geometry(mesh, 0, vertex_size_field(mesh))


def vertex_size_field(mesh: TriangleMesh) -> np.ndarray:
    """Characteristic size h(v) at each vertex, agreed on by all incident
    cells: the arithmetic mean of their diameters, shape (V,)."""
    d = _edge_vectors(mesh.vertices[mesh.cells])
    diam = np.hypot(d[..., 0], d[..., 1]).max(axis=-1)
    v = mesh.cells.ravel()
    sums = np.bincount(v, weights=np.repeat(diam, 3), minlength=mesh.n_vertices)
    counts = np.bincount(v, minlength=mesh.n_vertices)
    return sums / counts
