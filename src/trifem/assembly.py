"""Global DoF management and assembly of bilinear forms into sparse matrices.

Element matrices are integrated in the pulled-back reference basis and
transformed afterwards with the cell's (scaled) transformation matrix,
A = M Atilde M^T; facet terms are treated the same way.  A shared
edge-normal derivative DoF is the derivative along the global edge normal
(the stored-edge direction, by mesh.cell_edge_forward, rotated 90 degrees
counter-clockwise); the M of cell_blocks and the interpolant follow it,
while cell_transform and trifem dump-m default to outward normals.

Supported forms: Poisson with Nitsche boundary terms, the plate-bending
form and the C0 interior-penalty biharmonic form, both with weakly-enforced
clamped boundary conditions, and the clamped-plate Nitsche form as printed
in its source (assembly and symmetry checks only); penalties are fixed.

The operator, load, interpolation and L2-error passes share one
cell-batched pipeline, cell_blocks.  It builds the DoF map, the
geometry of all cells and M for each fixed-size block of cells once per
(mesh, element, scale), with array operations, and the mesh holds the
result for the passes that follow.  M stays in memory for the whole rung
by its entries: each block keeps those that are not +0 in one of its
cells (Argyris's 81 of 441, its nonzeros), and the passes get one block's
M back whole at a time.  The cell and facet kernels run on whole blocks
as batched matmuls, with every derivative row of a block live at once, so
BLOCK bounds their memory.  They read the form once, when built, and make
only the derivative rows it reads; one facet-trace builder serves
boundary facets and both sides of interior-penalty facets.  Each kernel
performs, per cell, the same floating-point operations as a cell-by-cell
evaluation would, so batching changes no result bit; blocks, facets and
COO entries come in a fixed order, so results are deterministic.
"""

from dataclasses import dataclass
from functools import reduce
from itertools import product
from operator import add, iadd, mul

import numpy as np
import scipy.sparse

from . import transform
from .mesh import (CellGeometry, TriangleMesh, batch_geometry,
                   vertex_size_field)
from .quadrature import interval_rule, triangle_rule
from .refelem import (ReferenceElement, apply_functionals, derivative_alphas,
                      ref_edge_points, tabulate_coeffs)
from .transform import hessian_pushforward, scaling_diagonal

# The one-cell entry points stay importable from here for per-cell callers
# (studybench's traced mode wraps them on this module).  The passes use the
# batched forms instead, so this module's cell_transform only ever sees one
# cell and returns a 2-D M.
from .mesh import cell_geometry  # noqa: E402,F401
from .transform import cell_transform  # noqa: E402,F401


@dataclass(frozen=True)
class ScalarField:
    """A scalar function with optional derivatives, for loads and interpolation.

    f, grad and hess take coordinate arrays x, y of any one shape and return
    arrays of shape x.shape, (2,) + x.shape and (2, 2) + x.shape.
    """

    f: callable
    grad: callable = None
    hess: callable = None


class SparseMatrix(scipy.sparse.csr_array):
    """Square CSR matrix: scipy's csr_array plus its order n and a matvec.

    coarse is the prolongation of a coarse space that the operator carries
    for CG's two-level preconditioner (see p1_prolongation), or None.
    """

    coarse = None

    @property
    def n(self):
        return self.shape[0]

    def matvec(self, x):
        return self @ x


def _csr_from_blocks(n, size, blocks) -> SparseMatrix:
    """CSR of order n from blocks of COO triplets (rows, cols, vals), arrays
    that broadcast to one shape, `size` triplets in all.

    The triplets are written straight into one int64 key buffer and one
    value buffer, so no block is copied twice.  Duplicates are grouped in
    input order, and np.add.reduceat sums each group: a run of 8 or more
    values goes through numpy's unrolled pairwise reduction rather than a
    left-to-right sum, so the input order fixes the bits but is not the
    order of the additions.  scipy's own COO-to-CSR conversion sums
    duplicates in another order: that moves some entries by an ulp, and
    the biharmonic study errors far more.

    The key of the triplet at position p is (row * n + col) * size + p.
    Keys are unique, so an in-place sort puts them in the stable order of
    row * n + col.  Past int64, when n^2 size >= 2^63, the key is
    row * n + col and a stable argsort orders it, with the same result at
    up to 16 bytes more per triplet.  The sorted keys are then reduced a chunk at
    a time, each chunk ending on a group boundary: its values are gathered
    and summed straight into the output, and its distinct keys move into
    the front of the key buffer, so at most the two buffers and the summed
    values are held whole.  The index arrays take _index_dtype, and no
    array is copied by csr_array.
    """
    n, size = int(n), int(size)
    composite = n * n * size < 2 ** 63
    keys, vals = _write_triplets(n, size, blocks, composite)
    if composite:
        keys.sort()
        step = size  # a group's keys lie in [r * size, (r + 1) * size)
    else:
        order = np.argsort(keys, kind="stable")
        keys = keys[order]
        vals = vals[order]
        del order
        step = 1
    summed, nnz, lo = [], 0, 0
    while lo < size:
        hi = min(lo + _CHUNK, size)
        hi += int(np.searchsorted(keys[hi:], (keys[hi - 1] // step + 1) * step))
        k = keys[lo:hi]
        if composite:  # back to row * n + col, in place, and the positions
            pos = np.empty(len(k), dtype=np.int64)
            np.divmod(k, size, out=(k, pos))
            v = np.take(vals, pos)
        else:
            v = vals[lo:hi]
        first = np.empty(len(k), dtype=bool)
        first[0] = True
        np.not_equal(k[1:], k[:-1], out=first[1:])
        starts = np.flatnonzero(first)
        summed.append(np.add.reduceat(v, starts))
        keys[nnz:nnz + len(starts)] = k[starts]
        nnz += len(starts)
        lo = hi
    del vals
    data = np.concatenate(summed) if summed else np.empty(0)
    del summed
    keys = keys[:nnz]
    idx = _index_dtype(n, size)
    indptr = np.searchsorted(keys, np.arange(n + 1) * n).astype(idx)
    keys %= n  # now the column indices
    return SparseMatrix((data, keys.astype(idx), indptr), shape=(n, n))


def _index_dtype(n, size):
    """The dtype of the CSR index arrays of order n from size triplets:
    int32 while both are below 2^31, so that SuperLU copies no index array
    and a matvec streams 4 bytes per index, and int64 past that."""
    return scipy.sparse.get_index_dtype(maxval=max(n, size))


def _write_triplets(n, size, blocks, composite):
    """The key and value buffers of _csr_from_blocks, each block written
    into its slice; with composite keys, (row * n + col) * size + p."""
    keys, vals = np.empty(size, dtype=np.int64), np.empty(size)
    lo = 0
    for r, c, v in blocks:
        shape = np.broadcast_shapes(np.shape(r), np.shape(c), np.shape(v))
        hi = lo + int(np.prod(shape))
        k = keys[lo:hi].reshape(shape)
        np.add(r * n, c, out=k)
        if composite:
            k *= size
            k += np.arange(lo, hi).reshape(shape)
        vals[lo:hi].reshape(shape)[...] = v
        lo = hi
    if lo != size:
        raise ValueError(f"blocks hold {lo} triplets, not {size}")
    return keys, vals


# Triplets per chunk of _csr_from_blocks's reduction: its temporaries stay
# near 1 MB whatever the triplet count
_CHUNK = 1 << 15


@dataclass(frozen=True, eq=False)
class DofMap:
    """Local-to-global DoF indices with entity-block layout.

    Global DoFs are laid out vertex blocks first, then edge blocks, then
    cell blocks.  The map holds no orientation (cell_blocks' M carries it);
    cell_dofs is read-only, like the mesh's arrays, and maps compare and
    hash by identity, as meshes do.
    """

    cell_dofs: np.ndarray
    total_dofs: int

    def __post_init__(self):
        self.cell_dofs.flags.writeable = False


def build_dof_map(mesh: TriangleMesh, element: ReferenceElement) -> DofMap:
    ent = element.entity_dofs()
    n_v, n_e, n_c = len(ent[0][0]), len(ent[1][0]), len(ent[2][0])
    V, E, C = mesh.n_vertices, mesh.n_edges, mesh.n_cells
    edge_offset = V * n_v
    cell_offset = edge_offset + E * n_e
    total = cell_offset + C * n_c

    cell_dofs = np.zeros((C, element.n_dofs), dtype=np.int64)
    k = np.arange(n_e)  # edge DoFs by position along the stored direction
    along = np.where(mesh.cell_edge_forward[..., None], k, k[::-1])
    for i in range(3):
        cell_dofs[:, ent[0][i]] = mesh.cells[:, i, None] * n_v + np.arange(n_v)
        cell_dofs[:, ent[1][i]] = (edge_offset + mesh.cell_edges[:, i, None] * n_e
                                   + along[:, i])
    cell_dofs[:, ent[2][0]] = cell_offset + np.arange(C)[:, None] * n_c + np.arange(n_c)
    return DofMap(cell_dofs=cell_dofs, total_dofs=total)


# Cells (or interior edges) per block: bounds the kernel and trace arrays
# independently of the mesh size.
BLOCK = 256


@dataclass(frozen=True, eq=False)
class CellData:
    """The per-cell data every pass of one (mesh, element, scale) reads.

    geom is the batched geometry of all cells, with vertex sizes when
    scaled.  blocks holds (cells, geometry, values, positions) for
    consecutive blocks of at most BLOCK cells: a slice of cell indices,
    their geometry and their (scaled) transformation matrices M by the
    entries that are not +0 in some cell of the block, M's nonzeros as it
    stores no -0 (the sign test keeps the round trip exact regardless).
    positions (2, k) holds their (row, col) and values (cells, k) their
    values; both are None for Lagrange, whose M is the identity.  M(i)
    gives block i's M back whole, in the layout of cell_transform's M
    (transposed says whether that is a transposed view).  All arrays are
    read-only, and cell data compare and hash by identity.
    """

    element: ReferenceElement
    dofmap: DofMap
    geom: CellGeometry
    blocks: tuple
    transposed: bool = False

    def M(self, i):
        """Block i's M, shape (cells, n_dofs, n_tab), read-only, with the
        bytes and the row and column strides of the M that cell_blocks
        compacted; None for Lagrange."""
        _, _, values, positions = self.blocks[i]
        if values is None:
            return None
        n, m = self.element.n_dofs, len(self.element.coeffs)
        M = (np.zeros((len(values), m, n)).mT if self.transposed
             else np.zeros((len(values), n, m)))
        M[:, positions[0], positions[1]] = values
        M.flags.writeable = False
        return M

    def each_block(self):
        """(cells, geometry, M) for each block in turn, M as M(i) gives it,
        so that one block's M is whole at a time."""
        for i, (cells, geom, _, _) in enumerate(self.blocks):
            yield cells, geom, self.M(i)


def _global_normals(mesh: TriangleMesh, geom: CellGeometry) -> np.ndarray:
    """Global normals of the edge-normal DoFs: the local tangent, signed by
    mesh.cell_edge_forward to the stored direction, rotated 90 deg CCW."""
    t = np.where(mesh.cell_edge_forward, 1, -1)[..., None] * geom.tangents
    return np.stack([-t[..., 1], t[..., 0]], axis=-1)


def cell_blocks(mesh: TriangleMesh, element: ReferenceElement,
                scale: bool) -> CellData:
    """The per-cell pipeline every pass shares: the DoF map, geometry and
    M of element on mesh, built on first use and then held by the mesh, so
    the operator, load, interpolation and error passes of a rung build
    each of them once.  M's edge-normal DoFs follow the global edge
    normals (_global_normals), so a DoF that two cells share is the same
    derivative in both.  Each block keeps the entries of M that are not +0
    in one of its cells, so M(i) gives M back bit for bit.  The mesh keys
    it by (element, scale); elements compare by identity."""
    key = (element, bool(scale))
    data = mesh._cell_data.get(key)
    if data is None:
        geom = batch_geometry(mesh, vertex_size_field(mesh) if scale else None)
        for a in vars(geom).values():
            if a is not None:
                a.flags.writeable = False
        blocks, transposed = [], False
        normals = _global_normals(mesh, geom)
        for lo in range(0, mesh.n_cells, BLOCK):
            cells = slice(lo, lo + BLOCK)
            g, values, positions = geom[cells], None, None
            if element.family != "lagrange":
                M = transform.cell_transform(element, g, scale,
                                             normals[cells]).matrix
                transposed = M.strides[-1] > M.strides[-2]
                positions = np.array(np.nonzero(
                    np.any((M != 0) | np.signbit(M), axis=0)))
                values = M[:, positions[0], positions[1]]
                positions.flags.writeable = values.flags.writeable = False
            blocks.append((cells, g, values, positions))
        data = mesh._cell_data[key] = CellData(
            element, build_dof_map(mesh, element), geom, tuple(blocks),
            transposed)
    return data


FORM_KINDS = ("poisson_nitsche", "plate", "plate_ip", "plate_clamped_nitsche")

# alpha of the interior-penalty facet terms, the value the studies run
IP_PENALTY = 20.0


@dataclass(frozen=True)
class FormSpec:
    """Which bilinear form to assemble, FormSpec(kind, nu), the one way a
    form is made: kind is one of FORM_KINDS, and the Poisson ratio nu only
    the plate forms read.  Only _Kernels decodes the kind.

    The plate and interior-penalty forms always carry consistent symmetric
    Nitsche terms for the clamped conditions u = du/dn = 0 on the boundary,
    with penalties beta/h^3 and beta/h; this is what the biharmonic
    convergence studies run.  plate_clamped_nitsche reproduces its source
    form verbatim instead and is only meant for assembly and symmetry
    checks.  The penalties are constants of the kind and the element degree
    p, set by _Kernels.  Cell and facet integrals use rules of degree 2p.
    """

    kind: str
    nu: float = 0.0

    def __post_init__(self):
        if self.kind not in FORM_KINDS:
            raise ValueError(f"unknown form kind {self.kind}")
        if not 0.0 <= self.nu <= 0.5:
            raise ValueError("Poisson ratio must lie in [0, 1/2]")


def _check_compatible(element: ReferenceElement, form: FormSpec):
    fam = element.family
    if form.kind == "poisson_nitsche":
        return
    if form.kind == "plate_ip":
        if fam != "lagrange" or element.degree < 2:
            raise ValueError("interior-penalty plate form needs Lagrange k >= 2")
        return
    if fam not in ("morley", "argyris", "bell"):
        raise ValueError(f"{form.kind} needs an H2-type element, got {fam}")


def _per(x):
    """Per-cell (or per-facet) scalars (B,) against rows (B, n, q)."""
    return x[:, None, None]


def _physical_hessian(tab, J, components):
    """Physical hxx, hxy, hyy (components 0, 1, 2) of the pullbacks: the
    Voigt pushforward T contracted with the reference second derivatives of
    a cell table (n, q) or a facet table (F, n, q), as a tuple of the
    components asked for.

    This stays apart from _directional: T's batched matmul returns the
    mixed coefficient J00 J11 + J10 J01 as one fused multiply-add, which
    the elementwise products of _directional round twice, so folding the
    second-order rows into it would move the plate operators' bits."""
    T = hessian_pushforward(J)
    href = np.stack([tab[(2, 0)], tab[(1, 1)], tab[(0, 2)]])
    spec = "bj,jnq->bnq" if href.ndim == 3 else "bj,jbnq->bnq"
    return tuple(np.einsum(spec, T[:, k], href) for k in components)


def _directional(tab, J, *dirs):
    """The derivative of the pullbacks along dirs, each (2,) or one per
    cell (B, 2), of order k = len(dirs) (affine cells only): the reference
    derivatives of order k, alpha weighted by the products of the pushed
    directions J d over the component picks that give alpha.  Picks go in
    product order; products, weights and terms (into the first, in place)
    fold left to right with no 0 to start from, so a -0 stays -0."""
    e = [(J @ np.broadcast_to(d, J.shape[:-1])[:, :, None])[:, :, 0]
         for d in dirs]
    weights = [[] for _ in range(len(dirs) + 1)]  # by alpha's y order
    for pick in product((0, 1), repeat=len(dirs)):
        weights[sum(pick)].append(reduce(mul, [x[:, i] for x, i in zip(e, pick)]))
    return reduce(iadd, (_per(reduce(add, weights[ay])) * tab[(ax, ay)]
                         for ax, ay in derivative_alphas(len(dirs))))


_EX = np.array([1.0, 0.0])
_EY = np.array([0.0, 1.0])


def _interior_facets(mesh: TriangleMesh):
    """Both sides of every interior edge, in edge order, as ((cA, eA), (cB, eB))
    cell and local-edge arrays; side A is the lower cell index."""
    return mesh.edge_cells[mesh.edge_cells[:, 1, 0] >= 0].transpose(1, 2, 0)


class _Kernels:
    """Shared tabulations and the cell and facet kernels of one form, each
    evaluated for a batch of cells or facets at once.

    Kernels work pointwise: rows (B, n, q) of physical derivatives at the
    quadrature points, weighted and contracted by batched matmul.  A batch
    is one block of cells (or facets), which bounds these arrays.  The form
    is read once, here, and not kept: poisson says it is Poisson-Nitsche,
    boundary is its boundary kernel, alpha and beta its penalties,
    ip_facets says whether interior-penalty facet blocks follow, and c is
    the plate forms' (1 - nu) weight, None where no twist or tangential
    row is read.
    """

    def __init__(self, element, form):
        _check_compatible(element, form)
        coeffs, poly, p = element.coeffs, element.poly, element.degree
        self.poisson = poisson = form.kind == "poisson_nitsche"
        verbatim = form.kind == "plate_clamped_nitsche"
        self.ip_facets = form.kind == "plate_ip"
        self.c = None if poisson or self.ip_facets else 1.0 - form.nu
        # constants of the kind and degree p; the clamped beta is calibrated
        # so the weak forms stay positive definite on perturbed meshes while
        # reaching their asymptotic rates
        self.alpha = 10.0 * p ** 2 if poisson else IP_PENALTY
        self.beta = 100.0 if verbatim else 10.0 * p ** 4 if p > 2 else 20.0
        self.boundary = (self.poisson_boundary_matrices if poisson else
                         self.clamped_nitsche_verbatim_matrices if verbatim
                         else self.clamped_matrices)
        self.cell_rule = triangle_rule(2 * p)
        self.cell_tab = tabulate_coeffs(poly, coeffs, self.cell_rule.points,
                                        1 if poisson else 2)
        self.facet_rule = interval_rule(2 * p)
        tabs = [tabulate_coeffs(poly, coeffs,
                                ref_edge_points(e, self.facet_rule.points),
                                1 if poisson else 3)
                for e in range(3)]
        self.facet_tab = {alpha: np.stack([t[alpha] for t in tabs])
                          for alpha in tabs[0]}

    def cell_matrices(self, geom):
        """Element matrices (B, n, n) in the pulled-back basis.

        Every derivative row of the block is live at once; BLOCK bounds
        them.  The plate form's factors 2 and 4 scale the products, which is
        exact, so the bits are those of scaling the weighted rows.
        """
        tab, c = self.cell_tab, self.c
        w = (self.cell_rule.weights * geom.detJinv_abs[:, None])[:, None, :]
        if self.poisson:
            gx = _directional(tab, geom.J, _EX)
            gy = _directional(tab, geom.J, _EY)
            return (gx * w) @ gx.mT + (gy * w) @ gy.mT
        if c is None:  # interior penalty: the Laplacian product alone
            hxx, hyy = _physical_hessian(tab, geom.J, (0, 2))
            lap = hxx + hyy
            return (lap * w) @ lap.mT
        hxx, hxy, hyy = _physical_hessian(tab, geom.J, (0, 1, 2))
        twist = 4.0 * ((hxy * w) @ hxy.mT)
        bend = c * (2.0 * ((hxx * w) @ hyy.mT) + 2.0 * ((hyy * w) @ hxx.mT)
                    - twist)
        lap = hxx + hyy
        return (lap * w) @ lap.mT - bend

    def _facet_rows(self, geom, e_loc, order):
        """Trace rows (F, n, q) on local edges e_loc (F,) of the cells in
        geom, along each cell's outward normal.  Order 3 adds the clamped
        terms' rows gl = lap - 2c vtt and gn = lap_n - 2c vntt, whose
        tangential parts only the plate forms (c not None) make."""
        tab = {alpha: t[e_loc] for alpha, t in self.facet_tab.items()
               if sum(alpha) <= order}
        J, c = geom.J, self.c
        n = geom.normals[np.arange(len(e_loc)), e_loc]
        rows = {"v": tab[(0, 0)]}
        if order >= 1:
            rows["vn"] = _directional(tab, J, n)
        if order >= 2:
            h = _physical_hessian(tab, J, (0, 2) if c is None else (0, 1, 2))
            rows["lap"] = rows["gl"] = h[0] + h[-1]  # hxx + hyy
        if order >= 3:
            rows["gn"] = (_directional(tab, J, n, _EX, _EX)
                          + _directional(tab, J, n, _EY, _EY))
            if c is not None:
                t = np.stack([-n[:, 1], n[:, 0]], axis=-1)  # CCW rotation of n
                tt = (t[:, 0] ** 2, 2.0 * t[:, 0] * t[:, 1], t[:, 1] ** 2)
                vtt = (_per(tt[0]) * h[0] + _per(tt[1]) * h[1]
                       + _per(tt[2]) * h[2])
                rows["gl"] = rows["lap"] - 2.0 * c * vtt
                rows["gn"] -= 2.0 * c * _directional(tab, J, n, t, t)
        return rows

    def boundary_matrices(self, geom, e_loc):
        """Boundary-facet matrices (F, n, n) on local edges e_loc (F,) of the
        cells in geom, by the form's boundary kernel."""
        ell = _per(geom.edge_lengths[np.arange(len(e_loc)), e_loc])
        return self.boundary(geom, e_loc, ell, self.facet_rule.weights * ell)

    def poisson_boundary_matrices(self, geom, e_loc, ell, w):
        r = self._facet_rows(geom, e_loc, order=1)
        v, vn = r["v"], r["vn"]
        return (-(vn * w) @ v.mT - (v * w) @ vn.mT
                + (self.alpha / ell) * (v * w) @ v.mT)

    def clamped_matrices(self, geom, e_loc, ell, w):
        """Consistent symmetric Nitsche terms for u = du/dn = 0 on the boundary."""
        r = self._facet_rows(geom, e_loc, order=3)
        gn, gl, v, vn = r["gn"], r["gl"], r["v"], r["vn"]
        return ((gn * w) @ v.mT + (v * w) @ gn.mT
                - (gl * w) @ vn.mT - (vn * w) @ gl.mT
                + (self.beta / ell ** 3) * (v * w) @ v.mT
                + (self.beta / ell) * (vn * w) @ vn.mT)

    def clamped_nitsche_verbatim_matrices(self, geom, e_loc, ell, w):
        """The six boundary terms of the clamped-plate form as printed."""
        r = self._facet_rows(geom, e_loc, order=3)
        gn, gl, v, vn, lap = r["gn"], r["gl"], r["v"], r["vn"], r["lap"]
        return ((self.beta / ell ** 2) * (v * w) @ v.mT
                + (self.beta / ell) * (lap * w) @ lap.mT
                + (gn * w) @ v.mT + (v * w) @ gn.mT
                + (gl * w) @ vn.mT + (vn * w) @ gl.mT)

    def ip_facet_triplets(self, mesh, dofmap, geom):
        """Interior-penalty jump/average blocks over all interior edges of
        the cells in geom, yielded one COO block of at most BLOCK edges at a
        time, in edge order.

        Each side differentiates along its own outward normal, minus the
        other's, so [vn_A, vn_B] is the jump along side A's normal.  The
        facet quadrature runs along the stored edge direction, so a side
        whose local edge does not (mesh.cell_edge_forward false) gets its
        point axis flipped (the Gauss rule is symmetric).  Only Lagrange
        elements take this form, so M = I and there is no congruence.
        """
        (cA, eA), (cB, eB) = _interior_facets(mesh)
        for lo in range(0, len(cA), BLOCK):
            blk = slice(lo, lo + BLOCK)
            sides = ((cA[blk], eA[blk]), (cB[blk], eB[blk]))
            traces = []
            for c, e in sides:
                r = self._facet_rows(geom[c], e, order=2)
                forward = _per(mesh.cell_edge_forward[c, e])
                traces.append([np.where(forward, x, x[..., ::-1])
                               for x in (r["vn"], r["lap"])])
            jump, avg = (np.concatenate(x, axis=1) for x in zip(*traces))
            avg *= 0.5
            ell = _per(geom.edge_lengths[cA[blk], eA[blk]])
            w = self.facet_rule.weights * ell
            local = ((self.alpha / ell) * (jump * w) @ jump.mT
                     - (avg * w) @ jump.mT - (jump * w) @ avg.mT)
            dofs = np.concatenate([dofmap.cell_dofs[c] for c, _ in sides], axis=1)
            yield dofs[:, :, None], dofs[:, None, :], local


def assemble_operator(mesh: TriangleMesh, element: ReferenceElement,
                      form: FormSpec, scale: bool = True) -> SparseMatrix:
    """Assemble the global operator of the requested form (CSR, symmetric)."""
    kern = _Kernels(element, form)
    data = cell_blocks(mesh, element, scale)
    dofmap = data.dofmap
    on_boundary = np.isin(mesh.cell_edges, mesh.boundary_edges)

    def blocks():
        for cells, geom, M in data.each_block():
            A = kern.cell_matrices(geom)
            # (cell, local edge) pairs in cell order, so each cell's facet
            # terms are added in local edge order
            fc, fe = np.nonzero(on_boundary[cells])
            np.add.at(A, fc, kern.boundary_matrices(geom[fc], fe))
            if M is not None:  # the congruence; Lagrange's M is the identity
                A = M @ A @ M.mT
            dofs = dofmap.cell_dofs[cells]  # COO rows and cols, row by row
            yield dofs[:, :, None], dofs[:, None, :], A
        if kern.ip_facets:
            yield from kern.ip_facet_triplets(mesh, dofmap, data.geom)

    # the triplet count sizes the buffers of the CSR step, which holds the
    # peak memory of a rung: k^2 per cell, (2k)^2 per interior facet
    size = mesh.n_cells * element.n_dofs ** 2
    if kern.ip_facets:
        interior = mesh.n_edges - len(mesh.boundary_edges)
        size += interior * (2 * element.n_dofs) ** 2
    A = _csr_from_blocks(dofmap.total_dofs, size, blocks())
    if kern.poisson and element.family == "lagrange" and element.degree >= 2:
        A.coarse = p1_prolongation(mesh, element, dofmap)
    return A


def p1_prolongation(mesh: TriangleMesh, element: ReferenceElement,
                    dofmap: DofMap) -> scipy.sparse.csr_array:
    """The exact embedding of continuous P1 into continuous Lagrange P_k on
    one mesh, as an (n_dofs, n_vertices) CSR matrix with _index_dtype
    indices: row i holds the barycentric coordinates of node i in a cell
    that contains it.

    A node shared by several cells has the same coordinates in each, so
    each row is written once, from the node's first cell; summing the
    copies would multiply shared entries.
    """
    x, y = np.array([fn.point for fn in element.functionals]).T
    lam = np.stack([1.0 - x - y, x, y], axis=1)
    for i, fn in enumerate(element.functionals):
        if fn.entity[0] == 1:  # reference edge e lies opposite vertex e
            lam[i, fn.entity[1]] = 0.0
    _, first = np.unique(dofmap.cell_dofs, return_index=True)
    cell, local = np.divmod(first, element.n_dofs)
    cols, vals = mesh.cells[cell], lam[local]
    keep = vals != 0.0
    idx = _index_dtype(dofmap.total_dofs, keep.sum())
    indptr = np.concatenate([[0], np.cumsum(keep.sum(axis=1))]).astype(idx)
    return scipy.sparse.csr_array((vals[keep], cols[keep].astype(idx), indptr),
                                  shape=(dofmap.total_dofs, mesh.n_vertices))


def assemble_load(mesh: TriangleMesh, element: ReferenceElement,
                  f: ScalarField, form: FormSpec, scale: bool = True) -> np.ndarray:
    """Cellwise load vector (f, v); homogeneous essential data assumed, so
    there are no boundary contributions.  Only the values of the basis are
    tabulated, at the cell rule of the operator's kernels."""
    _check_compatible(element, form)
    rule = triangle_rule(2 * element.degree)
    tab0 = tabulate_coeffs(element.poly, element.coeffs, rule.points, 0)[(0, 0)]
    data = cell_blocks(mesh, element, scale)
    dofmap = data.dofmap
    b = np.zeros(dofmap.total_dofs)
    for cells, geom, M in data.each_block():
        w = rule.weights * geom.detJinv_abs[:, None]
        X = geom.ref_to_phys(rule.points)
        local = tab0 @ (w * f.f(X[..., 0], X[..., 1]))[:, :, None]
        if M is not None:
            local = M @ local
        np.add.at(b, dofmap.cell_dofs[cells], local[:, :, 0])
    return b


def interpolate(mesh: TriangleMesh, element: ReferenceElement, f: ScalarField,
                scale: bool = True) -> np.ndarray:
    """Global DoF vector of the nodal interpolant, consistent with the
    (scaled) transformation pipeline, edge-normal DoFs along the global
    normal.  A DoF shared by several cells takes the value of the last of
    them.  A field without the grad or hess the DoFs read is a ValueError."""
    fns = element.functionals
    order = max(fn.derivative_order for fn in fns)
    for name in ("grad", "hess")[:order]:
        if getattr(f, name) is None:
            raise ValueError(f"interpolating into {element.describe()} "
                             f"needs the field's {name}")
    data = cell_blocks(mesh, element, scale)
    dofmap, geom = data.dofmap, data.geom
    X = geom.ref_to_phys(np.array([fn.point for fn in fns]))
    x, y = X[..., 0], X[..., 1]
    tab = {(0, 0): np.broadcast_to(f.f(x, y), x.shape)}
    if order >= 1:
        tab[(1, 0)], tab[(0, 1)] = np.asarray(f.grad(x, y), dtype=float)
    if order >= 2:
        hess = np.asarray(f.hess(x, y), dtype=float)
        tab[(2, 0)], tab[(1, 1)], tab[(0, 2)] = hess[0, 0], hess[0, 1], hess[1, 1]
    local = apply_functionals(fns, tab, _global_normals(mesh, geom))
    if scale:
        local = local / scaling_diagonal(element, geom)

    u = np.zeros(dofmap.total_dofs)
    dofs = dofmap.cell_dofs.ravel()
    last = len(dofs) - 1 - np.unique(dofs[::-1], return_index=True)[1]
    u[dofs[last]] = local.ravel()[last]
    return u


def l2_error(mesh: TriangleMesh, element: ReferenceElement, u_h: np.ndarray,
             u_exact: ScalarField, scale: bool = True) -> float:
    """L2 norm of (u_h - u_exact), with u_h reconstructed per cell through the
    transformed basis and integrated at degree 2*embedded_degree + 2.  A u_h
    whose length is not the space's DoF count is a ValueError."""
    data = cell_blocks(mesh, element, scale)
    dofmap = data.dofmap
    if len(u_h) != dofmap.total_dofs:
        raise ValueError(f"u_h has {len(u_h)} entries for "
                         f"{dofmap.total_dofs} DoFs")
    rule = triangle_rule(2 * element.degree + 2)
    tab0 = tabulate_coeffs(element.poly, element.coeffs, rule.points, 0)[(0, 0)]

    # per-cell integrals, summed in cell order by a sequential cumsum
    terms = []
    for cells, geom, M in data.each_block():
        local = u_h[dofmap.cell_dofs[cells]]
        vals = (local[:, None, :] @ (tab0 if M is None else M @ tab0))[:, 0]
        X = geom.ref_to_phys(rule.points)
        diff = vals - u_exact.f(X[..., 0], X[..., 1])
        terms.append(geom.detJinv_abs * np.vecdot(rule.weights, diff * diff))
    return float(np.sqrt(np.cumsum(np.concatenate(terms))[-1]))
