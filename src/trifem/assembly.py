"""Global DoF management and assembly of bilinear forms into sparse matrices.

Element matrices are integrated in the pulled-back reference basis and
transformed afterwards with the cell's (scaled) transformation matrix,
A = M Atilde M^T; facet terms are treated the same way.  Shared
edge-normal derivative DoFs carry orientation signs: +1 on the cell whose
outward normal agrees with the global edge normal (the stored-edge
direction rotated 90 degrees counter-clockwise), -1 on the other.

Supported forms: Poisson with Nitsche boundary terms, the plate-bending
form (optionally with weakly-enforced clamped boundary conditions), the
C0 interior-penalty biharmonic form, and the clamped-plate Nitsche form
as printed in its source (assembly and symmetry checks only).

The operator, load and (in solver) L2-error passes share one cell-batched
pipeline, cell_blocks: geometry and M are built with array operations for
a fixed-size block of cells at once, and the cell and facet kernels run on
whole blocks as batched matmuls.  Each kernel performs, per cell, the same
floating-point operations as a cell-by-cell evaluation would, so batching
changes no result bit; blocks, facets and COO triplets come in a fixed
order, so results are deterministic.
"""

from dataclasses import dataclass, replace

import numpy as np
import scipy.sparse

from . import transform
from .mesh import TriangleMesh, batch_geometry, vertex_size_field
from .quadrature import interval_rule, triangle_rule
from .refelem import (EDGE_VERTICES, REF_VERTICES, ReferenceElement,
                      tabulate_coeffs)
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

    def __call__(self, points):
        pts = np.atleast_2d(points)
        return np.asarray(self.f(pts[..., 0], pts[..., 1]), dtype=float)


class SparseMatrix(scipy.sparse.csr_array):
    """Square CSR matrix: scipy's csr_array plus its order n and a matvec."""

    @property
    def n(self):
        return self.shape[0]

    def matvec(self, x):
        return self @ x


def csr_from_coo(n, rows, cols, vals) -> SparseMatrix:
    """Build CSR from triplets; duplicate entries are summed in input order.

    scipy's own COO-to-CSR conversion sums duplicates in another order: that
    moves some entries by an ulp, and the biharmonic study errors far more.
    """
    rows = np.asarray(rows, dtype=np.int64)
    cols = np.asarray(cols, dtype=np.int64)
    vals = np.asarray(vals, dtype=float)
    keys = rows * n + cols
    order = np.argsort(keys, kind="stable")
    keys, vals = keys[order], vals[order]
    first = np.ones(len(keys), dtype=bool)
    first[1:] = keys[1:] != keys[:-1]
    starts = np.flatnonzero(first)
    summed = np.add.reduceat(vals, starts) if len(vals) else vals
    indptr = np.searchsorted(keys[starts], np.arange(n + 1) * n)
    return SparseMatrix((summed, keys[starts] % n, indptr), shape=(n, n))


def symmetry_error(A: SparseMatrix) -> float:
    """max |A - A^T|, computed sparsely."""
    return float(abs(A - A.T).max())


@dataclass
class DofMap:
    """Local-to-global map with orientation signs and entity-block layout.

    Global DoFs are laid out vertex blocks first, then edge blocks, then
    cell blocks.
    """

    cell_dofs: np.ndarray
    cell_signs: np.ndarray
    total_dofs: int
    n_local: int
    vertex_width: int
    edge_width: int
    cell_width: int


def build_dof_map(mesh: TriangleMesh, element: ReferenceElement) -> DofMap:
    ent = element.entity_dofs()
    n_v, n_e, n_c = len(ent[0][0]), len(ent[1][0]), len(ent[2][0])
    V, E, C = mesh.n_vertices, mesh.n_edges, mesh.n_cells
    edge_offset = V * n_v
    cell_offset = edge_offset + E * n_e
    total = cell_offset + C * n_c

    n_local = element.n_dofs
    cell_dofs = np.zeros((C, n_local), dtype=np.int64)
    cell_signs = np.ones((C, n_local))
    normal_dof = any(f.kind == "edge_normal_deriv" for f in element.functionals)

    for v_loc in range(3):
        cell_dofs[:, ent[0][v_loc]] = mesh.cells[:, v_loc, None] * n_v + np.arange(n_v)
    k = np.arange(n_e)
    for e_loc, (a, b) in enumerate(EDGE_VERTICES):
        base = edge_offset + mesh.cell_edges[:, e_loc, None] * n_e
        if normal_dof:
            # outward normal agrees with the global edge normal iff the
            # cell traverses the edge against stored order
            cell_dofs[:, ent[1][e_loc]] = base + k
            cell_signs[:, ent[1][e_loc]] = -mesh.cell_edge_signs[:, e_loc, None]
        else:
            # point DoFs are matched by position along the edge
            forward = (mesh.cells[:, a] < mesh.cells[:, b])[:, None]
            cell_dofs[:, ent[1][e_loc]] = base + np.where(forward, k, n_e - 1 - k)
    cell_dofs[:, ent[2][0]] = cell_offset + np.arange(C)[:, None] * n_c + np.arange(n_c)
    return DofMap(cell_dofs=cell_dofs, cell_signs=cell_signs, total_dofs=total,
                  n_local=n_local, vertex_width=n_v, edge_width=n_e,
                  cell_width=n_c)


# Cells (or interior edges) per block: bounds the per-block M, kernel and
# trace arrays independently of the mesh size.
BLOCK = 512


def cell_blocks(mesh: TriangleMesh, element: ReferenceElement, scale: bool):
    """The per-cell pipeline every pass shares.

    Yields (cells, geometry, M) for consecutive blocks of at most
    BLOCK cells: a slice of cell indices, their batched geometry and
    their (scaled) transformation matrices, shape (cells, n_dofs, n_tab).
    M is None for Lagrange, whose M is the identity.
    """
    size_field = vertex_size_field(mesh) if scale else None
    geom = batch_geometry(mesh, size_field)
    for lo in range(0, mesh.n_cells, BLOCK):
        cells = slice(lo, lo + BLOCK)
        g = geom[cells]
        M = None if element.family == "lagrange" else \
            transform.cell_transform(element, g, scale).matrix
        yield cells, g, M


FORM_KINDS = ("poisson_nitsche", "plate", "plate_ip", "plate_clamped_nitsche")


@dataclass(frozen=True)
class FormSpec:
    """Which bilinear form to assemble, with its parameters.

    clamped_boundary adds consistent symmetric Nitsche terms for the
    clamped conditions u = du/dn = order0 on the boundary to the plate and
    interior-penalty forms (penalty scalings beta1/h^3 and beta2/h); it is
    what the biharmonic convergence studies run.  plate_clamped_nitsche
    reproduces its source form verbatim instead and is only meant for
    assembly and symmetry checks.
    """

    kind: str
    alpha: float = None
    nu: float = 0.0
    beta1: float = None
    beta2: float = None
    clamped_boundary: bool = False
    cell_degree: int = None
    facet_degree: int = None

    def __post_init__(self):
        if self.kind not in FORM_KINDS:
            raise ValueError(f"unknown form kind {self.kind}")
        if not 0.0 <= self.nu <= 0.5:
            raise ValueError("Poisson ratio must lie in [0, 1/2]")
        for name in ("alpha", "beta1", "beta2"):
            val = getattr(self, name)
            if val is not None and val <= 0:
                raise ValueError(f"{name} must be positive")


def poisson_nitsche(alpha=None, **kw) -> FormSpec:
    return FormSpec(kind="poisson_nitsche", alpha=alpha, **kw)


def plate(nu=0.0, **kw) -> FormSpec:
    return FormSpec(kind="plate", nu=nu, **kw)


def plate_ip(alpha=100.0, **kw) -> FormSpec:
    return FormSpec(kind="plate_ip", alpha=alpha, **kw)


def plate_clamped_nitsche(nu=0.0, beta1=100.0, beta2=100.0, **kw) -> FormSpec:
    return FormSpec(kind="plate_clamped_nitsche", nu=nu, beta1=beta1,
                    beta2=beta2, **kw)


def _check_compatible(element: ReferenceElement, form: FormSpec):
    fam = element.family
    if form.kind == "poisson_nitsche":
        return
    if form.kind == "plate_ip":
        if fam != "lagrange" or element.lagrange_degree < 2:
            raise ValueError("interior-penalty plate form needs Lagrange k >= 2")
        return
    if fam not in ("morley", "argyris", "bell"):
        raise ValueError(f"{form.kind} needs an H2-type element, got {fam}")


def _resolve_form(element: ReferenceElement, form: FormSpec) -> FormSpec:
    _check_compatible(element, form)
    p = element.degree
    updates = {}
    if form.cell_degree is None:
        updates["cell_degree"] = 2 * p
    if form.facet_degree is None:
        updates["facet_degree"] = 2 * p
    if form.alpha is None:
        updates["alpha"] = 10.0 * p ** 2 if form.kind == "poisson_nitsche" else 20.0
    # clamped-boundary penalties: calibrated so the weak forms stay positive
    # definite on perturbed meshes while reaching their asymptotic rates
    clamped_beta = 10.0 * p ** 4 if p > 2 else 20.0
    if form.beta1 is None:
        updates["beta1"] = 100.0 if form.kind == "plate_clamped_nitsche" else clamped_beta
    if form.beta2 is None:
        updates["beta2"] = 100.0 if form.kind == "plate_clamped_nitsche" else clamped_beta
    return replace(form, **updates) if updates else form


def _per(x):
    """Per-cell (or per-facet) scalars (B,) against rows (B, n, q)."""
    return x[:, None, None]


def _T(x):
    return np.swapaxes(x, -1, -2)


def _push(J, d):
    """J d for Jacobians (B, 2, 2) and directions (B, 2) or (2,), as (2, B)."""
    return (J @ np.broadcast_to(d, J.shape[:-1])[:, :, None])[:, :, 0].T


def _physical_hessian(tab, J):
    T = hessian_pushforward(J)
    href = (tab[(2, 0)], tab[(1, 1)], tab[(0, 2)])
    return tuple(_per(T[:, k, 0]) * href[0] + _per(T[:, k, 1]) * href[1]
                 + _per(T[:, k, 2]) * href[2] for k in range(3))


def _directional_first(tab, J, d):
    """d . grad of the pullbacks: reference gradients contracted with J d."""
    e = _push(J, d)
    return _per(e[0]) * tab[(1, 0)] + _per(e[1]) * tab[(0, 1)]


def _directional_third(tab, J, d1, d2, d3):
    """Third directional derivative of pullbacks: contract reference third
    derivatives with J d1, J d2, J d3 (affine cells only)."""
    e1, e2, e3 = _push(J, d1), _push(J, d2), _push(J, d3)
    t30, t21, t12, t03 = tab[(3, 0)], tab[(2, 1)], tab[(1, 2)], tab[(0, 3)]
    return (_per(e1[0] * e2[0] * e3[0]) * t30
            + _per(e1[0] * e2[0] * e3[1] + e1[0] * e2[1] * e3[0]
                   + e1[1] * e2[0] * e3[0]) * t21
            + _per(e1[0] * e2[1] * e3[1] + e1[1] * e2[0] * e3[1]
                   + e1[1] * e2[1] * e3[0]) * t12
            + _per(e1[1] * e2[1] * e3[1]) * t03)


_EX = np.array([1.0, 0.0])
_EY = np.array([0.0, 1.0])


def _edge_ref_points(rule):
    pts = []
    for a, b in EDGE_VERTICES:
        pts.append(REF_VERTICES[a][None, :]
                   + rule.points[:, None] * (REF_VERTICES[b] - REF_VERTICES[a])[None, :])
    return pts


def _congruence(M, A):
    """M A M^T for a batch; Lagrange (M None) skips it, since M = I."""
    return A if M is None else M @ A @ _T(M)


def _triplets(dofs, signs, local):
    """COO triplets of local matrices (B, n, n) through DoFs and signs (B, n)."""
    n = dofs.shape[1]
    return (np.repeat(dofs, n, axis=1).ravel(), np.tile(dofs, (1, n)).ravel(),
            (local * (signs[:, :, None] * signs[:, None, :])).ravel())


def _interior_facets(mesh: TriangleMesh):
    """Both sides of every interior edge, in edge order, as ((cA, eA), (cB, eB))
    cell and local-edge arrays; side A is the lower cell index."""
    flat = mesh.cell_edges.ravel()
    counts = np.bincount(flat, minlength=mesh.n_edges)
    first = (np.cumsum(counts) - counts)[counts == 2]
    order = np.argsort(flat, kind="stable")
    return np.divmod(order[first], 3), np.divmod(order[first + 1], 3)


class _Kernels:
    """Shared tabulations and the cell and facet kernels of one form, each
    evaluated for a batch of cells or facets at once.

    Kernels work pointwise: rows (B, n, q) of physical derivatives at the
    quadrature points, weighted and contracted by batched matmul.  A batch
    is one block of cells (or facets), which bounds these arrays.
    """

    def __init__(self, element, form):
        self.form = _resolve_form(element, form)
        coeffs, poly = element.tabulation_coeffs(), element.poly
        poisson = self.form.kind == "poisson_nitsche"
        if self.form.cell_degree > 12:
            import warnings
            warnings.warn(f"cell quadrature degree {self.form.cell_degree} "
                          "exceeds the available rules; clamping to 12",
                          stacklevel=2)
        self.cell_rule = triangle_rule(min(self.form.cell_degree, 12))
        self.cell_tab = tabulate_coeffs(poly, coeffs, self.cell_rule.points,
                                        1 if poisson else 2)
        self.facet_rule = interval_rule(self.form.facet_degree)
        tabs = [tabulate_coeffs(poly, coeffs, pts, 1 if poisson else 3)
                for pts in _edge_ref_points(self.facet_rule)]
        self.facet_tab = {alpha: np.stack([t[alpha] for t in tabs])
                          for alpha in tabs[0]}

    def cell_matrices(self, geom):
        """Element matrices (B, n, n) in the pulled-back basis."""
        form, tab = self.form, self.cell_tab
        w = (self.cell_rule.weights * geom.detJinv_abs[:, None])[:, None, :]
        if form.kind == "poisson_nitsche":
            gx, gy = (_directional_first(tab, geom.J, d) for d in (_EX, _EY))
            return (gx * w) @ _T(gx) + (gy * w) @ _T(gy)
        hxx, hxy, hyy = _physical_hessian(tab, geom.J)
        lap = hxx + hyy
        A = (lap * w) @ _T(lap)
        if form.kind in ("plate", "plate_clamped_nitsche"):
            c = 1.0 - form.nu
            A -= c * (2.0 * (hxx * w) @ _T(hyy) + 2.0 * (hyy * w) @ _T(hxx)
                      - 4.0 * (hxy * w) @ _T(hxy))
        return A

    def _facet_rows(self, geom, e_loc, order):
        """Trace rows (F, n, q) on local edges e_loc (F,) of the cells in geom."""
        tab = {alpha: t[e_loc] for alpha, t in self.facet_tab.items()}
        n = geom.normals[np.arange(len(e_loc)), e_loc]
        rows = {"v": tab[(0, 0)]}
        if order >= 1:
            rows["vn"] = _directional_first(tab, geom.J, n)
        if order >= 2:
            hxx, hxy, hyy = _physical_hessian(tab, geom.J)
            rows["lap"] = hxx + hyy
            t = np.stack([-n[:, 1], n[:, 0]], axis=-1)  # facet tangent, CCW rotation of n
            tt = (t[:, 0] ** 2, 2.0 * t[:, 0] * t[:, 1], t[:, 1] ** 2)
            rows["vtt"] = _per(tt[0]) * hxx + _per(tt[1]) * hxy + _per(tt[2]) * hyy
            if order >= 3:
                rows["lap_n"] = (_directional_third(tab, geom.J, n, _EX, _EX)
                                 + _directional_third(tab, geom.J, n, _EY, _EY))
                rows["vntt"] = _directional_third(tab, geom.J, n, t, t)
        return rows

    def boundary_matrices(self, geom, e_loc):
        """Boundary-facet matrices (F, n, n) on local edges e_loc (F,) of the
        cells in geom, for the form's boundary terms."""
        ell = _per(geom.edge_lengths[np.arange(len(e_loc)), e_loc])
        w = self.facet_rule.weights * ell
        if self.form.kind == "poisson_nitsche":
            return self.poisson_boundary_matrices(geom, e_loc, ell, w)
        if self.form.kind == "plate_clamped_nitsche":
            return self.clamped_nitsche_verbatim_matrices(geom, e_loc, ell, w)
        return self.clamped_boundary_matrices(geom, e_loc, ell, w)

    def poisson_boundary_matrices(self, geom, e_loc, ell, w):
        r = self._facet_rows(geom, e_loc, order=1)
        v, vn = r["v"], r["vn"]
        return (-(vn * w) @ _T(v) - (v * w) @ _T(vn)
                + (self.form.alpha / ell) * (v * w) @ _T(v))

    def clamped_boundary_matrices(self, geom, e_loc, ell, w):
        """Consistent symmetric Nitsche terms for u = du/dn = 0 on the boundary."""
        form = self.form
        r = self._facet_rows(geom, e_loc, order=3)
        c = (1.0 - form.nu) if form.kind == "plate" else 0.0
        gn = r["lap_n"] - 2.0 * c * r["vntt"]
        gl = r["lap"] - 2.0 * c * r["vtt"]
        v, vn = r["v"], r["vn"]
        return ((gn * w) @ _T(v) + (v * w) @ _T(gn)
                - (gl * w) @ _T(vn) - (vn * w) @ _T(gl)
                + (form.beta1 / ell ** 3) * (v * w) @ _T(v)
                + (form.beta2 / ell) * (vn * w) @ _T(vn))

    def clamped_nitsche_verbatim_matrices(self, geom, e_loc, ell, w):
        """The six boundary terms of the clamped-plate form as printed."""
        form = self.form
        r = self._facet_rows(geom, e_loc, order=3)
        c = 1.0 - form.nu
        gn = r["lap_n"] - 2.0 * c * r["vntt"]
        gl = r["lap"] - 2.0 * c * r["vtt"]
        v, vn, lap = r["v"], r["vn"], r["lap"]
        return ((form.beta1 / ell ** 2) * (v * w) @ _T(v)
                + (form.beta2 / ell) * (lap * w) @ _T(lap)
                + (gn * w) @ _T(v) + (v * w) @ _T(gn)
                + (gl * w) @ _T(vn) + (vn * w) @ _T(gl))

    def ip_facet_triplets(self, mesh, dofmap):
        """Interior-penalty jump/average blocks over all interior edges, as
        COO triplets in edge order.

        Jumps and averages use the master side A's outward normal; the
        facet quadrature runs along the stored edge direction, so a side
        whose local parametrization is reversed gets its point axis
        flipped (the Gauss rule is symmetric).  Only Lagrange elements
        take this form, so M = I and there is no congruence.
        """
        geom = batch_geometry(mesh)
        (cA, eA), (cB, eB) = _interior_facets(mesh)
        parts = []
        for lo in range(0, len(cA), BLOCK):
            blk = slice(lo, lo + BLOCK)
            sides = ((cA[blk], eA[blk]), (cB[blk], eB[blk]))
            n = geom.normals[cA[blk], eA[blk]]
            ell = _per(geom.edge_lengths[cA[blk], eA[blk]])
            (vnA, lapA), (vnB, lapB) = (self._ip_traces(mesh, geom, c, e, n)
                                        for c, e in sides)
            jump = np.concatenate([vnA, -vnB], axis=1)
            avg = 0.5 * np.concatenate([lapA, lapB], axis=1)
            w = self.facet_rule.weights * ell
            local = ((self.form.alpha / ell) * (jump * w) @ _T(jump)
                     - (avg * w) @ _T(jump) - (jump * w) @ _T(avg))
            parts.append(_triplets(
                np.concatenate([dofmap.cell_dofs[c] for c, _ in sides], axis=1),
                np.concatenate([dofmap.cell_signs[c] for c, _ in sides], axis=1),
                local))
        return parts

    def _ip_traces(self, mesh, geom, cells, e_loc, n):
        """Derivative along n and Laplacian of one side's traces on its local
        edges e_loc, with the point axis along the stored edge direction."""
        tab = {alpha: t[e_loc] for alpha, t in self.facet_tab.items()}
        J = geom.J[cells]
        hxx, _, hyy = _physical_hessian(tab, J)
        a, b = np.array(EDGE_VERTICES)[e_loc].T
        forward = _per(mesh.cells[cells, a] < mesh.cells[cells, b])
        return [np.where(forward, x, x[..., ::-1])
                for x in (_directional_first(tab, J, n), hxx + hyy)]


def assemble_operator(mesh: TriangleMesh, element: ReferenceElement,
                      form: FormSpec, scale: bool = True) -> SparseMatrix:
    """Assemble the global operator of the requested form (CSR, symmetric)."""
    kern = _Kernels(element, form)
    form = kern.form
    dofmap = build_dof_map(mesh, element)
    boundary_terms = (form.kind in ("poisson_nitsche", "plate_clamped_nitsche")
                      or form.clamped_boundary)
    on_boundary = np.isin(mesh.cell_edges, mesh.boundary_edges)

    parts = []
    for cells, geom, M in cell_blocks(mesh, element, scale):
        A = kern.cell_matrices(geom)
        if boundary_terms:
            # (cell, local edge) pairs in cell order, so each cell's facet
            # terms are added in local edge order
            fc, fe = np.nonzero(on_boundary[cells])
            np.add.at(A, fc, kern.boundary_matrices(geom[fc], fe))
        parts.append(_triplets(dofmap.cell_dofs[cells], dofmap.cell_signs[cells],
                               _congruence(M, A)))
    if form.kind == "plate_ip":
        parts += kern.ip_facet_triplets(mesh, dofmap)

    rows, cols, vals = (np.concatenate(x) for x in zip(*parts))
    return csr_from_coo(dofmap.total_dofs, rows, cols, vals)


def assemble_load(mesh: TriangleMesh, element: ReferenceElement,
                  f: ScalarField, form: FormSpec, scale: bool = True) -> np.ndarray:
    """Cellwise load vector (f, v); homogeneous essential data assumed, so
    there are no boundary contributions."""
    kern = _Kernels(element, form)
    rule, tab0 = kern.cell_rule, kern.cell_tab[(0, 0)]
    dofmap = build_dof_map(mesh, element)
    b = np.zeros(dofmap.total_dofs)
    for cells, geom, M in cell_blocks(mesh, element, scale):
        w = rule.weights * geom.detJinv_abs[:, None]
        local = tab0 @ (w * f(geom.ref_to_phys(rule.points)))[:, :, None]
        if M is not None:
            local = M @ local
        np.add.at(b, dofmap.cell_dofs[cells],
                  dofmap.cell_signs[cells] * local[:, :, 0])
    return b


_HESS_INDEX = {"xx": (0, 0), "xy": (0, 1), "yy": (1, 1)}


def interpolate(mesh: TriangleMesh, element: ReferenceElement, f: ScalarField,
                scale: bool = True) -> np.ndarray:
    """Global DoF vector of the nodal interpolant, consistent with the
    (scaled) transformation pipeline.  A DoF shared by several cells takes
    the value of the last of them."""
    dofmap = build_dof_map(mesh, element)
    geom = batch_geometry(mesh, vertex_size_field(mesh) if scale else None)
    fns = element.functionals
    X = geom.ref_to_phys(np.array([fn.point for fn in fns]))
    x, y = X[..., 0], X[..., 1]
    kinds = {fn.kind for fn in fns}
    value = np.broadcast_to(f(X), x.shape)
    grad = (np.asarray(f.grad(x, y), dtype=float)
            if kinds & {"point_deriv", "edge_normal_deriv"} else None)
    hess = (np.asarray(f.hess(x, y), dtype=float)
            if "point_second_deriv" in kinds else None)

    local = np.empty(x.shape)
    for i, fn in enumerate(fns):
        if fn.kind == "point_eval":
            local[:, i] = value[:, i]
        elif fn.kind in ("point_deriv", "edge_normal_deriv"):
            d = fn.direction if fn.kind == "point_deriv" else geom.normals[:, fn.edge].T
            local[:, i] = d[0] * grad[0, :, i] + d[1] * grad[1, :, i]
        else:
            local[:, i] = hess[_HESS_INDEX[fn.component]][:, i]
    if scale and element.family != "lagrange":
        local = local / scaling_diagonal(element.family, geom)

    u = np.zeros(dofmap.total_dofs)
    dofs = dofmap.cell_dofs.ravel()
    last = len(dofs) - 1 - np.unique(dofs[::-1], return_index=True)[1]
    u[dofs[last]] = (dofmap.cell_signs * local).ravel()[last]
    return u


def matrix_stats(A: SparseMatrix, solve) -> dict:
    """DoF count, mean nonzeros per row and a power-iteration condition estimate.

    solve must apply A^{-1} (SPD assumed); extreme eigenvalues are iterated
    to a relative tolerance of 1e-5.
    """
    lam_max = _power_iteration(A.matvec, A.n)
    lam_min_inv = _power_iteration(solve, A.n)
    return {"total_dofs": A.n,
            "nnz_per_row": A.nnz / A.n,
            "condition_estimate": lam_max * lam_min_inv}


def _power_iteration(op, n, rtol=1e-5, max_iter=50000):
    rng = np.random.default_rng(1234)
    v = rng.standard_normal(n)
    v /= np.linalg.norm(v)
    lam = 0.0
    for _ in range(max_iter):
        w = op(v)
        lam_new = float(v @ w)
        nrm = np.linalg.norm(w)
        if nrm == 0.0:
            return 0.0
        v = w / nrm
        if abs(lam_new - lam) <= rtol * abs(lam_new):
            return abs(lam_new)
        lam = lam_new
    return abs(lam)


def export_matrix_market(A: SparseMatrix, path) -> None:
    """MatrixMarket coordinate format, real symmetric (lower triangle)."""
    C = A.tocoo()
    keep = C.row >= C.col
    with open(path, "w") as fh:
        fh.write("%%MatrixMarket matrix coordinate real symmetric\n")
        fh.write(f"{A.n} {A.n} {int(keep.sum())}\n")
        for r, c, v in zip(C.row[keep], C.col[keep], C.data[keep]):
            fh.write(f"{r + 1} {c + 1} {v:.17g}\n")


def export_vector(vec, path) -> None:
    """Plain-text vector export, one value per line, 17 significant digits."""
    with open(path, "w") as fh:
        for v in np.asarray(vec).ravel():
            fh.write(f"{v:.17g}\n")
