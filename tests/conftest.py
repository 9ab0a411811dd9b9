"""Shared helpers: deterministic random cells, polynomial fields, the
independent chain-rule oracle used to check transformation duality, the
L2 projection that gives each global space's best approximation and the
roundoff envelope of a study error."""

import numpy as np
import pytest
import scipy.sparse
import scipy.sparse.linalg
import sympy

from trifem import mesh, transform
from trifem.assembly import ScalarField, cell_blocks
from trifem.quadrature import triangle_rule
from trifem.refelem import tabulate_coeffs

X, Y = sympy.symbols("x y")


def make_rng(seed=20240817):
    return np.random.default_rng(seed)


def random_triangle(rng, min_quality=0.05):
    """Nondegenerate CCW triangle with area > min_quality * diameter^2."""
    while True:
        v = rng.uniform(-1.0, 1.0, (3, 2)) * rng.uniform(0.3, 3.0)
        u, w = v[1] - v[0], v[2] - v[0]
        area = 0.5 * (u[0] * w[1] - u[1] * w[0])
        if area < 0:
            v = v[[0, 2, 1]]
            area = -area
        diam = max(np.hypot(*(v[b] - v[a])) for a, b in ((1, 2), (0, 2), (0, 1)))
        if area > min_quality * diam * diam:
            return v


def triangle_geometry(verts, with_sizes=True):
    msh = mesh.TriangleMesh(np.asarray(verts, dtype=float), np.array([[0, 1, 2]]))
    field = mesh.vertex_size_field(msh) if with_sizes else None
    return mesh.cell_geometry(msh, 0, field)


def sample_points(degree=10):
    """Lattice on the closed reference triangle; degree 10 gives 66 points."""
    return np.array([(i / degree, j / degree)
                     for i in range(degree + 1) for j in range(degree + 1 - i)])


def poly_field(expr) -> ScalarField:
    """ScalarField with exact derivatives of a sympy expression in X, Y.

    Every component has the shape of x, constant ones included, so the
    field can be evaluated at one point or at arrays of points."""
    fns = {}
    for name, e in [("f", expr), ("fx", expr.diff(X)), ("fy", expr.diff(Y)),
                    ("fxx", expr.diff(X, 2)), ("fxy", expr.diff(X, Y)),
                    ("fyy", expr.diff(Y, 2))]:
        fns[name] = sympy.lambdify((X, Y), e, "numpy")

    def ev(name, x, y):
        return np.broadcast_to(np.asarray(fns[name](x, y), dtype=float),
                               np.shape(x)).copy()

    return ScalarField(
        f=lambda x, y: ev("f", x, y),
        grad=lambda x, y: np.array([ev("fx", x, y), ev("fy", x, y)]),
        hess=lambda x, y: np.array([[ev("fxx", x, y), ev("fxy", x, y)],
                                    [ev("fxy", x, y), ev("fyy", x, y)]]))


def physical_functional_matrix(element, geom):
    """Independent duality oracle: each physical nodal functional applied to
    every pulled-back basis function, via chain-rule tabulation."""
    coeffs = element.coeffs
    J = geom.J
    T = transform.hessian_pushforward(J)
    comp_index = {"xx": 0, "xy": 1, "yy": 2}
    rows = []
    for fn in element.functionals:
        pt = np.asarray(fn.point)[None, :]
        tab = tabulate_coeffs(element.poly, coeffs, pt, 2)
        if fn.kind == "point_eval":
            rows.append(tab[(0, 0)][:, 0])
            continue
        ghat = np.array([tab[(1, 0)][:, 0], tab[(0, 1)][:, 0]])
        if fn.kind == "point_deriv":
            rows.append((J @ np.asarray(fn.direction)) @ ghat)
        elif fn.kind == "edge_normal_deriv":
            rows.append((J @ geom.normals[fn.edge]) @ ghat)
        else:
            hhat = np.array([tab[(2, 0)][:, 0], tab[(1, 1)][:, 0], tab[(0, 2)][:, 0]])
            rows.append(T[comp_index[fn.component]] @ hhat)
    return np.array(rows)


def interpolate_on_cell(element, geom, field: ScalarField, normals=None):
    """Local DoF values of a smooth field on one physical cell (unscaled);
    edge-normal DoFs read normals (3, 2), the cell's outward ones by
    default."""
    normals = geom.normals if normals is None else normals
    vals = np.zeros(element.n_dofs)
    for i, fn in enumerate(element.functionals):
        x = geom.ref_to_phys(np.asarray(fn.point)[None, :])[0]
        if fn.kind == "point_eval":
            vals[i] = field.f(x[0], x[1])
        elif fn.kind == "point_deriv":
            vals[i] = np.dot(fn.direction, field.grad(x[0], x[1]))
        elif fn.kind == "edge_normal_deriv":
            vals[i] = np.dot(normals[fn.edge], field.grad(x[0], x[1]))
        else:
            comp = {"xx": (0, 0), "xy": (0, 1), "yy": (1, 1)}[fn.component]
            vals[i] = np.asarray(field.hess(x[0], x[1]))[comp]
    return vals


def l2_projection(msh, element, u_exact: ScalarField, scale=True):
    """Global DoF vector of the L2-best approximation of u_exact in the
    assembled space of element on msh.

    Mass matrix and right-hand side are integrated at degree 12 (exact for
    the mass matrix of every family) through the same DoF map, geometry
    and transforms as the solver (assembly.cell_blocks), so up to
    quadrature error no function in that space has a smaller
    assembly.l2_error.
    """
    data = cell_blocks(msh, element, scale)
    dofmap = data.dofmap
    rule = triangle_rule(12)
    tab0 = tabulate_coeffs(element.poly, element.coeffs,
                           rule.points, 0)[(0, 0)]
    n_loc = element.n_dofs
    rows, cols, vals, loads = [], [], [], []
    for cells, geom, M in data.each_block():
        dofs = dofmap.cell_dofs[cells]
        phi = tab0[None] if M is None else M @ tab0
        w = geom.detJinv_abs[:, None] * rule.weights
        X = geom.ref_to_phys(rule.points)
        rows.append(np.repeat(dofs, n_loc, axis=1).ravel())
        cols.append(np.tile(dofs, n_loc).ravel())
        vals.append(((phi * w[:, None, :]) @ np.swapaxes(phi, 1, 2)).ravel())
        fw = w * u_exact.f(X[..., 0], X[..., 1])
        loads.append((phi @ fw[:, :, None])[..., 0])
    n = dofmap.total_dofs
    # summed cell after cell, in the order of a per-cell loop
    rhs = np.zeros(n)
    np.add.at(rhs, dofmap.cell_dofs.ravel(), np.concatenate(loads).ravel())
    mass = scipy.sparse.coo_array(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(n, n)).tocsc()
    return scipy.sparse.linalg.spsolve(mass, rhs)


def roundoff_envelope(A, b, solve, error_of_x, k=8, seed=0):
    """Largest relative spread of a study error under roundoff in its data.

    Solves k seeded one-ulp perturbations of A and b with solve(A, b) -> x:
    every stored entry of A moves one ulp up or down, a_ij and a_ji the
    same way (the perturbation is symmetric), and so does every entry of
    b.  Returns (max - min) / error over the k + 1 errors error_of_x(x),
    the unperturbed one included.
    """
    rng = np.random.default_rng(seed)
    C = scipy.sparse.coo_array(A)
    n = A.shape[0]
    pair, key = np.unique(np.minimum(C.row, C.col).astype(np.int64) * n
                          + np.maximum(C.row, C.col), return_inverse=True)
    errors = [error_of_x(solve(A, b))]
    for _ in range(k):
        up = rng.integers(0, 2, len(pair)).astype(bool)[key]
        data = np.nextafter(C.data, np.where(up, np.inf, -np.inf))
        Ak = scipy.sparse.csr_array((data, (C.row, C.col)), shape=A.shape)
        bk = np.nextafter(b, np.where(rng.integers(0, 2, len(b)), np.inf, -np.inf))
        errors.append(error_of_x(solve(Ak, bk)))
    return (max(errors) - min(errors)) / errors[0]


@pytest.fixture
def rng():
    return make_rng()
