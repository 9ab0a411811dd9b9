"""Direct and iterative solvers, and the L2 error evaluator."""

import numpy as np
import pytest

from conftest import l2_projection, poly_field, X, Y
from trifem import assembly, solver
from trifem.assembly import csr_from_coo, interpolate
from trifem.harness import parse_element, poisson_problem
from trifem.mesh import build_mesh, build_unit_square_mesh
from trifem.refelem import build_reference_element
from trifem.solver import cg_solve, dense_lu_solve, l2_error, sparse_lu_solve

HERMITE = build_reference_element("hermite")


def laplacian_1d(n):
    rows, cols, vals = [], [], []
    for i in range(n):
        rows.append(i); cols.append(i); vals.append(2.0)
        if i > 0:
            rows.append(i); cols.append(i - 1); vals.append(-1.0)
        if i < n - 1:
            rows.append(i); cols.append(i + 1); vals.append(-1.0)
    return csr_from_coo(n, rows, cols, vals)


def test_lu_identity():
    b = np.array([3.0, -1.0, 2.5])
    rep = dense_lu_solve(np.eye(3), b)
    assert np.array_equal(rep.x, b)
    assert rep.residual == 0.0


def test_lu_two_by_two():
    rep = dense_lu_solve(np.array([[2.0, 1.0], [1.0, 2.0]]), np.array([3.0, 3.0]))
    assert np.abs(rep.x - 1.0).max() < 1e-14


def test_lu_random_spd():
    rng = np.random.default_rng(7)
    R = rng.standard_normal((200, 200))
    A = R.T @ R + np.eye(200)
    x_star = rng.standard_normal(200)
    rep = dense_lu_solve(A, A @ x_star)
    assert np.linalg.norm(rep.x - x_star) < 1e-10 * np.linalg.norm(x_star)
    assert rep.residual < 1e-12
    assert rep.pivot_growth > 0.0


def test_lu_singular_raises():
    A = np.array([[1.0, 2.0], [2.0, 4.0]])
    with pytest.raises(np.linalg.LinAlgError):
        dense_lu_solve(A, np.array([1.0, 1.0]))


def test_refinement_never_increases_residual():
    rng = np.random.default_rng(3)
    R = rng.standard_normal((80, 80))
    A = R.T @ R + 0.01 * np.eye(80)
    b = rng.standard_normal(80)
    plain = dense_lu_solve(A, b, refine=False)
    refined = dense_lu_solve(A, b, refine=True)
    assert refined.residual <= plain.residual + 1e-16


def test_cg_identity_one_iteration():
    b = np.array([1.0, 2.0, 3.0])
    rep = cg_solve(np.eye(3), b)
    assert rep.iterations == 1
    assert np.abs(rep.x - b).max() < 1e-14


def test_cg_finite_termination_bound():
    A = laplacian_1d(100)
    b = np.ones(100)
    rep = cg_solve(A, b, rtol=1e-10)
    assert rep.converged
    assert rep.iterations <= 100
    assert np.abs(A.matvec(rep.x) - b).max() < 1e-8


def test_cg_scaling_lowers_iterations():
    # without Jacobi preconditioning (which absorbs any diagonal rescaling),
    # the derivative-DoF scaling gives a visibly better-conditioned system
    m = build_unit_square_mesh(16, 0.2)
    u, f = poisson_problem()
    iters = {}
    for scale in (True, False):
        form = assembly.poisson_nitsche()
        A = assembly.assemble_operator(m, HERMITE, form, scale=scale)
        b = assembly.assemble_load(m, HERMITE, f, form, scale=scale)
        rep = cg_solve(A, b, rtol=1e-8, max_iter=100000, precondition=False)
        assert rep.converged
        iters[scale] = rep.iterations
    assert iters[False] > iters[True]


def test_lu_and_cg_agree():
    m = build_unit_square_mesh(8, 0.2)
    u, f = poisson_problem()
    form = assembly.poisson_nitsche()
    A = assembly.assemble_operator(m, HERMITE, form)
    b = assembly.assemble_load(m, HERMITE, f, form)
    x_lu = dense_lu_solve(A, b).x
    x_cg = cg_solve(A, b, rtol=1e-13).x
    scale = np.abs(x_lu).max()
    assert np.abs(x_lu - x_cg).max() < 1e-8 * scale
    # Galerkin orthogonality residual after the direct solve
    assert np.linalg.norm(A.matvec(x_lu) - b) < 1e-10 * np.linalg.norm(b)


def test_sparse_lu_matches_dense():
    m = build_unit_square_mesh(6, 0.2)
    form = assembly.poisson_nitsche()
    A = assembly.assemble_operator(m, HERMITE, form)
    b = np.sin(np.arange(A.n))
    xd = dense_lu_solve(A, b).x
    xs = sparse_lu_solve(A, b).x
    assert np.abs(xd - xs).max() < 1e-9 * np.abs(xd).max()


def test_l2_error_exact_reproduction():
    m = build_unit_square_mesh(4, 0.2)
    field = poly_field(X ** 3 - X * Y ** 2 + 2 * Y)
    uh = interpolate(m, HERMITE, field)
    assert l2_error(m, HERMITE, uh, field) < 1e-9


def test_l2_error_constant():
    m = build_unit_square_mesh(3)
    el = build_reference_element("lagrange", 1)
    one = assembly.ScalarField(f=lambda x, y: np.ones_like(x))
    uh = np.zeros(m.n_vertices)
    assert abs(l2_error(m, el, uh, one) - 1.0) < 1e-12


def test_l2_error_interpolation_band_and_decay():
    u, _ = poisson_problem()
    errs = {}
    for n in (8, 16):
        m = build_unit_square_mesh(n)
        uh = interpolate(m, HERMITE, u)
        errs[n] = l2_error(m, HERMITE, uh, u)
    assert 1e-6 < errs[8] < 1e-3
    assert 12.0 < errs[8] / errs[16] < 20.0


def test_l2_error_invariant_under_cell_permutation():
    u, _ = poisson_problem()
    m = build_unit_square_mesh(4, 0.2)
    perm = np.random.default_rng(0).permutation(m.n_cells)
    m2 = build_mesh(m.vertices, m.cells[perm])
    e1 = l2_error(m, HERMITE, interpolate(m, HERMITE, u), u)
    e2 = l2_error(m2, HERMITE, interpolate(m2, HERMITE, u), u)
    assert abs(e1 - e2) < 1e-12 * e1


@pytest.mark.parametrize("family", ["lagrange:4", "bell"])
def test_l2_projection_reproduces_quartic(family):
    # the L2-best witness behind criterion 5 is exact on its own space
    m = build_unit_square_mesh(4, 0.2)
    el = parse_element(family)
    field = poly_field(X ** 4 + X ** 2 * Y ** 2 - Y ** 4 + X ** 3 - Y + 2)
    assert l2_error(m, el, l2_projection(m, el, field), field) < 1e-10


def test_dense_guard_rail(monkeypatch):
    # the size check fires before any densification happens
    def densified(self):
        raise AssertionError("densified before the guard")

    monkeypatch.setattr(assembly.SparseMatrix, "toarray", densified)
    big = assembly.SparseMatrix((np.zeros(0), np.zeros(0, dtype=np.int64),
                                 np.zeros(30001, dtype=np.int64)),
                                shape=(30000, 30000))
    with pytest.raises(ValueError):
        solver.dense_lu_solve(big, np.zeros(30000))
    # just over the budget: A and its LU copy need 16 n^2 bytes
    n = int(np.sqrt(solver.DENSE_BUDGET / 16)) + 1
    assert 16 * (n - 1) ** 2 <= solver.DENSE_BUDGET < 16 * n * n
    with pytest.raises(ValueError, match="budget"):
        solver.dense_lu_solve(assembly.SparseMatrix((n, n)), np.zeros(n))


def test_cg_default_iterations_capped(monkeypatch):
    # 1-D Laplacian, b = 1: A^j b lives within j - 1 entries of the ends, so
    # after k steps x_k is constant and r = 1 on the middle n - 2k entries.
    # The cap is lowered so that the run is short; 50 n stays far above it.
    assert solver.CG_MAX_ITER == 10_000
    cap = 100
    monkeypatch.setattr(solver, "CG_MAX_ITER", cap)
    n = 2 * cap + 50
    rep = cg_solve(laplacian_1d(n), np.ones(n))
    assert rep.iterations == cap
    assert not rep.converged
    assert rep.residual >= np.sqrt(50 / n)


def test_solve_policy_dense_then_sparse():
    small = laplacian_1d(solver.DENSE_CUTOVER)
    large = laplacian_1d(solver.DENSE_CUTOVER + 1)
    assert solver.solve(small, np.ones(small.n)).method == "lu"
    assert solver.solve(large, np.ones(large.n)).method == "sparse_lu"
    rep = solver.solve(large, np.ones(large.n), "cg")
    assert rep.method == "cg" and rep.converged
