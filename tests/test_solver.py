"""Direct and iterative solvers, and the L2 error evaluator."""

import warnings

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse
from scipy.sparse.linalg import splu

from conftest import l2_projection, poly_field, roundoff_envelope, X, Y
from trifem import assembly, solver
from trifem.assembly import interpolate, l2_error
from trifem.harness import (biharmonic_problem, parse_element, poisson_problem,
                            study_form)
from trifem.mesh import TriangleMesh, build_unit_square_mesh
from trifem.refelem import build_reference_element
from trifem.solver import SolveReport, cg_solve, solve

HERMITE = build_reference_element("hermite")
# the order of the fixtures that only need to be past the dense cutover,
# fixed so that they stay as they are when DENSE_CUTOVER moves; not 2,000:
# T - I of the 1-D Laplacian T is exactly singular when 3 divides n + 1
PAST_CUTOVER = 1501


def laplacian_1d(n):
    rows, cols, vals = [], [], []
    for i in range(n):
        rows.append(i); cols.append(i); vals.append(2.0)
        if i > 0:
            rows.append(i); cols.append(i - 1); vals.append(-1.0)
        if i < n - 1:
            rows.append(i); cols.append(i + 1); vals.append(-1.0)
    return scipy.sparse.csr_array((vals, (rows, cols)), shape=(n, n))


def test_lu_identity():
    b = np.array([3.0, -1.0, 2.5])
    rep = solve(np.eye(3), b)
    assert np.array_equal(rep.x, b)
    assert rep.residual == 0.0


def test_lu_two_by_two():
    rep = solve(np.array([[2.0, 1.0], [1.0, 2.0]]), np.array([3.0, 3.0]))
    assert np.abs(rep.x - 1.0).max() < 1e-14


def test_lu_random_spd():
    rng = np.random.default_rng(7)
    R = rng.standard_normal((200, 200))
    A = R.T @ R + np.eye(200)
    x_star = rng.standard_normal(200)
    rep = solve(A, A @ x_star)
    assert np.linalg.norm(rep.x - x_star) < 1e-10 * np.linalg.norm(x_star)
    assert rep.residual < 1e-12
    assert rep.pivot_growth > 0.0


def test_lu_singular_raises():
    A = np.array([[1.0, 2.0], [2.0, 4.0]])
    with pytest.raises(np.linalg.LinAlgError):
        solve(A, np.array([1.0, 1.0]))


def test_condition_number_of_a_singular_matrix_raises():
    # the stats path factors through the same checked dense LU
    A = scipy.sparse.csr_array(np.array([[1.0, 2.0, 0.0], [2.0, 4.0, 0.0],
                                         [0.0, 0.0, 1.0]]))
    with pytest.raises(np.linalg.LinAlgError):
        solver.condition_number(A)


def test_past_cutover_fixtures_take_the_sparse_path():
    assert PAST_CUTOVER > solver.DENSE_CUTOVER


def test_condition_number_of_a_dense_ndarray():
    # condition_number takes every A that solve takes, a dense ndarray too
    A = assembly.assemble_operator(build_unit_square_mesh(4), HERMITE,
                                   study_form("poisson", HERMITE))
    kappa = solver.condition_number(A)
    assert abs(solver.condition_number(A.toarray()) - kappa) <= 1e-10 * kappa


def test_blas_pin_warns_when_an_openblas_setter_is_missing(monkeypatch):
    # a scipy-openblas build whose setter cannot be found is reported, not
    # skipped in silence; a BLAS of another name is left alone
    monkeypatch.setattr(solver, "_OPENBLAS_THREADS", (
        ("numpy", "numpy", "no_such_set_num_threads"),
        ("scipy", "scipy.no_such_module", "scipy_openblas_set_num_threads")))
    monkeypatch.setattr(solver, "_blas_name", lambda package: "scipy-openblas")
    with pytest.warns(RuntimeWarning) as record:
        solver._pin_blas_threads()
    assert [str(w.message).split()[0] for w in record] == ["numpy", "scipy"]
    monkeypatch.setattr(solver, "_blas_name", lambda package: "mkl")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        solver._pin_blas_threads()


def test_blas_pin_reads_each_package_build_for_a_missing_setter(monkeypatch):
    # the packages' own build configurations decide the warning: a package
    # built on scipy-openblas whose setter is missing is reported
    monkeypatch.setattr(solver, "_OPENBLAS_THREADS", (
        ("numpy", "numpy", "no_such_set_num_threads"),
        ("scipy", "scipy", "no_such_set_num_threads")))
    openblas = [p for p in ("numpy", "scipy")
                if solver._blas_name(p) == "scipy-openblas"]
    with warnings.catch_warnings(record=True) as record:
        warnings.simplefilter("always")
        solver._pin_blas_threads()
    assert all(w.category is RuntimeWarning for w in record)
    assert [str(w.message).split()[0] for w in record] == openblas
    assert solver._blas_name("no_such_package") is None


def test_solve_rejects_unknown_method():
    with pytest.raises(ValueError, match="unknown solve method"):
        solver.solve(laplacian_1d(4), np.ones(4), "bogus")


def test_solve_of_a_zero_load_reports_a_zero_residual():
    # the residual is relative to |b|; with b = 0 it is |A x| itself
    rep = solve(laplacian_1d(4), np.zeros(4))
    assert not rep.x.any()
    assert rep.residual == 0.0


def test_cg_rejects_a_non_positive_diagonal():
    A = scipy.sparse.csr_array(np.diag([2.0, 0.0, 1.0]))
    with pytest.raises(ValueError, match="positive diagonal"):
        cg_solve(A, np.ones(3))


def test_refinement_never_increases_residual():
    rng = np.random.default_rng(3)
    R = rng.standard_normal((80, 80))
    A = R.T @ R + 0.01 * np.eye(80)
    b = rng.standard_normal(80)
    x = scipy.linalg.lu_solve(scipy.linalg.lu_factor(A), b)
    plain = SolveReport(x=x, residual=np.linalg.norm(A @ x - b) / np.linalg.norm(b))
    refined = solve(A, b)
    assert refined.residual <= plain.residual + 1e-16


def test_cg_identity_one_iteration():
    b = np.array([1.0, 2.0, 3.0])
    rep = cg_solve(np.eye(3), b)
    assert rep.iterations == 1
    assert np.abs(rep.x - b).max() < 1e-14


def test_jacobi_cg_solves_a_diagonal_system_in_one_iteration():
    # Jacobi is exact on a diagonal A, whatever the spread of its entries;
    # multiplying by the diagonal instead would square that spread
    d = np.logspace(-3.0, 3.0, 40)
    rep = cg_solve(scipy.sparse.diags_array(d, format="csr"), np.ones(40))
    assert (rep.preconditioner, rep.iterations) == ("jacobi", 1)
    assert np.abs(d * rep.x - 1.0).max() < 1e-14


def test_cg_finite_termination_bound():
    A = laplacian_1d(100)
    b = np.ones(100)
    rep = cg_solve(A, b, rtol=1e-10)
    assert rep.converged
    assert rep.iterations <= 100
    assert np.abs(A @ rep.x - b).max() < 1e-8


def test_cg_reports_true_residual():
    A = laplacian_1d(60)
    b = np.linspace(1.0, 2.0, 60)
    rep = cg_solve(A, b, rtol=1e-9)
    assert rep.converged and rep.iterations > 0
    assert rep.residual == np.linalg.norm(A @ rep.x - b) / np.linalg.norm(b)
    assert rep.residual < 1e-8


def test_cg_scaling_lowers_iterations():
    # plain CG (Jacobi preconditioning absorbs any diagonal rescaling): the
    # derivative-DoF scaling gives a visibly better-conditioned system
    from scipy.sparse.linalg import cg
    m = build_unit_square_mesh(16, 0.2)
    u, f = poisson_problem()
    iters = {}
    for scale in (True, False):
        form = assembly.FormSpec("poisson_nitsche")
        A = assembly.assemble_operator(m, HERMITE, form, scale=scale)
        b = assembly.assemble_load(m, HERMITE, f, form, scale=scale)
        steps = []
        _, info = cg(A, b, rtol=1e-8, atol=0.0, maxiter=100000,
                     callback=lambda xk: steps.append(1))
        assert info == 0
        iters[scale] = len(steps)
    assert iters[False] > iters[True]


def test_lu_and_cg_agree():
    m = build_unit_square_mesh(8, 0.2)
    u, f = poisson_problem()
    form = assembly.FormSpec("poisson_nitsche")
    A = assembly.assemble_operator(m, HERMITE, form)
    b = assembly.assemble_load(m, HERMITE, f, form)
    x_lu = solve(A, b).x
    x_cg = cg_solve(A, b, rtol=1e-13).x
    scale = np.abs(x_lu).max()
    assert np.abs(x_lu - x_cg).max() < 1e-8 * scale
    # Galerkin orthogonality residual after the direct solve
    assert np.linalg.norm(A.matvec(x_lu) - b) < 1e-10 * np.linalg.norm(b)


def test_sparse_lu_matches_dense(monkeypatch):
    m = build_unit_square_mesh(6, 0.2)
    form = assembly.FormSpec("poisson_nitsche")
    A = assembly.assemble_operator(m, HERMITE, form)
    b = np.sin(np.arange(A.n))
    xd = solve(A, b).x
    monkeypatch.setattr(solver, "DENSE_CUTOVER", 0)
    rep = solve(A, b)
    assert rep.method == "sparse_lu_sym"
    assert np.abs(xd - rep.x).max() < 1e-9 * np.abs(xd).max()


def test_l2_error_exact_reproduction():
    m = build_unit_square_mesh(4, 0.2)
    field = poly_field(X ** 3 - X * Y ** 2 + 2 * Y)
    uh = interpolate(m, HERMITE, field)
    assert l2_error(m, HERMITE, uh, field) < 1e-9


@pytest.mark.parametrize("scale", [True, False])
@pytest.mark.parametrize("family", ["argyris", "bell"])
def test_interpolant_reproduces_a_quadratic_to_roundoff(family, scale):
    # hxx, hxy and hyy differ (2, 0.3, 1.4), so a Hessian DoF that reads
    # another entry of the field's Hessian shows in the error
    m = build_unit_square_mesh(4, 0.2)
    el = build_reference_element(family)
    field = poly_field(X ** 2 + 0.3 * X * Y + 0.7 * Y ** 2)
    uh = interpolate(m, el, field, scale)
    assert l2_error(m, el, uh, field, scale) < 1e-13


def test_l2_error_constant():
    m = build_unit_square_mesh(3)
    el = build_reference_element("lagrange", 1)
    one = assembly.ScalarField(f=lambda x, y: np.ones_like(x))
    uh = np.zeros(m.n_vertices)
    assert abs(l2_error(m, el, uh, one) - 1.0) < 1e-12


@pytest.mark.parametrize("length", [86, 80])
def test_l2_error_rejects_a_vector_of_another_length(length):
    # P2 on N=4 has 81 DoFs: 86 entries were read silently (giving 0.5
    # here) and 80 raised IndexError
    m = build_unit_square_mesh(4)
    el = build_reference_element("lagrange", 2)
    assert assembly.build_dof_map(m, el).total_dofs == 81
    half = assembly.ScalarField(f=lambda x, y: np.full_like(x, 0.5))
    with pytest.raises(ValueError, match=f"u_h has {length} entries for 81"):
        l2_error(m, el, np.zeros(length), half)


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
    m2 = TriangleMesh(m.vertices, m.cells[perm])
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


def test_condition_number_matches_dense_eigenvalues():
    # Hermite Poisson N=8 (371 DoFs), the stats report's operator: Lanczos
    # on A and A^-1 gives the dense eigvalsh ratio, not just a lower bound
    m = build_unit_square_mesh(8)
    A = assembly.assemble_operator(m, HERMITE,
                                   assembly.FormSpec("poisson_nitsche"))
    assert A.shape[0] == 371
    lam = scipy.linalg.eigvalsh(A.toarray())
    exact = lam[-1] / lam[0]
    kappa = solver.condition_number(A)
    assert abs(kappa - exact) < 1e-8 * exact
    # the Lanczos start vector is seeded: a second call gives the same bits
    assert solver.condition_number(A) == kappa


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
    n = solver.DENSE_CUTOVER + 1
    small, large = laplacian_1d(n - 1), laplacian_1d(n)
    assert solver.solve(small, np.ones(n - 1)).method == "lu"
    assert solver.solve(large, np.ones(n)).method == "sparse_lu_sym"
    # a dense ndarray takes the same policy, through a CSC copy, and is
    # left as it was; T x = 1 has the solution x_i = (i + 1)(n - i) / 2
    dense = large.toarray()
    rep = solver.solve(dense, np.ones(n))
    assert rep.method == "sparse_lu_sym"
    assert np.array_equal(dense, large.toarray())
    i = np.arange(n)
    exact = (i + 1) * (n - i) / 2.0
    assert np.abs(rep.x - exact).max() <= 1e-9 * exact.max()
    rep = solver.solve(large, np.ones(n), "cg")
    assert rep.method == "cg" and rep.converged


def _non_spd_cases():
    n = PAST_CUTOVER
    T = laplacian_1d(n)
    eye = scipy.sparse.identity(n, format="csr")
    return {"indefinite": (T - eye).tocsr(),
            "saddle": scipy.sparse.block_array([[T, eye], [eye, None]],
                                               format="csr"),
            "negative": (-T).tocsr()}


@pytest.mark.parametrize("case", ["indefinite", "saddle", "negative"])
def test_sparse_lu_falls_back_to_pivoting(case):
    # T - I meets a zero pivot and the saddle point's zero diagonal forces
    # pivots off the diagonal; -T keeps every pivot on the diagonal, all of
    # them negative.  All three fail the SPD check and go through COLAMD
    # with partial pivoting
    A = _non_spd_cases()[case]
    assert A.shape[0] > solver.DENSE_CUTOVER
    x_star = np.sin(np.arange(A.shape[0]) + 1.0)
    b = A @ x_star
    rep = solver.solve(A, b)
    assert rep.method == "sparse_lu"
    assert rep.residual < 1e-10
    x = solver._factor(A)[0](b)
    assert np.linalg.norm(A @ x - b) < 1e-10 * np.linalg.norm(b)
    assert np.linalg.norm(x - x_star) < 1e-8 * np.linalg.norm(x_star)


class _Forwarding:
    """A SuperLU factor behind a proxy that forwards every attribute to it:
    SuperLU objects take no weak references, and the proxy does; it is not
    a SuperLU, so the in-place pivot read falls back to lu.U."""

    def __init__(self, lu):
        self.lu = lu

    def __getattr__(self, name):
        return getattr(self.lu, name)


def test_sparse_lu_frees_the_rejected_factor_before_the_fallback(monkeypatch):
    # each factor is handed out inside a forwarding proxy; the proxy, and
    # with it the factor, must be gone before the pivoting fallback starts
    # its own factorization.  -T keeps its pivots on the diagonal, so they
    # are read, and the proxy's through lu.U, which warns.
    import weakref
    import scipy.sparse.linalg
    splu_real, finalizers = scipy.sparse.linalg.splu, []

    def spy(*args, **kw):
        assert not any(f.alive for f in finalizers), "an earlier factor is held"
        lu = _Forwarding(splu_real(*args, **kw))
        finalizers.append(weakref.finalize(lu, lambda: None))
        return lu

    monkeypatch.setattr(scipy.sparse.linalg, "splu", spy)
    with pytest.warns(RuntimeWarning, match="layout was not recognised"):
        lu, method = solver._sparse_lu(_non_spd_cases()["negative"])
    assert method == "sparse_lu" and len(finalizers) == 2
    assert not finalizers[0].alive and finalizers[1].alive


@pytest.mark.parametrize("problem,family", [
    ("poisson", "lagrange:3"), ("poisson", "hermite"),
    ("biharmonic", "argyris"), ("biharmonic", "bell"),
    ("biharmonic", "lagrange:3"), ("biharmonic", "lagrange:5")])
@pytest.mark.parametrize("N", [4, 8, 16])
def test_diagonal_pivots_read_in_place_bit_for_bit(problem, family, N):
    # the pivots read from L's supernodes are U's diagonal, bit for bit, on
    # the study operators (IP-P5's is indefinite), with no fallback; the
    # in-place read runs first, since lu.U caches its copies on the factor
    el = parse_element(family)
    A = assembly.assemble_operator(build_unit_square_mesh(N, 0.2), el,
                                   study_form(problem, el))
    lu = splu(A.tocsc(), **solver._SYMMETRIC_LU)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        pivots = solver._diagonal_pivots(lu)
    assert pivots.dtype == np.float64
    assert np.array_equal(pivots.view(np.int64), lu.U.diagonal().view(np.int64))


def test_diagonal_pivots_fall_back_to_lu_U(monkeypatch):
    # T - I is read in place, and an object that is not a SuperLU gets
    # lu.U.diagonal() and a warning: the same bits.  _sparse_lu reaches the
    # same verdict on either path; T - I and the saddle point are rejected
    # by their off-diagonal pivots before any pivot is read
    lu = splu(_non_spd_cases()["indefinite"].tocsc(), **solver._SYMMETRIC_LU)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        in_place = solver._diagonal_pivots(lu)
    with pytest.warns(RuntimeWarning, match="layout was not recognised"):
        copied = solver._diagonal_pivots(_Forwarding(lu))
    assert in_place.min() < 0
    assert np.array_equal(in_place.view(np.int64), copied.view(np.int64))
    assert np.array_equal(copied.view(np.int64), lu.U.diagonal().view(np.int64))

    import scipy.sparse.linalg
    cases = {"spd": laplacian_1d(PAST_CUTOVER),
             **_non_spd_cases()}
    methods = {k: solver._sparse_lu(A)[1] for k, A in cases.items()}
    splu_real = scipy.sparse.linalg.splu
    monkeypatch.setattr(scipy.sparse.linalg, "splu",
                        lambda *a, **kw: _Forwarding(splu_real(*a, **kw)))
    with pytest.warns(RuntimeWarning, match="layout was not recognised"):
        methods_copied = {k: solver._sparse_lu(A)[1] for k, A in cases.items()}
    assert methods == methods_copied == {
        "spd": "sparse_lu_sym", "indefinite": "sparse_lu",
        "saddle": "sparse_lu", "negative": "sparse_lu"}


def test_sparse_lu_singular_raises():
    # a zero row and column: the symmetric mode raises as the fallback would
    n = PAST_CUTOVER
    keep = np.ones(n)
    keep[5] = 0.0
    D = scipy.sparse.diags_array(keep)
    with pytest.raises(RuntimeError, match="singular"):
        solver.solve((D @ laplacian_1d(n) @ D).tocsr(), np.ones(n))


def _study_operator(problem, family, N):
    el = parse_element(family)
    A = assembly.assemble_operator(build_unit_square_mesh(N, 0.2), el,
                                   study_form(problem, el))
    assert A.n > solver.DENSE_CUTOVER
    return A


def _csr_bytes(A):
    return tuple(getattr(A, name).tobytes()
                 for name in ("data", "indices", "indptr"))


def _splu_spy(monkeypatch, A):
    """Record, for each matrix that splu receives, its format, whether its
    data share A's memory, and the bytes of its arrays."""
    import scipy.sparse.linalg
    splu_real, calls = scipy.sparse.linalg.splu, []

    def spy(M, **kw):
        calls.append((M.format, np.shares_memory(M.data, A.data),
                      _csr_bytes(M)))
        return splu_real(M, **kw)

    monkeypatch.setattr(scipy.sparse.linalg, "splu", spy)
    return calls


def _arrowhead():
    # a last row and column of 1,501 entries, so the ranks of the entries
    # above the diagonal reach 1,499 and take uint16; the values differ
    # from their transposes' in the last bits
    n = PAST_CUTOVER
    edge = np.full(n - 1, 2.0 ** -10)
    A = scipy.sparse.block_array([[scipy.sparse.identity(n - 1),
                                   edge[:, None]],
                                  [[edge + 2.0 ** -40], [[8.0]]]],
                                 format="csr")
    A.sort_indices()
    return A


@pytest.mark.parametrize("case", ["argyris", "arrowhead"])
def test_sparse_factor_reads_a_csc_view_on_the_operators_arrays(case,
                                                               monkeypatch):
    # the Argyris N=16 plate operator, like every study operator, and the
    # arrowhead are structurally symmetric with sorted indices: splu reads
    # a CSC matrix on A's own data, whose arrays are A.tocsc()'s byte for
    # byte, and A's bytes are back afterwards
    A = (_study_operator("biharmonic", "argyris", 16) if case == "argyris"
         else _arrowhead())
    assert A.has_canonical_format and (A != A.T).nnz > 0
    before, csc = _csr_bytes(A), _csr_bytes(A.tocsc())
    calls = _splu_spy(monkeypatch, A)
    rep = solver.solve(A, np.ones(A.shape[0]))
    assert rep.method == "sparse_lu_sym"
    assert calls == [("csc", True, csc)]
    assert _csr_bytes(A) == before


def _singular():
    # the singular matrix above, its values made asymmetric in their bits
    n = PAST_CUTOVER
    keep = np.ones(n)
    keep[5] = 0.0
    T = laplacian_1d(n)
    T.data[T.indices < np.repeat(np.arange(n), np.diff(T.indptr))] -= 2 ** -20
    D = scipy.sparse.diags_array(keep)
    return (D @ T @ D).tocsr()


@pytest.mark.parametrize("case", ["spd", "indefinite", "singular", "stats"])
def test_sparse_factor_leaves_the_operator_bytes_as_they_were(case,
                                                             monkeypatch):
    # the values are swapped into column order for the factor and back
    # after it, also when splu raises: a symmetric solve (IP-P3 N=16), the
    # pivoting fallback of the indefinite IP-P5 N=8, a singular matrix and
    # the condition number all leave A's arrays byte for byte as they were
    A = {"spd": lambda: _study_operator("biharmonic", "lagrange:3", 16),
         "indefinite": lambda: _study_operator("biharmonic", "lagrange:5", 8),
         "singular": _singular,
         "stats": lambda: _study_operator("poisson", "lagrange:3", 16)}[case]()
    assert (A != A.T).nnz > 0  # so that a swap left in place would show
    before = _csr_bytes(A)
    calls = _splu_spy(monkeypatch, A)
    if case == "singular":
        with pytest.raises(RuntimeError, match="singular"):
            solver.solve(A, np.ones(A.shape[0]))
    elif case == "stats":
        assert solver.condition_number(A) > 1
    else:
        rep = solver.solve(A, np.ones(A.shape[0]))
        assert rep.method == {"spd": "sparse_lu_sym",
                              "indefinite": "sparse_lu"}[case]
    assert len(calls) == (2 if case == "indefinite" else 1)
    assert all(shares for _, shares, _ in calls)
    assert _csr_bytes(A) == before


def _unsorted(A):
    """A with each row's entries stored in reverse column order."""
    rows = np.repeat(np.arange(A.shape[0]), np.diff(A.indptr))
    order = np.lexsort((-A.indices, rows))
    B = scipy.sparse.csr_array((A.data[order], A.indices[order], A.indptr),
                               shape=A.shape)
    assert not B.has_sorted_indices
    return B


@pytest.mark.parametrize("case", ["asymmetric", "unsorted", "duplicates",
                                  "read_only"])
def test_sparse_factor_copies_what_it_cannot_view(case, monkeypatch):
    # a pattern that is not its transpose's, unsorted indices, duplicate
    # entries (which splu would sum in place) or read-only data: splu gets
    # A.tocsc(), a copy, and the solve is the one the symmetric LU of that
    # copy gives, bit for bit
    n = PAST_CUTOVER
    T = laplacian_1d(n)
    if case == "asymmetric":
        A = (T + scipy.sparse.csr_array(([1e-3], ([0], [2])),
                                        shape=(n, n))).tocsr()
    elif case == "unsorted":
        A = _unsorted(T)
    elif case == "duplicates":  # each 2.0 on the diagonal as 1.5 + 0.5
        diag = np.flatnonzero(
            T.indices == np.repeat(np.arange(n), np.diff(T.indptr)))
        data = T.data.copy()
        data[diag] = 1.5
        A = scipy.sparse.csr_array((
            np.insert(data, diag + 1, 0.5),
            np.insert(T.indices, diag + 1, T.indices[diag]),
            T.indptr + np.arange(n + 1)), shape=(n, n))
        assert A.has_sorted_indices and not A.has_canonical_format
    else:
        A = T
        A.data.flags.writeable = False
    before, csc = _csr_bytes(A), _csr_bytes(A.tocsc())
    b = np.sin(np.arange(n) + 1.0)
    lu = splu(A.tocsc(), **solver._SYMMETRIC_LU)
    x = lu.solve(b)
    x = x + lu.solve(b - A @ x)
    calls = _splu_spy(monkeypatch, A)
    rep = solver.solve(A, b)
    assert rep.method == "sparse_lu_sym"
    assert calls == [("csc", False, csc)]
    assert rep.x.tobytes() == x.tobytes()
    assert _csr_bytes(A) == before


def test_sparse_lu_peak_memory_per_nonzero(monkeypatch):
    # IP-P3 at N=16 (2,401 DoFs) and the indefinite IP-P5 at N=8 (1,681
    # DoFs), which takes the rejection and the pivoting fallback.  SuperLU
    # allocates its factor in C, and the pivots are read in place, so
    # tracemalloc sees only the CSC copy of A that each splu call reads
    # when _sparse_lu is handed a CSR A: 12 bytes per nonzero (float64
    # data, int32 indices), measured at 12.15 and 12.31.  The margin, under
    # 2 bytes per nonzero, is less than half of one more int32 index array.
    # Reading the pivots through lu.U's CSC copies of L and U gave 55.2 and
    # 30.0.  Through _factor, splu reads a CSC view on A's own arrays, and
    # what is live while it runs is the transposes' ranks, one byte per
    # nonzero here, and the view: measured at 1.01-1.03, and at 1.01 and 1.24
    # for the two factors of IP-P5.  The CSC copy under it gave 12.1-12.3.
    import tracemalloc
    import scipy.sparse.linalg
    splu_real, live = scipy.sparse.linalg.splu, []

    def spy(M, **kw):
        live.append(tracemalloc.get_traced_memory()[0])
        return splu_real(M, **kw)

    for family, N, expected in (("lagrange:3", 16, "sparse_lu_sym"),
                                ("lagrange:5", 8, "sparse_lu")):
        A = _study_operator("biharmonic", family, N)
        tracemalloc.start()
        try:
            _, method = solver._sparse_lu(A)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert method == expected
        assert peak <= 14 * A.nnz, (family, peak / A.nnz)
        monkeypatch.setattr(scipy.sparse.linalg, "splu", spy)
        live.clear()
        tracemalloc.start()
        try:
            assert solver._factor(A)[1] == expected
        finally:
            tracemalloc.stop()
            monkeypatch.undo()
        assert len(live) == (1 if expected == "sparse_lu_sym" else 2)
        assert max(live) <= 5 * A.nnz, (family, max(live) / A.nnz)


@pytest.mark.parametrize("family,N", [("argyris", 8), ("lagrange:3", 12)])
def test_dense_lu_peak_memory(family, N):
    # Argyris N=8 (694 DoFs) and IP-P3 N=12 (1,369): the dense copy of A and
    # its LU, 2 x 8 n^2 bytes, and no third n x n array for the pivot
    # growth; np.abs(lu).max() made one, for a peak of 3.00 x 8 n^2
    import tracemalloc
    el = parse_element(family)
    A = assembly.assemble_operator(build_unit_square_mesh(N, 0.2), el,
                                   study_form("biharmonic", el))
    n = A.n
    assert n <= solver.DENSE_CUTOVER
    tracemalloc.start()
    try:
        dense, (lu, _), growth = solver._dense_lu(A)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.1 * 8 * n * n, peak / (8 * n * n)
    assert growth == np.abs(lu).max() / np.abs(dense).max()


def test_factor_trims_the_heap_before_a_sparse_factor_only(monkeypatch):
    # the freed heap goes back to the OS just before _factor builds every
    # sparse factor, a smaller one after a larger too; the dense path and
    # the two-level coarse factor of CG do not trim
    calls = []
    sparse_lu = solver._sparse_lu

    def spy(A):
        calls.append(("sparse_lu", A.shape[0]))
        return sparse_lu(A)

    monkeypatch.setattr(solver, "_malloc_trim",
                        lambda pad: calls.append(("trim", pad)))
    monkeypatch.setattr(solver, "_sparse_lu", spy)
    for n in (solver.DENSE_CUTOVER + 2, solver.DENSE_CUTOVER + 1,
              solver.DENSE_CUTOVER + 2):
        rep = solver.solve(laplacian_1d(n), np.ones(n))
        assert rep.method == "sparse_lu_sym"
        assert calls == [("trim", 0), ("sparse_lu", n)], n
        calls.clear()
    n = solver.DENSE_CUTOVER
    assert solver.solve(laplacian_1d(n), np.ones(n)).method == "lu"
    assert calls == []
    m = build_unit_square_mesh(8, 0.2)
    A = assembly.assemble_operator(m, parse_element("lagrange:3"),
                                   assembly.FormSpec("poisson_nitsche"))
    rep = cg_solve(A, np.ones(A.n))
    assert rep.preconditioner == "two_level"
    assert calls == [("sparse_lu", A.coarse.shape[1])]


@pytest.mark.skipif(solver._malloc_trim is None,
                    reason="the C library has no malloc_trim")
def test_study_ladder_peak_rss_with_the_heap_released():
    # the default biharmonic ladders (N = 8, 16, 32) in a fresh process
    # raise its peak RSS over the value after the imports.  IP-P3's: by
    # 40.4-44.4 MB (44 runs) when splu reads A through the in-place CSC
    # view, 44.1-46.1 MB (24 runs) with the CSC copy of A under the factor,
    # and by 57-59 MB when SuperLU's factor lands above the heap the
    # operator pass freed.  Argyris's then Bell's, as the plate-h2
    # benchmark runs them: by 40.6-44.0 MB (44 runs) with the view,
    # 44.8-46.8 MB (24 runs) with the copy, and by 50.5-51.0 MB with M
    # held whole and a trim only before the largest factor so far.  The
    # peak is VmHWM, this process image's own: a child's ru_maxrss starts
    # at the peak of the process that spawned it, here the test runner's
    import os
    import pathlib
    import subprocess
    import sys

    import trifem
    src = str(pathlib.Path(trifem.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    for elements, bound in ((("lagrange:3",), 47.0),
                            (("argyris", "bell"), 46.0)):
        script = (
            "import scipy.sparse.linalg, trifem\n"
            "from trifem.harness import StudySpec, run_convergence_study\n"
            "def peak():\n"
            "    with open('/proc/self/status') as status:\n"
            "        return next(int(line.split()[1]) for line in status\n"
            "                    if line.startswith('VmHWM:'))\n"
            "base = peak()\n"
            f"for name in {elements}:\n"
            "    run_convergence_study(StudySpec('biharmonic', name))\n"
            "print((peak() - base) / 1024)\n")
        out = subprocess.run([sys.executable, "-c", script], env=env,
                             check=True, capture_output=True, text=True).stdout
        assert float(out) <= bound, (elements, out)


def _pivoting_lu_solve(A, b):
    """The partial-pivoting fallback, COLAMD and one refinement step."""
    lu = splu(A.tocsc())
    x = lu.solve(b)
    return x + lu.solve(b - A @ x)


@pytest.mark.parametrize("family", ["argyris", "bell", "lagrange:3"])
def test_symmetric_lu_within_roundoff_envelope(family):
    # N=16 biharmonic rungs, all past the dense cutover: the symmetric
    # factorization moves the study error by no more than twice the spread
    # that one-ulp perturbations of A and b give on the pivoting path
    el = parse_element(family)
    form = study_form("biharmonic", el)
    u, f = biharmonic_problem()
    m = build_unit_square_mesh(16, 0.2)
    A = assembly.assemble_operator(m, el, form)
    b = assembly.assemble_load(m, el, f, form)
    assert A.n > solver.DENSE_CUTOVER

    def error_of_x(x):
        return l2_error(m, el, x, u)

    rep = solver.solve(A, b)
    assert rep.method == "sparse_lu_sym"
    e_piv = error_of_x(_pivoting_lu_solve(A, b))
    envelope = roundoff_envelope(A, b, _pivoting_lu_solve, error_of_x, seed=16)
    assert 0.0 < envelope < 1e-6
    assert abs(error_of_x(rep.x) - e_piv) <= 2.0 * envelope * e_piv


def test_two_level_preconditioner_is_symmetric():
    # CG needs an SPD preconditioner: the V(1,1) cycle smooths alike before
    # and after the coarse solve, so <B r, s> = <r, B s>
    m = build_unit_square_mesh(8, 0.2)
    A = assembly.assemble_operator(m, parse_element("lagrange:3"),
                                   assembly.FormSpec("poisson_nitsche"))
    B = solver._two_level(A, A.coarse)
    r, s = np.random.default_rng(0).standard_normal((2, A.n))
    Br, Bs = B(r), B(s)
    assert abs(Br @ s - r @ Bs) < 1e-12 * np.linalg.norm(Br) * np.linalg.norm(s)
    assert Br @ r > 0


def test_two_level_cg_iterations_stay_flat_for_p5():
    # this case catches an unstable smoother: damped Jacobi at a fixed
    # omega = 0.6 diverges for P5, and its iteration count grows with N
    el = parse_element("lagrange:5")
    form = assembly.FormSpec("poisson_nitsche")
    _, f = poisson_problem()
    iters = []
    for n in (8, 32):
        m = build_unit_square_mesh(n, 0.2)
        A = assembly.assemble_operator(m, el, form)
        rep = solver.solve(A, assembly.assemble_load(m, el, f, form), "cg")
        assert rep.method == "cg" and rep.preconditioner == "two_level"
        iters.append(rep.iterations)
    assert abs(iters[1] - iters[0]) <= 0.2 * iters[0]


def test_names_the_frozen_benchmark_reads(monkeypatch):
    # studybench/child.py calls and wraps these one-cell helpers and the
    # error pass on assembly and solver; each is its home module's object
    from trifem import mesh, transform
    for module in (assembly, solver):
        assert module.cell_geometry is mesh.cell_geometry
        assert module.cell_transform is transform.cell_transform
        assert module.vertex_size_field is mesh.vertex_size_field
    assert solver.l2_error is assembly.l2_error
    m = build_unit_square_mesh(2, 0.2)
    geom = mesh.cell_geometry(m, 0, mesh.vertex_size_field(m))
    M = transform.cell_transform(HERMITE, geom, scale=True).matrix
    assert M.shape == (HERMITE.n_dofs, HERMITE.n_dofs)
    # it also counts IP triplets off the form's kind, solves through
    # harness._study_solve, reads A.n, A.matvec and these row and report
    # fields, and wraps assembly.build_dof_map to time the DoF map, so
    # cell_blocks must call it through the module
    from trifem import harness
    assert study_form("biharmonic", parse_element("lagrange:3")).kind == "plate_ip"
    for name in ("argyris", "bell"):
        assert study_form("biharmonic", parse_element(name)).kind == "plate"
    assert harness._study_solve is solver.solve
    row = harness.ConvergenceRow(n=4, dofs=9, error=0.5, rate=2.0, iterations=3)
    assert (row.n, row.dofs, row.error, row.rate, row.iterations) == (
        4, 9, 0.5, 2.0, 3)
    calls = []

    def spy(*args):
        calls.append(args)
        return build_dof_map(*args)
    build_dof_map = assembly.build_dof_map
    monkeypatch.setattr(assembly, "build_dof_map", spy)
    m = build_unit_square_mesh(4, 0.2)
    form = study_form("poisson", HERMITE)
    A = assembly.assemble_operator(m, HERMITE, form)
    assert calls == [(m, HERMITE)]
    assert A.n == A.shape[0]
    x = np.random.default_rng(3).standard_normal(A.n)
    assert np.array_equal(A.matvec(x), A @ x)
    rep = harness._study_solve(A, assembly.assemble_load(
        m, HERMITE, poisson_problem()[1], form), "cg")
    assert isinstance(rep.x, np.ndarray) and rep.x.shape == (A.n,)
    assert (rep.method, rep.converged) == ("cg", True) and rep.iterations > 0
