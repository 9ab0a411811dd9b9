"""DoF maps, operators, loads, interpolation, stats and exports."""

import numpy as np
import pytest

from conftest import poly_field
from trifem import assembly, solver
from trifem.assembly import (ScalarField, assemble_load, assemble_operator,
                             build_dof_map, csr_from_coo, export_matrix_market,
                             export_vector, interpolate, matrix_stats,
                             symmetry_error)
from trifem.harness import poisson_problem
from trifem.mesh import build_mesh, build_unit_square_mesh
from trifem.quadrature import triangle_rule
from trifem.refelem import REF_VERTICES, build_reference_element
from conftest import X, Y

MORLEY = build_reference_element("morley")
ARGYRIS = build_reference_element("argyris")
HERMITE = build_reference_element("hermite")
BELL = build_reference_element("bell")


def lagrange(k):
    return build_reference_element("lagrange", k)


def test_dof_counts_n8():
    m = build_unit_square_mesh(8)
    V, E, C = m.n_vertices, m.n_edges, m.n_cells
    assert build_dof_map(m, MORLEY).total_dofs == V + E == 289
    assert build_dof_map(m, ARGYRIS).total_dofs == 6 * V + E == 694
    assert build_dof_map(m, lagrange(3)).total_dofs == V + 2 * E + C == 625
    assert build_dof_map(m, HERMITE).total_dofs == 3 * V + C == 371
    assert build_dof_map(m, BELL).total_dofs == 6 * V
    for k in range(1, 6):
        expect = V + (k - 1) * E + C * (k - 1) * (k - 2) // 2
        assert build_dof_map(m, lagrange(k)).total_dofs == expect


def test_shared_vertex_dofs_identical():
    m = build_unit_square_mesh(3, 0.15)
    dm = build_dof_map(m, ARGYRIS)
    seen = {}
    for c in range(m.n_cells):
        for v_loc in range(3):
            v = m.cells[c][v_loc]
            block = tuple(dm.cell_dofs[c, 6 * v_loc:6 * v_loc + 6])
            assert seen.setdefault(v, block) == block


def test_edge_normal_dof_signs_opposite():
    m = build_unit_square_mesh(4, 0.1)
    dm = build_dof_map(m, MORLEY)
    for e in range(m.n_edges):
        cells = m.edge_cells[e]
        if len(cells) != 2:
            continue
        signs = []
        for c in cells:
            e_loc = int(np.flatnonzero(m.cell_edges[c] == e)[0])
            signs.append(dm.cell_signs[c, 3 + e_loc])
        assert sorted(signs) == [-1.0, 1.0]


def _traces(m, el, dm, u, c, x, normal):
    """Value and normal derivative of the global function with DoF vector u,
    evaluated on cell c at physical points x through its own M."""
    from trifem.mesh import cell_geometry, vertex_size_field
    from trifem.refelem import tabulate_coeffs
    from trifem.transform import cell_transform
    geom = cell_geometry(m, c, vertex_size_field(m))
    coef = (dm.cell_signs[c] * u[dm.cell_dofs[c]]) @ cell_transform(el, geom, True).matrix
    tab = tabulate_coeffs(el.poly, el.tabulation_coeffs(), geom.phys_to_ref(x), 1)
    grad_ref = np.array([coef @ tab[(1, 0)], coef @ tab[(0, 1)]])
    return coef @ tab[(0, 0)], (geom.J @ normal) @ grad_ref


GLOBAL_SPACES = {"lagrange:3": False, "hermite": False, "argyris": True,
                 "bell": True, "morley": None}


@pytest.mark.parametrize("name", GLOBAL_SPACES)
def test_global_space_continuity_across_interior_edges(name):
    # random global DoF vectors, evaluated from both sides of every interior
    # edge: the assembled space is C0 (values agree along the edge), C1 for
    # Argyris and Bell (normal derivatives agree too), and for Morley the
    # vertex values and midpoint normal derivatives agree
    from trifem.harness import parse_element
    from trifem.mesh import global_edge_normal
    from trifem.quadrature import interval_rule
    m = build_unit_square_mesh(4, 0.2)
    el = parse_element(name)
    dm = build_dof_map(m, el)
    s = interval_rule(10).points if name != "morley" else np.array([0.0, 0.5, 1.0])
    rng = np.random.default_rng(17)
    for _ in range(3):
        u = rng.standard_normal(dm.total_dofs)
        jumps, sizes = [], []
        for e in range(m.n_edges):
            cells = m.edge_cells[e]
            if len(cells) != 2:
                continue
            a, b = m.vertices[m.edges[e]]
            x = a + s[:, None] * (b - a)
            n = global_edge_normal(m, e)
            (vA, dA), (vB, dB) = (_traces(m, el, dm, u, c, x, n) for c in cells)
            if name == "morley":
                jumps.append([*(vA - vB)[[0, 2]], (dA - dB)[1]])
                sizes.append([*vA[[0, 2]], dA[1]])
            elif GLOBAL_SPACES[name]:
                jumps.append(np.concatenate([vA - vB, dA - dB]))
                sizes.append(np.concatenate([vA, dA]))
            else:
                jumps.append(vA - vB)
                sizes.append(vA)
        assert np.abs(jumps).max() <= 1e-10 * np.abs(sizes).max()


def test_csr_roundtrip_and_sorted_columns():
    A = csr_from_coo(3, [0, 2, 0, 1, 2, 0], [1, 2, 1, 0, 0, 0],
                     [1.0, 2.0, 3.0, 4.0, 5.0, 6.0])
    D = A.toarray()
    expect = np.array([[6.0, 4.0, 0.0], [4.0, 0.0, 0.0], [5.0, 0.0, 2.0]])
    assert np.array_equal(D, expect)
    for r in range(3):
        cols = A.indices[A.indptr[r]:A.indptr[r + 1]]
        assert np.all(np.diff(cols) > 0)
    x = np.array([1.0, 2.0, 3.0])
    assert np.allclose(A.matvec(x), D @ x)
    assert np.allclose(A.diagonal(), np.diag(D))


FORM_CASES = [
    (lambda: lagrange(2), assembly.poisson_nitsche()),
    (lambda: HERMITE, assembly.poisson_nitsche()),
    (lambda: ARGYRIS, assembly.poisson_nitsche()),
    (lambda: MORLEY, assembly.plate(nu=0.5)),
    (lambda: MORLEY, assembly.plate(nu=0.5, clamped_boundary=True,
                                    beta1=20.0, beta2=20.0)),
    (lambda: BELL, assembly.plate(nu=0.0, clamped_boundary=True)),
    (lambda: lagrange(2), assembly.plate_ip(clamped_boundary=True)),
    (lambda: MORLEY, assembly.plate_clamped_nitsche()),
    (lambda: ARGYRIS, assembly.plate_clamped_nitsche(nu=0.3)),
]


@pytest.mark.parametrize("make_el,form", FORM_CASES)
def test_operator_symmetry(make_el, form):
    m = build_unit_square_mesh(3, 0.2)
    A = assemble_operator(m, make_el(), form)
    scale = np.abs(A.data).max()
    assert symmetry_error(A) < 1e-10 * scale


def test_poisson_p1_single_cell_spd():
    m = build_unit_square_mesh(1)
    A = assemble_operator(m, lagrange(1), assembly.poisson_nitsche(alpha=10.0))
    D = A.toarray()
    assert np.abs(D - D.T).max() < 1e-12
    assert np.linalg.eigvalsh(D).min() > 0


def test_free_plate_kernel_contains_linears():
    m = build_unit_square_mesh(4, 0.2)
    A = assemble_operator(m, MORLEY, assembly.plate(nu=0.0))
    for expr in (X * 0 + 1, X, Y):
        u = interpolate(m, MORLEY, poly_field(expr))
        assert np.abs(A.matvec(u)).max() < 1e-9 * max(np.abs(A.data).max(), 1.0)


def test_plate_ip_facet_terms_vanish_on_c1_data():
    # x^2 - y^2 has continuous gradient and zero Laplacian, so jump and
    # average facet terms contribute nothing: the operator action matches
    # the cellwise form for any penalty strength
    m = build_unit_square_mesh(2, 0.1)
    el = lagrange(2)
    u = interpolate(m, el, poly_field(X ** 2 - Y ** 2))
    act1 = assemble_operator(m, el, assembly.plate_ip(alpha=20.0)).matvec(u)
    act2 = assemble_operator(m, el, assembly.plate_ip(alpha=2000.0)).matvec(u)
    assert np.abs(act1 - act2).max() < 1e-9


def test_load_zero_source():
    m = build_unit_square_mesh(2)
    f = ScalarField(f=lambda x, y: 0.0 * x)
    b = assemble_load(m, HERMITE, f, assembly.poisson_nitsche())
    assert np.abs(b).max() == 0.0


def test_load_constant_on_reference_cell():
    m = build_mesh(REF_VERTICES, np.array([[0, 1, 2]]))
    f = ScalarField(f=lambda x, y: np.ones_like(x))
    b = assemble_load(m, lagrange(1), f, assembly.poisson_nitsche())
    assert np.allclose(b, 1.0 / 6.0, atol=1e-14)


def test_load_energy_pairing():
    # pairing the load with the interpolated exact solution approximates
    # the integral of f*u, computed here by independent quadrature
    m = build_unit_square_mesh(8)
    u, f = poisson_problem()
    b = assemble_load(m, HERMITE, f, assembly.poisson_nitsche())
    uI = interpolate(m, HERMITE, u)
    rule = triangle_rule(12)
    exact = 0.0
    from trifem.mesh import cell_geometry
    for c in range(m.n_cells):
        geom = cell_geometry(m, c)
        pts = geom.ref_to_phys(rule.points)
        vals = f(pts) * u(pts)
        exact += geom.detJinv_abs * np.dot(rule.weights, vals)
    assert abs(np.dot(b, uI) - exact) < 0.05 * abs(exact)


def test_morley_edge_dof_sign_consistency():
    # interpolating a smooth field cellwise must give both incident cells
    # the same global normal-derivative DoF value
    m = build_unit_square_mesh(3, 0.2)
    field = poly_field(X ** 2 * Y + 0.5 * Y ** 2 - X)
    dm = build_dof_map(m, MORLEY)
    from trifem.mesh import cell_geometry, vertex_size_field
    sf = vertex_size_field(m)
    from trifem.transform import scaling_diagonal
    values = {}
    for c in range(m.n_cells):
        geom = cell_geometry(m, c, sf)
        S = scaling_diagonal("morley", geom)
        for e_loc in range(3):
            i = 3 + e_loc
            x = geom.ref_to_phys(np.asarray(MORLEY.functionals[i].point)[None, :])[0]
            local = np.dot(geom.normals[e_loc], field.grad(x[0], x[1])) / S[i]
            g = dm.cell_dofs[c, i]
            val = dm.cell_signs[c, i] * local
            if g in values:
                assert abs(values[g] - val) < 1e-12 * max(1.0, abs(val))
            values[g] = val


def test_interpolate_consistent_between_cells():
    # every global DoF shared by several cells must receive the same value
    # from each of them (orientation signs and scaling exercised)
    from conftest import interpolate_on_cell
    from trifem.mesh import cell_geometry, vertex_size_field
    from trifem.transform import scaling_diagonal
    m = build_unit_square_mesh(3, 0.2)
    sf = vertex_size_field(m)
    field = poly_field(X ** 4 - X * Y ** 3 + 2 * X * Y)
    for el in (HERMITE, MORLEY, ARGYRIS, BELL):
        dm = build_dof_map(m, el)
        seen = {}
        for c in range(m.n_cells):
            geom = cell_geometry(m, c, sf)
            local = interpolate_on_cell(el, geom, field)
            local = local / scaling_diagonal(el.family, geom)
            for i in range(el.n_dofs):
                g = dm.cell_dofs[c, i]
                val = dm.cell_signs[c, i] * local[i]
                if g in seen:
                    assert abs(seen[g] - val) < 1e-11 * max(1.0, abs(val))
                seen[g] = val


def test_matrix_stats_identity():
    A = csr_from_coo(10, np.arange(10), np.arange(10), np.ones(10))
    stats = matrix_stats(A, lambda b: b.copy())
    assert stats["total_dofs"] == 10
    assert stats["nnz_per_row"] == 1.0
    assert abs(stats["condition_estimate"] - 1.0) < 1e-6


def test_matrix_stats_tridiagonal_fixture():
    n = 32
    rows, cols, vals = [], [], []
    for i in range(n):
        rows.append(i); cols.append(i); vals.append(2.0)
        if i > 0:
            rows.append(i); cols.append(i - 1); vals.append(-1.0)
        if i < n - 1:
            rows.append(i); cols.append(i + 1); vals.append(-1.0)
    A = csr_from_coo(n, rows, cols, vals)
    stats = matrix_stats(A, lambda b: solver.dense_lu_solve(A, b).x)
    k = np.arange(1, n + 1)
    lam = 4.0 * np.sin(k * np.pi / (2 * (n + 1))) ** 2
    exact = lam.max() / lam.min()
    assert abs(stats["condition_estimate"] - exact) < 0.05 * exact


@pytest.mark.parametrize("k", [4, 5])
def test_poisson_nitsche_patch_test(k):
    # the exact solution lies in the discrete space and vanishes on the
    # boundary, so the discrete solution must equal the interpolant
    m = build_unit_square_mesh(2, 0.15)
    el = lagrange(k)
    expr = X * (1 - X) * Y * (1 - Y)
    field = poly_field(expr)
    lap = sympy.expand(-(expr.diff(X, 2) + expr.diff(Y, 2)))
    f = poly_field(lap)
    form = assembly.poisson_nitsche()
    A = assemble_operator(m, el, form)
    b = assemble_load(m, el, f, form)
    x = solver.dense_lu_solve(A, b).x
    uI = interpolate(m, el, field)
    assert np.abs(x - uI).max() < 1e-8 * max(1.0, np.abs(uI).max())


import sympy  # noqa: E402  (used in the patch test above)


def test_incompatible_forms_rejected():
    m = build_unit_square_mesh(2)
    with pytest.raises(ValueError):
        assemble_operator(m, lagrange(1), assembly.plate_ip())
    with pytest.raises(ValueError):
        assemble_operator(m, HERMITE, assembly.plate())
    with pytest.raises(ValueError):
        assemble_operator(m, lagrange(3), assembly.plate_clamped_nitsche())
    with pytest.raises(ValueError):
        assembly.FormSpec(kind="nonsense")
    with pytest.raises(ValueError):
        assembly.plate(nu=0.7)
    with pytest.raises(ValueError):
        assembly.poisson_nitsche(alpha=-1.0)


def test_quadrature_clamp_warns():
    m = build_unit_square_mesh(1)
    with pytest.warns(UserWarning):
        assemble_operator(m, lagrange(1),
                          assembly.poisson_nitsche(cell_degree=14))


def test_matrix_market_export(tmp_path):
    m = build_unit_square_mesh(2)
    A = assemble_operator(m, lagrange(1), assembly.poisson_nitsche())
    path = tmp_path / "A.mtx"
    export_matrix_market(A, path)
    lines = path.read_text().strip().split("\n")
    assert lines[0] == "%%MatrixMarket matrix coordinate real symmetric"
    nr, nc, nnz = (int(t) for t in lines[1].split())
    assert (nr, nc) == A.shape
    assert nnz == len(lines) - 2
    D = np.zeros(A.shape)
    for line in lines[2:]:
        r, c, v = line.split()
        D[int(r) - 1, int(c) - 1] = float(v)
        D[int(c) - 1, int(r) - 1] = float(v)
    assert np.abs(D - A.toarray()).max() < 1e-15


def test_vector_export(tmp_path):
    v = np.array([1.5, -2.25, 1e-17, 3.0])
    path = tmp_path / "v.txt"
    export_vector(v, path)
    back = np.array([float(t) for t in path.read_text().split()])
    assert np.array_equal(back, v)


def _condition(el, n, scale):
    m = build_unit_square_mesh(n)
    A = assemble_operator(m, el, assembly.poisson_nitsche(), scale=scale)
    return matrix_stats(A, solver.factorized(A))["condition_estimate"]


def test_scaling_restores_mild_condition_growth():
    # scaled growth per refinement stays below 4.5 (h^-2-like); the
    # unscaled operator grows strictly faster and from a worse base
    ks = {s: (_condition(HERMITE, 8, s), _condition(HERMITE, 16, s))
          for s in (True, False)}
    growth_scaled = ks[True][1] / ks[True][0]
    growth_unscaled = ks[False][1] / ks[False][0]
    assert growth_scaled <= 4.5
    assert growth_unscaled > growth_scaled


def test_hermite_condition_scaled_vs_unscaled_and_dofs():
    m = build_unit_square_mesh(8)
    n_h = build_dof_map(m, HERMITE).total_dofs
    n_l3 = build_dof_map(m, lagrange(3)).total_dofs
    assert n_h == 371 < n_l3 == 625
    assert _condition(HERMITE, 8, False) > _condition(HERMITE, 8, True)
