"""Transformation matrices: duality, reproduction, three-step factors, scaling."""

from fractions import Fraction
from math import factorial

import numpy as np
import pytest
import sympy

from conftest import (X, Y, interpolate_on_cell, make_rng,
                      physical_functional_matrix, poly_field, random_triangle,
                      sample_points, triangle_geometry)
from trifem import mesh, transform
from trifem.mesh import reference_cell_geometry
from trifem.quadrature import interval_rule
from trifem.refelem import build_reference_element, legendre4, tabulate_coeffs
from trifem.transform import (MIDPOINT_RULES, bell_M, cell_transform,
                              edge_blocks, hessian_pushforward,
                              morley_three_step, scaling_diagonal)

ELEMENTS = {}
for fam in ("hermite", "morley", "argyris", "bell"):
    ELEMENTS[fam] = build_reference_element(fam)

REPRO_POLY = {
    "hermite": X ** 3 - 2 * X * Y ** 2 + X * Y + 1,
    "morley": X ** 2 - 3 * X * Y + 2 * Y ** 2 + X - 5,
    "argyris": X ** 5 - 3 * X ** 2 * Y ** 3,
    "bell": X ** 4 + X ** 2 * Y ** 2 - Y ** 4 + X ** 3 - Y + 2,
}


def test_identity_geometry_gives_identity():
    geom = reference_cell_geometry()
    for fam in ("hermite", "morley", "argyris"):
        M = cell_transform(ELEMENTS[fam], geom, scale=False).matrix
        assert np.abs(M - np.eye(M.shape[0])).max() < 1e-12


def test_bell_identity_geometry_matches_reference_basis():
    el = ELEMENTS["bell"]
    geom = reference_cell_geometry()
    M = bell_M(geom, el)
    pts = sample_points()
    tab0 = tabulate_coeffs(el.poly, el.coeffs, pts, 0)[(0, 0)]
    transformed = M @ tab0
    reference = el.coeffs[:el.n_dofs] @ el.poly.tabulate(pts, 0)[(0, 0)]
    assert np.abs(transformed - reference).max() < 1e-10


def test_bell_physical_quartic_edge_modes_vanish():
    # Bell's space has cubic normal derivatives along every edge.  The
    # vertex functionals of criterion 2 do not see the three constraint
    # rows, so check on random physical cells that each mapped basis
    # function's normal derivative has no quartic Legendre mode.
    el = ELEMENTS["bell"]
    rule = interval_rule(10)
    leg = rule.weights * legendre4(rule.points)
    rng = make_rng(5)
    worst = 0.0
    for _ in range(50):
        verts = random_triangle(rng)
        geom = triangle_geometry(verts)
        M = bell_M(geom, el)
        for e, (a, b) in enumerate(((1, 2), (0, 2), (0, 1))):
            d = verts[b] - verts[a]
            ell = np.hypot(*d)
            n = np.array([d[1], -d[0]]) / ell
            if np.dot(n, verts[e] - verts[a]) > 0:
                n = -n
            x = verts[a] + rule.points[:, None] * d
            tab = tabulate_coeffs(el.poly, el.coeffs,
                                  (x - geom.vertices[0]) @ geom.J.T, 1)
            ghat = np.array([M @ tab[(1, 0)], M @ tab[(0, 1)]])
            dn = np.einsum("k,kl,liq->iq", n, geom.J.T, ghat)
            worst = max(worst, np.abs(ell * dn @ leg).max())
    assert worst < 1e-10


@pytest.mark.parametrize("scale", [True, False])
def test_batched_transform_matches_cell_by_cell(scale):
    # one batch over a whole mesh gives, cell for cell and bit for bit, the
    # geometry and M of the per-cell calls
    m = mesh.build_unit_square_mesh(3, 0.2)
    sizes = mesh.vertex_size_field(m)
    batch = mesh.batch_geometry(m, sizes)
    cells = [mesh.cell_geometry(m, c, sizes) for c in range(m.n_cells)]
    for name in ("J", "Jinv", "detJinv_abs", "normals", "tangents",
                 "edge_lengths", "vertex_h"):
        assert np.array_equal(getattr(batch, name),
                              np.array([getattr(g, name) for g in cells]))
    for fam, el in ELEMENTS.items():
        Ms = cell_transform(el, batch, scale).matrix
        assert Ms.shape == (m.n_cells,) + cell_transform(el, cells[0], scale).matrix.shape
        for c, g in enumerate(cells):
            assert np.array_equal(Ms[c], cell_transform(el, g, scale).matrix), fam


def _unscaled_M(family, geom):
    return cell_transform(ELEMENTS[family], geom, scale=False).matrix


def test_hermite_translation_is_identity():
    geom = triangle_geometry(np.array([[0., 0.], [1., 0.], [0., 1.]]) + [3.7, -1.2])
    assert np.array_equal(_unscaled_M("hermite", geom), np.eye(10))


def test_hermite_scaling_blocks():
    # physical cell = s * reference: a unit physical slope needs s pullbacks,
    # so the gradient blocks carry the reference-to-physical Jacobian
    s = 2.0
    geom = triangle_geometry(s * np.array([[0., 0.], [1., 0.], [0., 1.]]))
    M = _unscaled_M("hermite", geom)
    for v in range(3):
        blk = M[3 * v + 1:3 * v + 3, 3 * v + 1:3 * v + 3]
        assert np.abs(blk - s * np.eye(2)).max() < 1e-14
    assert abs(M[9, 9] - 1.0) < 1e-15


def test_hermite_fig5b_duality():
    geom = triangle_geometry([[0.0, 0.0], [1.5, 0.5], [0.8, 1.2]])
    M = _unscaled_M("hermite", geom)
    N = physical_functional_matrix(ELEMENTS["hermite"], geom) @ M.T
    assert np.abs(N - np.eye(10)).max() < 1e-10


def test_morley_identity_blocks():
    geom = reference_cell_geometry()
    B = edge_blocks(geom)
    for e in range(3):
        assert np.abs(B[e] - np.eye(2)).max() < 1e-14
    assert np.abs(_unscaled_M("morley", geom) - np.eye(6)).max() < 1e-14


def test_morley_uniform_scaling_blocks():
    # physical = s * reference: B^i = s I, so V is diagonal with s in the
    # derivative slots and the vertex-coupling entries vanish
    s = 3.0
    geom = triangle_geometry(s * np.array([[0., 0.], [1., 0.], [0., 1.]]))
    B = edge_blocks(geom)
    for e in range(3):
        assert np.abs(B[e] - s * np.eye(2)).max() < 1e-13
    V = _unscaled_M("morley", geom).T
    assert np.abs(V - np.diag([1, 1, 1, s, s, s])).max() < 1e-13


@pytest.mark.parametrize("family", ["hermite", "morley", "argyris", "bell"])
def test_duality_on_random_cells(family):
    el = ELEMENTS[family]
    rng = make_rng(99)
    worst = 0.0
    for _ in range(100):
        geom = triangle_geometry(random_triangle(rng))
        M = cell_transform(el, geom, scale=False).matrix
        N = physical_functional_matrix(el, geom) @ M.T
        worst = max(worst, np.abs(N - np.eye(el.n_dofs)).max())
    assert worst < 1e-8


@pytest.mark.parametrize("family", ["hermite", "morley", "argyris", "bell"])
def test_polynomial_reproduction_through_map(family):
    el = ELEMENTS[family]
    field = poly_field(sympy.expand(REPRO_POLY[family]))
    rng = make_rng(3)
    pts = sample_points()
    for _ in range(15):
        geom = triangle_geometry(random_triangle(rng))
        M = cell_transform(el, geom, scale=False).matrix
        dofs = interpolate_on_cell(el, geom, field)
        tab0 = tabulate_coeffs(el.poly, el.coeffs, pts, 0)[(0, 0)]
        vals = dofs @ (M @ tab0)
        phys = geom.ref_to_phys(pts)
        exact = np.array([field.f(x, y) for x, y in phys])
        assert np.abs(vals - exact).max() < 1e-8


def test_morley_three_step_matches_closed_form():
    rng = make_rng(11)
    for _ in range(100):
        geom = triangle_geometry(random_triangle(rng))
        E, VC, D = morley_three_step(geom)
        V = E @ VC @ D
        assert np.abs(V - _unscaled_M("morley", geom).T).max() < 1e-10


def test_three_step_selector_structure():
    geom = triangle_geometry(random_triangle(make_rng(2)))
    E, VC, D = morley_three_step(geom)
    assert D.shape == (9, 6)
    assert VC.shape == (9, 9)
    assert E.shape == (6, 9)
    # E has exactly one unit entry per row
    assert np.all((E == 1.0).sum(axis=1) == 1)
    assert np.all((E != 0.0).sum(axis=1) == 1)


@pytest.mark.parametrize("scale", [False, True])
@pytest.mark.parametrize("n, perturb", [(2, 0.0), (8, 0.2)])
@pytest.mark.parametrize("family", ["hermite", "morley", "argyris", "bell"])
def test_M_stores_no_negative_zero(family, n, perturb, scale):
    # every zero of M is +0, or dump-m prints "-0": Argyris's fill leaves 5
    # in cell 0 of the default mesh, Bell's inv one in cell 65 of N=8
    msh = mesh.build_unit_square_mesh(n, perturb)
    geom = mesh.batch_geometry(msh, mesh.vertex_size_field(msh))
    M = cell_transform(ELEMENTS[family], geom, scale=scale).matrix
    assert not np.signbit(M[M == 0.0]).any()
    # the layouts the operator's congruence matmul was pinned with: a
    # transposed view of a C-ordered array, or C-ordered rows
    if family in ("morley", "argyris"):
        assert np.swapaxes(M, -1, -2).flags.c_contiguous
    else:
        assert M.strides[-2:] == (M.shape[-1] * M.itemsize, M.itemsize)


@pytest.mark.parametrize("k", sorted(MIDPOINT_RULES))
def test_midpoint_rules_exact_through_degree_2k_plus_2(k):
    # sum_j c_j l^(j-1) ((-1)^j p^(j)(l) - p^(j)(0)) is p'(l/2) for every
    # monomial p = x^d up to degree 2k + 2, so for every such polynomial,
    # and not for degree 2k + 3; the coefficients are dyadic, so exact
    ell = Fraction(3, 7)
    rule = [Fraction(c) for c in MIDPOINT_RULES[k]]
    assert len(rule) == k + 1

    def deriv(d, j, x):  # the j-th derivative of x^d at x
        return Fraction(factorial(d), factorial(d - j)) * x ** (d - j) \
            if j <= d else 0

    for d in range(2 * k + 4):
        got = sum(c * ell ** (j - 1) * ((-1) ** j * deriv(d, j, ell)
                                        - deriv(d, j, Fraction(0)))
                  for j, c in enumerate(rule))
        assert (got == deriv(d, 1, ell / 2)) == (d <= 2 * k + 2), d


def test_hessian_pushforward_matches_direct():
    rng = make_rng(4)
    J = rng.standard_normal((2, 2)) + 2 * np.eye(2)
    T = hessian_pushforward(J)
    H = np.array([[1.3, -0.4], [-0.4, 2.2]])
    pushed = J.T @ H @ J
    voigt = T @ np.array([H[0, 0], H[0, 1], H[1, 1]])
    assert np.allclose(voigt, [pushed[0, 0], pushed[0, 1], pushed[1, 1]], atol=1e-13)


def test_lagrange_transform_is_identity():
    el = build_reference_element("lagrange", 3)
    geom = triangle_geometry(random_triangle(make_rng(8)))
    for scale in (False, True):
        assert np.array_equal(cell_transform(el, geom, scale).matrix, np.eye(10))


def test_scale_M_hermite_rows():
    geom = triangle_geometry(random_triangle(make_rng(21)))
    tm = cell_transform(ELEMENTS["hermite"], geom, scale=False)
    scaled = cell_transform(ELEMENTS["hermite"], geom, scale=True)
    h = geom.vertex_h
    for v in range(3):
        expect = tm.matrix[3 * v + 1:3 * v + 3] / h[v]
        assert np.abs(scaled.matrix[3 * v + 1:3 * v + 3] - expect).max() < 1e-14
    assert np.array_equal(scaled.matrix[0], tm.matrix[0])


def test_scale_M_preserves_zero_pattern():
    for fam in ("hermite", "morley", "argyris", "bell"):
        geom = triangle_geometry(random_triangle(make_rng(31)))
        tm = cell_transform(ELEMENTS[fam], geom, scale=False)
        scaled = cell_transform(ELEMENTS[fam], geom, scale=True)
        assert np.array_equal(tm.matrix == 0.0, scaled.matrix == 0.0)


def test_scale_M_requires_vertex_sizes():
    geom = triangle_geometry(random_triangle(make_rng(41)), with_sizes=False)
    with pytest.raises(ValueError):
        cell_transform(ELEMENTS["morley"], geom, scale=True)


def _family_scaling_layout(family, geom):
    """The per-family layouts of S, written out by hand: vertex jets
    (1, 1/h, 1/h[, 1/h^2 x3]) per vertex, then 1 for Hermite's barycenter
    value or 1/l per edge normal."""
    h = geom.vertex_h
    inv_ell = 1.0 / geom.edge_lengths
    one, inv_h, inv_h2 = np.ones_like(h), 1.0 / h, 1.0 / h ** 2
    batch = h.shape[:-1]
    if family == "hermite":
        jets = np.stack([one, inv_h, inv_h], axis=-1).reshape(batch + (9,))
        return np.concatenate([jets, np.ones(batch + (1,))], axis=-1)
    if family == "morley":
        return np.concatenate([np.ones(batch + (3,)), inv_ell], axis=-1)
    jets = np.stack([one, inv_h, inv_h, inv_h2, inv_h2, inv_h2],
                    axis=-1).reshape(batch + (18,))
    if family == "argyris":
        return np.concatenate([jets, inv_ell], axis=-1)
    return jets


def test_scaling_diagonal_matches_family_layouts():
    # S read off the functionals equals the hand-written layouts bit for bit
    msh = mesh.build_unit_square_mesh(4, 0.2)
    geom = mesh.batch_geometry(msh, mesh.vertex_size_field(msh))
    for fam in ("hermite", "morley", "argyris", "bell"):
        S = scaling_diagonal(ELEMENTS[fam], geom)
        assert S.shape == (msh.n_cells, ELEMENTS[fam].n_dofs)
        assert np.array_equal(S, _family_scaling_layout(fam, geom))
    S = scaling_diagonal(build_reference_element("lagrange", 3), geom)
    assert np.array_equal(S, np.ones((msh.n_cells, 10)))


def test_dump_M_csv(tmp_path):
    geom = triangle_geometry(random_triangle(make_rng(51)))
    M = _unscaled_M("morley", geom)
    path = tmp_path / "m.csv"
    transform.dump_M_csv(M, path)
    data = np.array([[float(c) for c in line.split(",")]
                     for line in path.read_text().strip().split("\n")])
    assert np.abs(data - M).max() == 0.0
