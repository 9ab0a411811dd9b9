"""The per-rung cell data: built once per (mesh, element, scale), read-only,
and bit-identical to what a fresh mesh gives; the batched Hessian."""

from dataclasses import FrozenInstanceError

import numpy as np
import pytest

from trifem import assembly, harness, transform
from trifem.assembly import _EX, _EY, _Kernels, _directional, _physical_hessian
from trifem.mesh import TriangleMesh, batch_geometry, build_unit_square_mesh
from trifem.quadrature import QuadRule, triangle_rule
from trifem.refelem import build_reference_element, derivative_alphas
from trifem.transform import hessian_pushforward

ARGYRIS = build_reference_element("argyris")
BELL = build_reference_element("bell")
LAGRANGE3 = build_reference_element("lagrange", 3)
N = 18  # 648 cells: three blocks of assembly.BLOCK = 256, the last partial


def _counting(monkeypatch, module, name):
    calls = []
    fn = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(name)
        return fn(*args, **kwargs)
    monkeypatch.setattr(module, name, counted)
    return calls


def _rung(msh, element, scale, problem="biharmonic"):
    """Operator, load, interpolant and L2 error of the problem's study."""
    form = harness.study_form(problem, element)
    u, f = (harness.poisson_problem() if problem == "poisson"
            else harness.biharmonic_problem())
    A = assembly.assemble_operator(msh, element, form, scale)
    b = assembly.assemble_load(msh, element, f, form, scale)
    uI = assembly.interpolate(msh, element, u, scale)
    err = assembly.l2_error(msh, element, uI, u, scale)
    return A, b, uI, err


def _assert_same_bits(r1, r2):
    (A1, b1, u1, e1), (A2, b2, u2, e2) = r1, r2
    for x, y in ((A1.data, A2.data), (A1.indices, A2.indices),
                 (A1.indptr, A2.indptr), (b1, b2), (u1, u2)):
        assert np.array_equal(x, y)
    assert e1 == e2


def test_cell_data_built_once_per_mesh_element_and_scale(monkeypatch):
    geoms = _counting(monkeypatch, assembly, "batch_geometry")
    Ms = _counting(monkeypatch, transform, "cell_transform")
    dofmaps = _counting(monkeypatch, assembly, "build_dof_map")
    msh = build_unit_square_mesh(N, 0.2)
    blocks = -(-msh.n_cells // assembly.BLOCK)
    assert blocks == 3

    # a second element or scale on the same mesh builds its own data, with
    # the bits of a fresh mesh
    # (Lagrange, here with the interior-penalty facets, has no M to build)
    cases = [(ARGYRIS, True), (ARGYRIS, False), (BELL, True), (LAGRANGE3, True)]
    for element, scale in cases:
        built = (1, 0 if element is LAGRANGE3 else blocks, 1)
        for calls in (geoms, Ms, dofmaps):
            calls.clear()
        shared = _rung(msh, element, scale)
        assert (len(geoms), len(Ms), len(dofmaps)) == built
        _rung(msh, element, scale)
        assert (len(geoms), len(Ms), len(dofmaps)) == built
        _assert_same_bits(shared, _rung(build_unit_square_mesh(N, 0.2),
                                        element, scale))
    assert len(msh._cell_data) == len(cases)


@pytest.mark.parametrize("problem, name", [
    ("poisson", "lagrange:3"), ("biharmonic", "argyris"),
    ("biharmonic", "bell"), ("biharmonic", "morley"),
    ("biharmonic", "lagrange:3")])
def test_every_pass_independent_of_block_size(monkeypatch, problem, name):
    # N=8 has 128 cells and 176 interior edges, one block each by default;
    # blocks of 7 split both and end partial (128 = 18 * 7 + 2, 176 =
    # 25 * 7 + 1), with the same bits in every pass
    element = harness.parse_element(name)
    default = _rung(build_unit_square_mesh(8, 0.2), element, True, problem)
    monkeypatch.setattr(assembly, "BLOCK", 7)
    msh = build_unit_square_mesh(8, 0.2)
    small = _rung(msh, element, True, problem)
    assert len(assembly.cell_blocks(msh, element, True).blocks) == 19
    _assert_same_bits(default, small)


def test_cell_data_held_by_its_mesh():
    m1, m2 = build_unit_square_mesh(4, 0.2), build_unit_square_mesh(4, 0.2)
    d1 = assembly.cell_blocks(m1, ARGYRIS, True)
    assert assembly.cell_blocks(m1, ARGYRIS, True) is d1
    assert assembly.cell_blocks(m1, ARGYRIS, np.True_) is d1
    assert assembly.cell_blocks(m2, ARGYRIS, True) is not d1
    assert d1.element is ARGYRIS


def test_records_that_hold_arrays_compare_by_identity():
    # two built alike are unequal, each equals itself and hashes, as meshes
    # do; so the mesh keys its cell data by the element object itself
    m1, m2 = build_unit_square_mesh(2, 0.2), build_unit_square_mesh(2, 0.2)
    rule = triangle_rule(4)
    pairs = {
        "element": (build_reference_element("hermite"),
                    build_reference_element("hermite")),
        "rule": (rule, QuadRule(rule.points.copy(), rule.weights.copy())),
        "dofmap": (assembly.build_dof_map(m1, ARGYRIS),
                   assembly.build_dof_map(m1, ARGYRIS)),
        "cell data": (assembly.cell_blocks(m1, ARGYRIS, True),
                      assembly.cell_blocks(m2, ARGYRIS, True)),
    }
    for name, (a, b) in pairs.items():
        assert a != b and not a == b, name
        assert a == a and hash(a) == hash(a), name
        assert len({a, b}) == 2, name
    assembly.cell_blocks(m1, ARGYRIS, False)
    assert list(m1._cell_data) == [(ARGYRIS, True), (ARGYRIS, False)]
    assert all(key[0] is ARGYRIS for key in m1._cell_data)


def test_mesh_dofmap_and_cell_data_are_read_only():
    verts = np.array([[0., 0.], [1., 0.], [0., 1.]])
    m = TriangleMesh(verts, np.array([[0, 1, 2]]))
    verts[0, 0] = 5.0  # the mesh holds its own copy of its input
    assert m.vertices[0, 0] == 0.0
    with pytest.raises(ValueError):
        m.vertices[0, 0] = 1.0
    with pytest.raises(ValueError):
        m.cells[0, 0] = 2
    with pytest.raises(FrozenInstanceError):
        m.vertices = verts
    data = assembly.cell_blocks(m, ARGYRIS, True)
    with pytest.raises(ValueError):
        data.dofmap.cell_dofs[0, 0] = 7
    with pytest.raises(ValueError):
        data.geom.J[0, 0, 0] = 1.0
    with pytest.raises(ValueError):
        data.M(0)[0, 0, 0] = 1.0


@pytest.mark.parametrize("name, nonzero, stored", [
    ("hermite", 16, 16), ("morley", 12, 12), ("argyris", 81, 81),
    ("bell", 378, 378)])
def test_cell_data_holds_M_by_its_entries_not_plus_zero(name, nonzero, stored):
    # a block keeps M at the entries that are not +0 in one of its cells,
    # its nonzeros (Hermite's 16 of 100, Morley's 12 of 36, Argyris's 81 of
    # 441, all of Bell's 18 x 21), as M stores no -0 whichever normals its
    # edge-normal DoFs follow.  The parts are read-only; M(i) is a fresh
    # array, in the layout of cell_transform's M
    element = harness.parse_element(name)
    data = assembly.cell_blocks(build_unit_square_mesh(N, 0.2), element, True)
    for i, (cells, geom, values, positions) in enumerate(data.blocks):
        assert values.shape == (len(geom.J), stored)
        assert positions.shape == (2, stored)
        M = data.M(i)
        assert np.any(M != 0, axis=0).sum() == nonzero
        for a in (values, positions):
            with pytest.raises(ValueError):
                a[0, 0] = 1
        built = transform.cell_transform(element, geom, True).matrix
        assert M.strides[1:] == built.strides[1:]
        assert data.M(i) is not M


def test_argyris_cell_data_at_n32_holds_under_2_mib():
    # 2048 cells of 81 entries: 1.28 MiB, against 6.9 MiB for M whole
    data = assembly.cell_blocks(build_unit_square_mesh(32, 0.2), ARGYRIS, True)
    size = sum(values.nbytes + positions.nbytes
               for _, _, values, positions in data.blocks)
    assert size <= 1.3 * 2 ** 20, size


def _three_term_hessian(tab, J):
    """The per-point three-term contraction _physical_hessian replaced."""
    T = hessian_pushforward(J)
    per = lambda x: x[:, None, None]  # noqa: E731
    href = (tab[(2, 0)], tab[(1, 1)], tab[(0, 2)])
    return tuple(per(T[:, k, 0]) * href[0] + per(T[:, k, 1]) * href[1]
                 + per(T[:, k, 2]) * href[2] for k in range(3))


@pytest.mark.parametrize("element", [ARGYRIS, BELL, LAGRANGE3],
                         ids=["argyris", "bell", "lagrange:3"])
def test_physical_hessian_matches_three_term_expression(element):
    kern = _Kernels(element, harness.study_form("biharmonic", element))
    geom = batch_geometry(build_unit_square_mesh(8, 0.2))
    tables = [kern.cell_tab]
    for e in range(3):
        e_loc = np.full(len(geom.J), e)
        tables.append({alpha: t[e_loc] for alpha, t in kern.facet_tab.items()})
    for tab in tables:
        full = list(_physical_hessian(tab, geom.J, (0, 1, 2)))
        for new, old in zip(full, _three_term_hessian(tab, geom.J)):
            assert new.shape == old.shape
            assert np.array_equal(new, old)
        # the subset the interior-penalty form reads: hxx and hyy, same bits
        hxx, hyy = _physical_hessian(tab, geom.J, (0, 2))
        assert np.array_equal(hxx, full[0]) and np.array_equal(hyy, full[2])


def _chain_rule(tab, J, *dirs):
    """The first- or third-order derivative along dirs (each (B, 2)) of a
    facet table, written out cell by cell: J d is each cell's own matmul,
    as in the kernels, and the coefficient of each alpha sums its
    component picks in lexicographic order."""
    out = []
    for b in range(len(J)):
        e = [J[b] @ d[b] for d in dirs]
        t = {alpha: x[b] for alpha, x in tab.items()}
        if len(dirs) == 1:
            (x, y), = e
            out.append(x * t[(1, 0)] + y * t[(0, 1)])
            continue
        (a0, a1), (b0, b1), (c0, c1) = e
        out.append(a0 * b0 * c0 * t[(3, 0)]
                   + (a0 * b0 * c1 + a0 * b1 * c0 + a1 * b0 * c0) * t[(2, 1)]
                   + (a0 * b1 * c1 + a1 * b0 * c1 + a1 * b1 * c0) * t[(1, 2)]
                   + a1 * b1 * c1 * t[(0, 3)])
    return np.array(out)


@pytest.mark.parametrize("perturb", [0.0, 0.2])
def test_directional_matches_the_chain_rule_bit_for_bit(perturb):
    # orders 1 and 3 along the directions the facet kernels read, on the
    # Argyris facet tables; the unperturbed mesh's J holds -0 entries
    kern = _Kernels(ARGYRIS, harness.study_form("biharmonic", ARGYRIS))
    geom = batch_geometry(build_unit_square_mesh(8, perturb))
    J = geom.J
    if perturb == 0.0:
        assert np.any(np.signbit(J[J == 0]))
    ex, ey = (np.broadcast_to(d, (len(J), 2)) for d in (_EX, _EY))
    for e in range(3):
        e_loc = np.full(len(J), e)
        tab = {alpha: t[e_loc] for alpha, t in kern.facet_tab.items()}
        n = geom.normals[:, e]
        t = np.stack([-n[:, 1], n[:, 0]], axis=-1)
        for dirs in ((n,), (ex,), (ey,), (n, ex, ex), (n, ey, ey), (n, t, t)):
            new, old = _directional(tab, J, *dirs), _chain_rule(tab, J, *dirs)
            assert new.shape == old.shape
            assert np.array_equal(new, old)
            assert np.array_equal(np.signbit(new), np.signbit(old))


@pytest.mark.parametrize("order", [1, 3])
def test_directional_keeps_a_row_of_negative_zeros(order):
    # J = -I pushes (1, 1) to (-1, -1): every weight is negative, so every
    # term on a zero table is -0, and a fold that started from +0 would
    # return +0
    J = -np.eye(2)[None]
    tab = {alpha: np.zeros((1, 2, 3)) for alpha in derivative_alphas(order)}
    row = _directional(tab, J, *[np.ones(2)] * order)
    assert row.shape == (1, 2, 3) and np.all(np.signbit(row))
