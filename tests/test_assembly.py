"""DoF maps, operators, loads, interpolation, stats and text output."""

import numpy as np
import pytest
import scipy.sparse

from conftest import poly_field
from trifem import assembly, solver, transform
from trifem.assembly import (ScalarField, assemble_load, assemble_operator,
                             build_dof_map, interpolate)
from trifem.harness import (biharmonic_problem, parse_element,
                            poisson_problem, study_form)
from trifem.mesh import TriangleMesh, batch_geometry, build_unit_square_mesh
from trifem.quadrature import triangle_rule
from trifem.refelem import REF_VERTICES, build_reference_element
from trifem.solver import condition_number
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


def test_interior_facets_in_edge_order_lower_cell_first():
    m = build_unit_square_mesh(6, 0.2)
    (cA, eA), (cB, eB) = assembly._interior_facets(m)
    interior = np.setdiff1d(np.arange(m.n_edges), m.boundary_edges)
    assert np.array_equal(m.cell_edges[cA, eA], interior)
    assert np.array_equal(m.cell_edges[cB, eB], interior)
    assert np.all(cA < cB)


@pytest.mark.parametrize("perturb", [0.0, 0.2, 0.45])
def test_interior_facet_normals_opposite(perturb):
    # the interior-penalty jump [vn_A, vn_B] differentiates each side along
    # its own outward normal, so side B's must be exactly -n_A; compared by
    # value, since an axis-aligned pair may differ in the sign of a zero
    m = build_unit_square_mesh(8, perturb)
    geom = batch_geometry(m)
    (cA, eA), (cB, eB) = assembly._interior_facets(m)
    assert np.array_equal(geom.normals[cB, eB], -geom.normals[cA, eA])


def _cell_M(data, c):
    """The M that cell_blocks holds for cell c, the identity for Lagrange."""
    M = data.M(c // assembly.BLOCK)
    return np.eye(data.element.n_dofs) if M is None else M[c % assembly.BLOCK]


def test_edge_normal_dof_signs_opposite():
    # on each side of an interior edge, the edge-normal row of the M that
    # cell_blocks holds is cell_transform's row times +1 or -1, and the two
    # sides take opposite signs
    m = build_unit_square_mesh(4, 0.1)
    data = assembly.cell_blocks(m, MORLEY, True)
    local = transform.cell_transform(MORLEY, data.geom, True).matrix
    for e in range(m.n_edges):
        if m.edge_cells[e, 1, 0] < 0:
            continue
        signs = []
        for c, e_loc in m.edge_cells[e]:
            row, ref = _cell_M(data, c)[3 + e_loc], local[c, 3 + e_loc]
            signs += [s for s in (1.0, -1.0) if np.array_equal(row, s * ref)]
        assert sorted(signs) == [-1.0, 1.0]


@pytest.mark.parametrize("scale", [True, False])
@pytest.mark.parametrize("name", ["lagrange:3", "hermite", "morley", "argyris",
                                  "bell"])
def test_cell_blocks_M_orients_edge_normal_rows(monkeypatch, name, scale):
    # each block's M is cell_transform's bit for bit, along each cell's
    # outward normals, with each edge-normal DoF's diagonal entry, the only
    # nonzero of its row, negated on the cells whose outward normal opposes
    # the edge's global one; Lagrange keeps M None.  Blocks of 7 cells check
    # that each block reads its own cells' orientation
    from trifem.harness import parse_element
    monkeypatch.setattr(assembly, "BLOCK", 7)
    m = build_unit_square_mesh(4, 0.2)
    el = parse_element(name)
    normal = [(i, f.entity[1]) for i, f in enumerate(el.functionals)
              if f.normal]
    assert bool(normal) == (el.family in ("morley", "argyris"))
    data = assembly.cell_blocks(m, el, scale)
    assert len(data.blocks) == 5
    for cells, geom, M in data.each_block():
        if el.family == "lagrange":
            assert M is None
            continue
        expect = transform.cell_transform(el, geom, scale).matrix.copy()
        for i, e in normal:
            glob = np.array([global_normal(m, k) for k in m.cell_edges[cells, e]])
            flip = np.sum(geom.normals[:, e] * glob, axis=-1) < 0
            expect[flip, i, i] = -expect[flip, i, i]
        assert M.shape == expect.shape and M.tobytes() == expect.tobytes()


def _traces(m, el, data, u, c, x, normal):
    """Value and normal derivative of the global function with DoF vector u,
    evaluated on cell c at physical points x through the M of cell_blocks."""
    from trifem.refelem import tabulate_coeffs
    geom = data.geom[c]
    coef = u[data.dofmap.cell_dofs[c]] @ _cell_M(data, c)
    xhat = (x - geom.vertices[0]) @ geom.J.T
    tab = tabulate_coeffs(el.poly, el.coeffs, xhat, 1)
    grad_ref = np.array([coef @ tab[(1, 0)], coef @ tab[(0, 1)]])
    return coef @ tab[(0, 0)], (geom.J @ normal) @ grad_ref


def global_normal(m, e):
    """The global normal of edge e: its stored direction (lower vertex
    index first) rotated 90 degrees counter-clockwise."""
    a, b = m.vertices[m.edges[e]]
    d = (b - a) / np.hypot(*(b - a))
    return np.array([-d[1], d[0]])


GLOBAL_SPACES = {"lagrange:3": False, "hermite": False, "argyris": True,
                 "bell": True, "morley": None}


@pytest.mark.parametrize("name", GLOBAL_SPACES)
def test_global_space_continuity_across_interior_edges(name):
    # random global DoF vectors, evaluated from both sides of every interior
    # edge: the assembled space is C0 (values agree along the edge), C1 for
    # Argyris and Bell (normal derivatives agree too), and for Morley the
    # vertex values and midpoint normal derivatives agree
    from trifem.harness import parse_element
    from trifem.quadrature import interval_rule
    m = build_unit_square_mesh(4, 0.2)
    el = parse_element(name)
    data = assembly.cell_blocks(m, el, True)
    s = interval_rule(10).points if name != "morley" else np.array([0.0, 0.5, 1.0])
    rng = np.random.default_rng(17)
    for _ in range(3):
        u = rng.standard_normal(data.dofmap.total_dofs)
        jumps, sizes = [], []
        for e in range(m.n_edges):
            cells = m.edge_cells[e, :, 0]
            if cells[1] < 0:
                continue
            a, b = m.vertices[m.edges[e]]
            x = a + s[:, None] * (b - a)
            n = global_normal(m, e)
            (vA, dA), (vB, dB) = (_traces(m, el, data, u, c, x, n) for c in cells)
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


def _relabelled(m, how, rng):
    """m rebuilt with its vertices renumbered at random, each cell's local
    vertex order rotated at random (counter-clockwise still), its cells
    shuffled, or all three in turn."""
    vertices, cells = m.vertices, m.cells
    if how in ("vertices", "all"):
        new = rng.permutation(m.n_vertices)  # new index of each vertex
        vertices = np.empty_like(vertices)
        vertices[new] = m.vertices
        cells = new[cells]
    if how in ("rotated", "all"):
        shift = rng.integers(3, size=m.n_cells)[:, None]
        cells = np.take_along_axis(cells, (np.arange(3) + shift) % 3, axis=1)
    if how in ("shuffled", "all"):
        cells = cells[rng.permutation(m.n_cells)]
    return TriangleMesh(vertices, cells)


STUDY_FORMS = ([("poisson", f"lagrange:{k}") for k in range(1, 6)]
               + [("poisson", e) for e in ("hermite", "argyris", "bell")]
               + [("biharmonic", f"lagrange:{k}") for k in range(2, 6)]
               + [("biharmonic", e) for e in ("morley", "argyris", "bell")])


@pytest.mark.parametrize("how", ["vertices", "rotated", "shuffled", "all"])
@pytest.mark.parametrize("scale", [False, True])
@pytest.mark.parametrize("problem, name", STUDY_FORMS)
def test_operator_spectrum_survives_relabelled_mesh(problem, name, scale, how):
    # relabelling permutes the DoFs and flips the edge-normal DoFs whose
    # global normal turns, a signed permutation of the operator, so its
    # spectrum stays: a DoF that the two cells of an edge read along
    # different normals would change it.  The energy u_I^T A u_I of the
    # exact solution's interpolant stays too: it would not if the
    # interpolant and the operator read the DoF map differently.  The
    # energy is bounded on the scale of its terms, |u_I|^T |A| |u_I|: for
    # IP-P5 it cancels about 5e5-fold, so a change of summation order moves
    # it by 2e-12 of itself (measured at most 1.6e-16 of that scale)
    m = build_unit_square_mesh(4, 0.2)
    el = parse_element(name)
    form = study_form(problem, el)
    u, _ = poisson_problem() if problem == "poisson" else biharmonic_problem()
    relabelled = _relabelled(m, how, np.random.default_rng(23))
    spectra, energies = [], []
    for x in (m, relabelled):
        A = assemble_operator(x, el, form, scale)
        u_I = interpolate(x, el, u, scale)
        spectra.append(np.linalg.eigvalsh(A.toarray()))
        energies.append((u_I @ (A @ u_I), abs(u_I) @ (abs(A) @ abs(u_I))))
    (lam, mu), ((E, size), (F, _)) = spectra, energies
    assert np.abs(lam - mu).max() <= 1e-12 * np.abs(lam).max()
    assert abs(E - F) <= 1e-13 * size


def csr_step(n, rows, cols, vals):
    """The operator pass's CSR step on one block of triplets."""
    rows, cols = (np.asarray(a, dtype=np.int64) for a in (rows, cols))
    return assembly._csr_from_blocks(n, len(rows), [(rows, cols, vals)])


def test_csr_roundtrip_and_sorted_columns():
    A = csr_step(3, [0, 2, 0, 1, 2, 0], [1, 2, 1, 0, 0, 0],
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


def test_csr_step_rejects_a_wrong_triplet_count():
    # the buffers are sized by the count the caller gives; blocks that
    # fill fewer of them are a fault of the caller, not a short matrix
    rows = np.array([0, 1], dtype=np.int64)
    with pytest.raises(ValueError, match="blocks hold 2 triplets, not 5"):
        assembly._csr_from_blocks(2, 5, [(rows, rows, np.ones(2))])


def index_dtype_policy(n, size):
    """The CSR index dtype for order n from size triplets: int32 while both
    are below 2^31, int64 past that."""
    return np.int32 if max(n, size) < 2 ** 31 else np.int64


def reference_csr(n, rows, cols, vals):
    """The stable-argsort CSR build: duplicates grouped in input order by a
    stable sort of row * n + col, then summed by np.add.reduceat; index
    arrays in the dtype of index_dtype_policy."""
    keys = np.asarray(rows, dtype=np.int64) * n + np.asarray(cols, dtype=np.int64)
    order = np.argsort(keys, kind="stable")
    keys, vals = keys[order], np.asarray(vals, dtype=float)[order]
    first = np.ones(len(keys), dtype=bool)
    first[1:] = keys[1:] != keys[:-1]
    starts = np.flatnonzero(first)
    summed = np.add.reduceat(vals, starts) if len(vals) else vals
    indptr = np.searchsorted(keys[starts], np.arange(n + 1) * n)
    idx = index_dtype_policy(n, len(keys))
    return assembly.SparseMatrix((summed, (keys[starts] % n).astype(idx),
                                  indptr.astype(idx)), shape=(n, n))


def assert_same_csr(A, B):
    """Byte-identical data, compared as bits so that signed zeros count, and
    equal index values (compared as int64) in one index dtype."""
    assert A.shape == B.shape
    assert A.data.dtype == B.data.dtype == np.float64
    assert A.data.view(np.uint64).tobytes() == B.data.view(np.uint64).tobytes()
    for a, b in ((A.indices, B.indices), (A.indptr, B.indptr)):
        assert a.dtype == b.dtype
        assert np.array_equal(a.astype(np.int64), b.astype(np.int64))


def random_duplicate_triplets(rng, n=40, n_keys=300):
    """Triplets in shuffled order with 8 to 20 copies of every key, values
    spread over 16 decades, plus keys whose copies are all -0.0."""
    flat = rng.choice(n * n, n_keys + 2, replace=False)
    counts = rng.integers(8, 21, n_keys + 2)
    keys = np.repeat(flat, counts)
    vals = rng.standard_normal(len(keys)) * 10.0 ** rng.integers(-8, 8, len(keys))
    vals[keys == flat[-1]] = -0.0
    vals[keys == flat[-2]] = -0.0
    perm = rng.permutation(len(keys))
    keys, vals = keys[perm], vals[perm]
    return keys // n, keys % n, vals


def test_csr_matches_stable_sort_reference_on_duplicates():
    rng = np.random.default_rng(13)
    n = 40
    rows, cols, vals = random_duplicate_triplets(rng, n)
    A = csr_step(n, rows, cols, vals)
    assert_same_csr(A, reference_csr(n, rows, cols, vals))
    assert np.signbit(A.data[A.data == 0.0]).sum() == 2
    # every group has 8 or more values, so reduceat takes its unrolled
    # pairwise path: some sums differ from a left-to-right sum
    keys = rows * n + cols
    order = np.argsort(keys, kind="stable")
    left_to_right = {}
    for k, v in zip(keys[order], vals[order]):
        left_to_right[k] = left_to_right.get(k, -0.0) + v
    coo = A.tocoo()
    sequential = np.array([left_to_right[r * n + c] for r, c in zip(coo.row, coo.col)])
    assert np.any(sequential != coo.data)


@pytest.mark.parametrize("n, rows, cols, vals", [
    (3, [], [], []),
    (1, [], [], []),
    (1, [0, 0, 0], [0, 0, 0], [1.0, -0.0, 2.5]),
    (1, [0], [0], [-0.0]),
])
def test_csr_matches_reference_on_empty_and_order_one(n, rows, cols, vals):
    assert_same_csr(csr_step(n, rows, cols, vals),
                    reference_csr(n, rows, cols, vals))


STUDY_FORMS = ([("poisson", el) for el in ("lagrange:1", "lagrange:2", "lagrange:3",
                                           "lagrange:4", "lagrange:5", "hermite",
                                           "argyris", "bell")]
               + [("biharmonic", el) for el in ("morley", "argyris", "bell",
                                                "lagrange:2", "lagrange:3",
                                                "lagrange:4", "lagrange:5")])


def _operator_and_triplets(monkeypatch, problem, name, n_mesh=4):
    """A study operator, and the COO triplets its CSR step received."""
    from trifem.harness import parse_element, study_form
    captured = []
    build = assembly._csr_from_blocks

    def capture(n, size, blocks):
        blocks = list(blocks)
        rows, cols, vals = (np.concatenate([np.broadcast_arrays(*b)[i].ravel()
                                            for b in blocks]) for i in range(3))
        captured.append((n, rows, cols, vals))
        return build(n, size, blocks)

    monkeypatch.setattr(assembly, "_csr_from_blocks", capture)
    el = parse_element(name)
    A = assemble_operator(build_unit_square_mesh(n_mesh, 0.2), el,
                          study_form(problem, el))
    monkeypatch.undo()
    (triplets,) = captured
    return A, triplets


@pytest.mark.parametrize("problem, name", STUDY_FORMS)
def test_operator_csr_matches_stable_sort_reference(monkeypatch, problem, name):
    A, (n, rows, cols, vals) = _operator_and_triplets(monkeypatch, problem, name)
    assert len(vals) > A.nnz
    assert_same_csr(A, reference_csr(n, rows, cols, vals))


def _operator_pass_peak(el, form, n_mesh=32):
    """tracemalloc peak of the operator pass once the cell data exists, and
    the pass's triplet count, interior-penalty facets included."""
    import tracemalloc
    m = build_unit_square_mesh(n_mesh, 0.2)
    assembly.cell_blocks(m, el, True)
    tracemalloc.start()
    try:
        assemble_operator(m, el, form)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    triplets = m.n_cells * el.n_dofs ** 2
    if form.kind == "plate_ip":
        triplets += (m.n_edges - len(m.boundary_edges)) * (2 * el.n_dofs) ** 2
    return peak, triplets


def test_operator_pass_peak_memory_per_triplet():
    # after the cell data exists, the operator pass's peak is its CSR step:
    # the key and value buffers (16 bytes per triplet), the summed values
    # (8 per distinct entry, 0.77 of the triplets here) and one chunk's
    # temporaries, 26.9 bytes per triplet for P3 Poisson, against 28.4
    # while the sorted values, group starts and distinct keys were made
    # whole, 34 with the stable argsort and 68 when the blocks were
    # concatenated; the bound adds 1.1, less than one more live row of a
    # cell block (1.6)
    peak, triplets = _operator_pass_peak(lagrange(3),
                                         assembly.FormSpec("poisson_nitsche"))
    assert peak <= 28 * triplets


def test_ip_operator_pass_peak_memory_per_triplet():
    # IP-P3, 1.4M triplets at N=32, six in seven from interior facets,
    # which sum to 0.27 distinct entries per triplet: 18.8 bytes per
    # triplet at the CSR step's peak, against 24.4 while its arrays were
    # made whole; the bound adds 0.22, less than one more live row of a
    # cell block (0.23)
    el = lagrange(3)
    peak, triplets = _operator_pass_peak(el, study_form("biharmonic", el))
    assert triplets == 1_408_000
    assert peak <= 19 * triplets


def test_plate_operator_pass_peak_memory_per_triplet():
    # for Argyris the fill sets the peak: the buffers, 16 bytes per
    # triplet, and one block's Hessian rows, weighted rows and products,
    # 29.7 bytes per triplet in all with 256-cell blocks (32.6 with 512);
    # the bound adds 1.3, less than one more live row of the block (1.7)
    peak, triplets = _operator_pass_peak(ARGYRIS, study_form("biharmonic", ARGYRIS))
    assert peak <= 31 * triplets


def test_bell_operator_pass_peak_memory_per_triplet():
    # Bell's fill peaks higher than Argyris's per triplet, since it makes
    # the rows of its 21 tabulated functions for 18 DoFs: 34.3 bytes per
    # triplet with 256-cell blocks (38.6 with 512); the bound adds 1.7,
    # less than one more live row of the block (2.3)
    peak, triplets = _operator_pass_peak(BELL, study_form("biharmonic", BELL))
    assert peak <= 36 * triplets


@pytest.mark.parametrize("problem, name", STUDY_FORMS)
def test_study_operators_have_int32_indices(problem, name):
    el = parse_element(name)
    for n_mesh in (4, 8, 16):
        A = assemble_operator(build_unit_square_mesh(n_mesh, 0.2), el,
                              study_form(problem, el))
        mats = [A] if A.coarse is None else [A, A.coarse]
        for M in mats:
            assert M.indices.dtype == M.indptr.dtype == np.int32
        # SuperLU reads C int indices, so it copies none of them
        assert A.tocsc().indices.dtype == np.intc


@pytest.mark.parametrize("n, size, dtype", [
    (2 ** 31 - 1, 0, np.int32), (2 ** 31 - 1, 2 ** 31 - 1, np.int32),
    (2 ** 31, 0, np.int64), (1, 2 ** 31, np.int64)])
def test_index_dtype_at_the_int32_bound(n, size, dtype):
    assert assembly._index_dtype(n, size) == index_dtype_policy(n, size) == dtype


def _boundary_triplets(rng, n, size):
    """size triplets in shuffled order, every key repeated, the last one at
    (n - 1, n - 1) so that the largest key is reached."""
    flat = rng.choice(n * n, size // 16, replace=False)
    keys = rng.permutation(np.resize(flat, size))
    keys[-1] = n * n - 1
    vals = rng.standard_normal(size) * 10.0 ** rng.integers(-8, 8, size)
    return keys // n, keys % n, vals


@pytest.mark.parametrize("size, stable_argsort", [(2 ** 21 - 1, False),
                                                  (2 ** 21, True)])
def test_csr_sort_paths_match_reference_at_int64_bound(monkeypatch, size,
                                                       stable_argsort):
    # n = 2^21: composite keys (row * n + col) * size + position reach
    # n^2 size - 1 = 2^63 - 2^42 - 1 one triplet below the bound; at it,
    # n^2 size = 2^63 and the stable argsort of row * n + col runs instead
    n = 2 ** 21
    rows, cols, vals = _boundary_triplets(np.random.default_rng(21), n, size)
    argsort, calls = np.argsort, []

    def spy(*args, **kw):
        calls.append(kw.get("kind"))
        return argsort(*args, **kw)

    monkeypatch.setattr(np, "argsort", spy)
    A = csr_step(n, rows, cols, vals)
    monkeypatch.undo()
    assert calls == (["stable"] if stable_argsort else [])
    assert_same_csr(A, reference_csr(n, rows, cols, vals))


FORM_CASES = [
    (lambda: lagrange(2), assembly.FormSpec("poisson_nitsche")),
    (lambda: HERMITE, assembly.FormSpec("poisson_nitsche")),
    (lambda: ARGYRIS, assembly.FormSpec("poisson_nitsche")),
    (lambda: MORLEY, assembly.FormSpec("plate", nu=0.5)),
    (lambda: ARGYRIS, assembly.FormSpec("plate", nu=0.3)),
    (lambda: BELL, assembly.FormSpec("plate")),
    (lambda: lagrange(2), assembly.FormSpec("plate_ip")),
    (lambda: MORLEY, assembly.FormSpec("plate_clamped_nitsche")),
    (lambda: ARGYRIS, assembly.FormSpec("plate_clamped_nitsche", nu=0.3)),
]


@pytest.mark.parametrize("make_el,form", FORM_CASES)
def test_operator_symmetry(make_el, form):
    m = build_unit_square_mesh(3, 0.2)
    A = assemble_operator(m, make_el(), form)
    scale = np.abs(A.data).max()
    assert abs(A - A.T).max() < 1e-10 * scale


def test_poisson_p1_single_cell_spd():
    m = build_unit_square_mesh(1)
    A = assemble_operator(m, lagrange(1), assembly.FormSpec("poisson_nitsche"))
    D = A.toarray()
    assert np.abs(D - D.T).max() < 1e-12
    assert np.linalg.eigvalsh(D).min() > 0


def test_clamped_plate_kernel_contains_linears_away_from_boundary():
    # the cell form annihilates linears, so A u vanishes in every row whose
    # DoF lies only on cells without a boundary edge; the clamped terms
    # penalize u and du/dn, so the rows they reach do not vanish
    m = build_unit_square_mesh(4, 0.2)
    A = assemble_operator(m, MORLEY, assembly.FormSpec("plate"))
    cell_dofs = build_dof_map(m, MORLEY).cell_dofs
    near = np.isin(m.cell_edges, m.boundary_edges).any(axis=1)
    reached = np.zeros(A.n, dtype=bool)
    reached[cell_dofs[near]] = True
    assert 0 < (~reached).sum() < A.n
    tol = 1e-9 * np.abs(A.data).max()
    for expr in (X * 0 + 1, X, Y):
        r = A.matvec(interpolate(m, MORLEY, poly_field(expr)))
        assert np.abs(r[~reached]).max() < tol
        assert np.abs(r[reached]).max() > 1e3 * tol


def test_plate_ip_facet_terms_vanish_on_c1_data(monkeypatch):
    # x^2 - y^2 has continuous gradient and zero Laplacian, so jump and
    # average facet terms contribute nothing: the operator action matches
    # the cellwise form for any penalty strength
    m = build_unit_square_mesh(2, 0.1)
    el = lagrange(2)
    u = interpolate(m, el, poly_field(X ** 2 - Y ** 2))
    act = []
    for penalty in (20.0, 2000.0):
        monkeypatch.setattr(assembly, "IP_PENALTY", penalty)
        A = assemble_operator(m, el, assembly.FormSpec("plate_ip"))
        act.append(A.matvec(u))
    assert np.abs(act[0] - act[1]).max() < 1e-9


def test_load_zero_source():
    m = build_unit_square_mesh(2)
    f = ScalarField(f=lambda x, y: 0.0 * x)
    b = assemble_load(m, HERMITE, f, assembly.FormSpec("poisson_nitsche"))
    assert np.abs(b).max() == 0.0


def test_load_constant_on_reference_cell():
    m = TriangleMesh(REF_VERTICES, np.array([[0, 1, 2]]))
    f = ScalarField(f=lambda x, y: np.ones_like(x))
    b = assemble_load(m, lagrange(1), f, assembly.FormSpec("poisson_nitsche"))
    assert np.allclose(b, 1.0 / 6.0, atol=1e-14)


def test_load_energy_pairing():
    # pairing the load with the interpolated exact solution approximates
    # the integral of f*u, computed here by independent quadrature
    m = build_unit_square_mesh(8)
    u, f = poisson_problem()
    b = assemble_load(m, HERMITE, f, assembly.FormSpec("poisson_nitsche"))
    uI = interpolate(m, HERMITE, u)
    rule = triangle_rule(12)
    exact = 0.0
    from trifem.mesh import cell_geometry
    for c in range(m.n_cells):
        geom = cell_geometry(m, c)
        pts = geom.ref_to_phys(rule.points)
        x, y = pts.T
        vals = f.f(x, y) * u.f(x, y)
        exact += geom.detJinv_abs * np.dot(rule.weights, vals)
    assert abs(np.dot(b, uI) - exact) < 0.05 * abs(exact)


def test_morley_edge_dof_sign_consistency():
    # interpolating a smooth field cellwise along the global edge normal
    # must give both incident cells the same normal-derivative DoF value
    m = build_unit_square_mesh(3, 0.2)
    field = poly_field(X ** 2 * Y + 0.5 * Y ** 2 - X)
    dm = build_dof_map(m, MORLEY)
    from trifem.mesh import cell_geometry, vertex_size_field
    sf = vertex_size_field(m)
    from trifem.transform import scaling_diagonal
    values = {}
    for c in range(m.n_cells):
        geom = cell_geometry(m, c, sf)
        S = scaling_diagonal(MORLEY, geom)
        for e_loc in range(3):
            i = 3 + e_loc
            x = geom.ref_to_phys(np.asarray(MORLEY.functionals[i].point)[None, :])[0]
            n = global_normal(m, m.cell_edges[c, e_loc])
            val = np.dot(n, field.grad(x[0], x[1])) / S[i]
            g = dm.cell_dofs[c, i]
            if g in values:
                assert abs(values[g] - val) < 1e-12 * max(1.0, abs(val))
            values[g] = val


def test_interpolate_consistent_between_cells():
    # every global DoF shared by several cells must receive the same value
    # from each of them (global edge normals and scaling exercised)
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
            normals = [global_normal(m, e) for e in m.cell_edges[c]]
            local = interpolate_on_cell(el, geom, field, np.array(normals))
            local = local / scaling_diagonal(el, geom)
            for g, val in zip(dm.cell_dofs[c], local):
                if g in seen:
                    assert abs(seen[g] - val) < 1e-11 * max(1.0, abs(val))
                seen[g] = val


@pytest.mark.parametrize("name, given, missing", [
    ("hermite", ("f",), "grad"),
    ("argyris", ("f", "grad"), "hess"),
    ("bell", ("f", "grad"), "hess"),
])
def test_interpolate_names_a_missing_derivative(name, given, missing):
    from trifem.harness import parse_element
    full = poly_field(X * Y)
    field = ScalarField(**{k: getattr(full, k) for k in given})
    with pytest.raises(ValueError, match=f"{name}.*{missing}"):
        interpolate(build_unit_square_mesh(2), parse_element(name), field)


def test_condition_number_of_the_identity():
    A = scipy.sparse.csr_array((np.ones(10), (np.arange(10), np.arange(10))),
                               shape=(10, 10))
    assert abs(condition_number(A) - 1.0) < 1e-6


def test_condition_number_of_the_tridiagonal_fixture():
    n = 32
    rows, cols, vals = [], [], []
    for i in range(n):
        rows.append(i); cols.append(i); vals.append(2.0)
        if i > 0:
            rows.append(i); cols.append(i - 1); vals.append(-1.0)
        if i < n - 1:
            rows.append(i); cols.append(i + 1); vals.append(-1.0)
    A = scipy.sparse.csr_array((vals, (rows, cols)), shape=(n, n))
    k = np.arange(1, n + 1)
    lam = 4.0 * np.sin(k * np.pi / (2 * (n + 1))) ** 2
    exact = lam.max() / lam.min()
    assert abs(condition_number(A) - exact) < 1e-10 * exact


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
    form = assembly.FormSpec("poisson_nitsche")
    A = assemble_operator(m, el, form)
    b = assemble_load(m, el, f, form)
    x = solver.solve(A, b).x
    uI = interpolate(m, el, field)
    assert np.abs(x - uI).max() < 1e-8 * max(1.0, np.abs(uI).max())


import sympy  # noqa: E402  (used in the patch test above)


@pytest.mark.parametrize("family", ["hermite", "morley", "argyris", "bell"])
def test_interior_penalty_needs_the_identity_map(family):
    # its facet kernel applies no M, so it takes only the identity map:
    # Hermite spans H1 as Lagrange does, but maps by pushforward
    el, m = build_reference_element(family), build_unit_square_mesh(2)
    with pytest.raises(ValueError, match="Lagrange k >= 2"):
        assemble_operator(m, el, assembly.FormSpec("plate_ip"))


def test_incompatible_forms_rejected():
    m = build_unit_square_mesh(2)
    with pytest.raises(ValueError):
        assemble_operator(m, lagrange(1), assembly.FormSpec("plate_ip"))
    with pytest.raises(ValueError):
        assemble_operator(m, HERMITE, assembly.FormSpec("plate"))
    with pytest.raises(ValueError):
        assemble_operator(m, lagrange(3),
                          assembly.FormSpec("plate_clamped_nitsche"))
    with pytest.raises(ValueError):
        assembly.FormSpec(kind="nonsense")
    for nu in (0.7, -0.1, np.nan):
        with pytest.raises(ValueError, match="Poisson ratio"):
            assembly.FormSpec("plate", nu=nu)


def test_form_penalties_are_constants_of_kind_and_degree():
    # a form is its kind and nu: the penalties the kernels read are fixed
    # by the kind and the degree
    cases = [(lagrange(1), "poisson_nitsche", 10.0, None),
             (lagrange(2), "poisson_nitsche", 40.0, None),
             (lagrange(2), "plate_ip", 20.0, 20.0),
             (lagrange(3), "plate_ip", 20.0, 810.0),
             (MORLEY, "plate", None, 20.0),
             (ARGYRIS, "plate", None, 6250.0),
             (BELL, "plate", None, 6250.0),
             (MORLEY, "plate_clamped_nitsche", None, 100.0),
             (ARGYRIS, "plate_clamped_nitsche", None, 100.0)]
    for el, kind, alpha, beta in cases:
        kern = assembly._Kernels(el, assembly.FormSpec(kind))
        if alpha is not None:
            assert kern.alpha == alpha
        if beta is not None:
            assert kern.beta == beta


def test_text_writers_keep_their_bytes(tmp_path):
    # dump_M_csv's bytes equal those of the hand-written formatting it
    # replaced, here as the reference, on values whose text a change of
    # format would alter: -0.0, a subnormal, +-inf and nan
    vals = np.array([-0.0, 5e-324, np.inf, -np.inf, np.nan, -1 / 3, 1e300, 0.1])
    M = np.stack([vals, vals[::-1]])
    csv = "".join(",".join(f"{c:.17g}" for c in row) + "\n" for row in M)
    transform.dump_M_csv(M, tmp_path / "m.csv")
    assert (tmp_path / "m.csv").read_text() == csv


def _condition(el, n, scale):
    m = build_unit_square_mesh(n)
    A = assemble_operator(m, el, assembly.FormSpec("poisson_nitsche"),
                          scale=scale)
    return condition_number(A)


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


@pytest.mark.parametrize("k", [2, 3, 4, 5])
def test_p1_prolongation_interpolates_linears(k):
    # the coarse space is exact: P maps the vertex values of a linear g to
    # the P_k interpolant of g; a node shared by cells is written once
    m = build_unit_square_mesh(6, 0.2)
    el = lagrange(k)
    A = assemble_operator(m, el, assembly.FormSpec("poisson_nitsche"))
    g = ScalarField(f=lambda x, y: 0.3 - 1.7 * x + 2.9 * y)
    P = A.coarse
    assert P.shape == (A.n, m.n_vertices)
    assert np.abs(P @ g.f(*m.vertices.T) - interpolate(m, el, g)).max() < 1e-13


def test_no_coarse_space_outside_lagrange_poisson():
    m = build_unit_square_mesh(6, 0.2)
    poisson = assembly.FormSpec("poisson_nitsche")
    for el in (lagrange(1), HERMITE, ARGYRIS, BELL):
        assert assemble_operator(m, el, poisson).coarse is None
    ip = assemble_operator(m, lagrange(3), assembly.FormSpec("plate_ip"))
    assert ip.coarse is None
