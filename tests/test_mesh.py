"""Mesh construction, connectivity and per-cell geometry."""

from dataclasses import fields, replace

import numpy as np
import pytest

from trifem import assembly
from trifem.mesh import (TriangleMesh, batch_geometry, build_unit_square_mesh,
                         cell_geometry, reference_cell_geometry, signed_area,
                         vertex_size_field)
from trifem.refelem import EDGE_VERTICES, build_reference_element


def test_unit_square_counts_n1():
    m = build_unit_square_mesh(1)
    assert m.n_vertices == 4
    assert m.n_cells == 2
    assert m.n_edges == 5
    assert len(m.boundary_edges) == 4


def test_unit_square_cells_match_square_loop():
    # the square-by-square loop the cell arrays were first built with
    for n in (1, 2, 3, 5, 8):
        idx = lambda i, j: j * (n + 1) + i
        cells = []
        for j in range(n):
            for i in range(n):
                cells.append((idx(i, j), idx(i + 1, j), idx(i + 1, j + 1)))
                cells.append((idx(i, j), idx(i + 1, j + 1), idx(i, j + 1)))
        assert np.array_equal(build_unit_square_mesh(n).cells, cells)


def test_unit_square_counts_n8_euler():
    m = build_unit_square_mesh(8)
    assert (m.n_vertices, m.n_cells, m.n_edges) == (81, 128, 208)
    # Euler: V - E + F = 2 counting the outer face
    assert m.n_vertices - m.n_edges + (m.n_cells + 1) == 2


def test_perturbed_mesh_valid():
    m = build_unit_square_mesh(8, 0.2)
    areas = np.array([signed_area(m.vertices, m.cells[c]) for c in range(m.n_cells)])
    assert np.all(areas > 0)
    assert abs(areas.sum() - 1.0) < 1e-12


def test_perturbation_formula_and_fixed_boundary():
    n, eps = 4, 0.3
    m0 = build_unit_square_mesh(n, 0.0)
    m1 = build_unit_square_mesh(n, eps)
    x, y = m0.vertices[:, 0], m0.vertices[:, 1]
    interior = (x > 0) & (x < 1) & (y > 0) & (y < 1)
    dx = (eps / n) * np.sin(2 * np.pi * y) * np.sin(np.pi * x)
    dy = (eps / n) * np.sin(2 * np.pi * x) * np.sin(np.pi * y)
    expect = m0.vertices.copy()
    expect[interior, 0] += dx[interior]
    expect[interior, 1] += dy[interior]
    assert np.abs(m1.vertices - expect).max() < 1e-15
    assert np.abs(m1.vertices[~interior] - m0.vertices[~interior]).max() == 0.0


def test_mesh_argument_validation():
    with pytest.raises(ValueError):
        build_unit_square_mesh(0)
    with pytest.raises(ValueError):
        build_unit_square_mesh(4, 0.5)
    with pytest.raises(ValueError):
        TriangleMesh(np.array([[0., 0.], [1., 0.], [2., 0.]]), np.array([[0, 1, 2]]))


def test_edge_table_matches_brute_force_pairing():
    # group (cell, local edge) sides by their endpoint pair, cell by cell
    m = build_unit_square_mesh(6, 0.2)
    sides = {}
    for c, cell in enumerate(m.cells):
        for i, (a, b) in enumerate(EDGE_VERTICES):
            key = tuple(sorted((int(cell[a]), int(cell[b]))))
            sides.setdefault(key, []).append([c, i])
    assert len(sides) == m.n_edges
    for e, (a, b) in enumerate(m.edges):
        found = sides[(int(a), int(b))]
        assert len(found) in (1, 2)
        assert m.edge_cells[e].tolist() == found + [[-1, -1]] * (2 - len(found))


def test_edge_sharing():
    m = build_unit_square_mesh(4, 0.2)
    for e in range(m.n_edges):
        ncells = int(np.count_nonzero(m.edge_cells[e, :, 0] >= 0))
        assert ncells in (1, 2)
        assert (ncells == 1) == (e in set(m.boundary_edges))
    assert np.all(m.edges[:, 0] < m.edges[:, 1])


def test_reference_cell_geometry():
    g = reference_cell_geometry()
    assert np.abs(g.J - np.eye(2)).max() < 1e-15
    assert np.allclose(g.edge_lengths, [np.sqrt(2), 1.0, 1.0])
    assert np.allclose(g.normals[0], [1 / np.sqrt(2), 1 / np.sqrt(2)])
    assert abs(g.detJinv_abs - 1.0) < 1e-15


def test_geometry_uniform_scaling():
    s = 3.0
    g = cell_geometry(TriangleMesh(s * np.array([[0., 0.], [1., 0.], [0., 1.]]),
                                   np.array([[0, 1, 2]])), 0)
    assert np.abs(g.J - np.eye(2) / s).max() < 1e-14
    assert abs(g.detJinv_abs - s * s) < 1e-12
    assert np.allclose(g.edge_lengths, s * np.array([np.sqrt(2), 1, 1]))


def test_geometry_chain_rule_oracle():
    g = cell_geometry(TriangleMesh(np.array([[0., 0.], [2., 0.], [0., 1.]]),
                                   np.array([[0, 1, 2]])), 0)
    assert np.abs(g.J - np.diag([0.5, 1.0])).max() < 1e-14
    assert np.abs(g.J @ g.Jinv - np.eye(2)).max() < 1e-12
    # p(x, y) = x^2 y pulls back to 4 xh^2 yh; grad p = J^T refgrad at (1, 1/2)
    xhat = (np.array([1.0, 0.5]) - g.vertices[0]) @ g.J.T
    ref_grad = np.array([8 * xhat[0] * xhat[1], 4 * xhat[0] ** 2])
    assert np.abs(g.J.T @ ref_grad - np.array([1.0, 1.0])).max() < 1e-13


def test_geometry_frames():
    m = build_unit_square_mesh(5, 0.25)
    for c in range(m.n_cells):
        g = cell_geometry(m, c)
        verts = m.vertices[m.cells[c]]
        for e in range(3):
            assert abs(np.dot(g.normals[e], g.tangents[e])) < 1e-13
            assert abs(np.hypot(*g.normals[e]) - 1) < 1e-13
            assert abs(np.hypot(*g.tangents[e]) - 1) < 1e-13
            a, b = EDGE_VERTICES[e]
            mid = 0.5 * (verts[a] + verts[b])
            assert np.dot(g.normals[e], mid - verts[e]) > 0


def test_interior_normals_antiparallel():
    m = build_unit_square_mesh(8, 0.2)
    for e in range(m.n_edges):
        cells = m.edge_cells[e, :, 0]
        if cells[1] < 0:
            continue
        locs = [int(np.flatnonzero(m.cell_edges[c] == e)[0]) for c in cells]
        nA = cell_geometry(m, cells[0]).normals[locs[0]]
        nB = cell_geometry(m, cells[1]).normals[locs[1]]
        assert np.abs(nA + nB).max() < 1e-12


def test_tangent_sign_agreement():
    # each cell's local tangent, reversed where cell_edge_forward is false,
    # is the stored edge direction, so both cells of an edge agree on it
    m = build_unit_square_mesh(6, 0.2)
    sign = np.where(m.cell_edge_forward, 1, -1)
    for c in range(m.n_cells):
        g = cell_geometry(m, c)
        for e_loc in range(3):
            e = m.cell_edges[c, e_loc]
            a, b = m.edges[e]
            stored = m.vertices[b] - m.vertices[a]
            stored = stored / np.hypot(*stored)
            assert np.abs(sign[c, e_loc] * g.tangents[e_loc] - stored).max() < 1e-12


def test_degenerate_cell_rejected():
    verts = np.array([[0., 0.], [1., 0.], [0.5, 0.]])
    with pytest.raises(ValueError):
        TriangleMesh(verts, np.array([[0, 1, 2]]))
    # two positively oriented cells that run a shared edge the same way: a
    # fold (both on one side of the edge) and a duplicate (every edge twice,
    # so no boundary at all)
    verts = np.array([[0., 0.], [1., 0.], [0., 1.], [0.5, 1.]])
    with pytest.raises(ValueError, match=r"edge \(0, 1\) runs the same way "
                                         "in cells 0 and 1"):
        TriangleMesh(verts, np.array([[0, 1, 2], [0, 1, 3]]))
    with pytest.raises(ValueError, match=r"edge \(1, 2\) runs the same way "
                                         "in cells 0 and 1"):
        TriangleMesh(verts[:3], np.array([[0, 1, 2], [1, 2, 0]]))


_SQUARE = np.array([[0., 0.], [1., 0.], [1., 1.], [0., 1.]])


@pytest.mark.parametrize("verts, cells, match", [
    (_SQUARE, [[0, 1, -2]], r"cell 0 has a vertex index outside \[0, 4\)"),
    (_SQUARE, [[0, 1, 4]], r"cell 0 has a vertex index outside \[0, 4\)"),
    (_SQUARE, [[0, 1, 2.7]], "integer"),
    (_SQUARE, [0, 1, 2], "integer"),
    (np.where(_SQUARE == 1.0, np.nan, _SQUARE), [[0, 1, 2]], "finite"),
    (np.where(_SQUARE == 1.0, np.inf, _SQUARE), [[0, 1, 2]], "finite"),
    (np.column_stack([_SQUARE, np.zeros(4)]), [[0, 1, 2]], r"\(V, 2\)"),
    (_SQUARE, [[0, 1, 2]], "vertex 3 is in no cell"),
    (_SQUARE, np.zeros((0, 3), dtype=int), "at least one cell"),
], ids=["negative", "past-end", "fractional", "flat", "nan", "inf", "3d",
        "unused-vertex", "no-cells"])
def test_build_mesh_rejects_what_it_cannot_mesh(verts, cells, match):
    # each of these was stored (wrapped, truncated, NaN) or failed later
    # with an error the CLI does not report as a bad argument; a vertex in
    # no cell got a zero size (0 / 0) and a zero P1 operator row
    with pytest.raises(ValueError, match=match):
        TriangleMesh(verts, cells)


def test_degeneracy_is_relative_to_cell_size():
    one = np.array([[0, 1, 2]])
    tiny = np.array([[0., 0.], [1e-7, 0.], [0., 1e-7]])
    g = cell_geometry(TriangleMesh(tiny, one), 0)
    assert np.isclose(g.detJinv_abs, 1e-14, rtol=1e-9, atol=0.0)
    sliver = np.array([[0., 0.], [1., 0.], [0.5, 2e-13]])
    assert np.isclose(signed_area(sliver, one[0]), 1e-13, rtol=1e-3, atol=0.0)
    with pytest.raises(ValueError, match="cell 0 is degenerate"):
        TriangleMesh(sliver, one)
    # the same test holds for a mesh whose vertices moved by replace
    with pytest.raises(ValueError, match="cell 0 is degenerate"):
        replace(TriangleMesh(tiny, one), vertices=sliver)


def test_clockwise_cell_rejected_by_geometry():
    # mirrored vertices make every cell clockwise, which the outward
    # normals (edge 1's tangent rotation flipped) assume it is not: the
    # mesh refuses such a cell before batch_geometry can see it
    m = build_unit_square_mesh(2)
    with pytest.raises(ValueError,
                       match="cell 0 is degenerate or negatively oriented"):
        replace(m, vertices=m.vertices * [-1.0, 1.0])


def test_replaced_cells_rederive_the_connectivity():
    # rotating every cell's vertices renumbers its local edges: replace
    # derives cell_edges and the rest anew, so the Argyris plate operator
    # is the one a fresh mesh of the same cells gives, byte for byte
    m = build_unit_square_mesh(4, 0.2)
    rotated = m.cells[:, [1, 2, 0]]
    replaced, fresh = replace(m, cells=rotated), TriangleMesh(m.vertices, rotated)
    for f in fields(TriangleMesh):
        if f.compare:
            assert np.array_equal(getattr(replaced, f.name),
                                  getattr(fresh, f.name)), f.name
    assert not np.array_equal(replaced.cell_edges, m.cell_edges)
    argyris = build_reference_element("argyris")
    plate = assembly.FormSpec("plate")
    A, B = (assembly.assemble_operator(mesh, argyris, plate)
            for mesh in (replaced, fresh))
    for name in ("indptr", "indices", "data"):
        assert getattr(A, name).tobytes() == getattr(B, name).tobytes()


def test_mesh_is_made_from_vertices_and_cells_only():
    # the connectivity is derived, never given, not even when it is right
    m = build_unit_square_mesh(1)
    assert [f.name for f in fields(TriangleMesh) if f.init] == ["vertices",
                                                               "cells"]
    with pytest.raises(TypeError):
        TriangleMesh(vertices=m.vertices, cells=m.cells, edges=m.edges)
    with pytest.raises(TypeError):
        TriangleMesh(**{f.name: getattr(m, f.name)
                        for f in fields(TriangleMesh) if f.compare})


def test_meshes_and_geometries_compare_by_identity():
    # two meshes built alike are two meshes, each with its own cell data:
    # comparing them neither raises on their arrays nor equates them, and
    # a mesh or a geometry works as a dict key
    a, b = build_unit_square_mesh(2), build_unit_square_mesh(2)
    assert a == a and a != b and not a == b
    assert {a: 1, b: 2}[a] == 1 and hash(a) == hash(a)
    g, h = cell_geometry(a, 0), cell_geometry(a, 0)
    assert g == g and g != h
    assert {g: 1, h: 2}[h] == 2


def test_edge_shared_by_three_cells_rejected():
    # three positively oriented triangles on the edge (0, 1)
    verts = np.array([[0., 0.], [1., 0.], [0.5, 1.], [0.5, -1.], [0.3, 0.5]])
    cells = np.array([[0, 1, 2], [1, 0, 3], [0, 1, 4]])
    assert all(signed_area(verts, c) > 0 for c in cells)
    with pytest.raises(ValueError, match=r"edge \(0, 1\) is shared by 3 cells"):
        TriangleMesh(verts, cells)
    TriangleMesh(verts[:4], cells[:2])


def test_vertex_size_field_small():
    m = build_unit_square_mesh(1)
    field = vertex_size_field(m)
    assert np.allclose(field, np.sqrt(2.0))


def test_vertex_size_field_uniform_interior():
    m = build_unit_square_mesh(8)
    field = vertex_size_field(m)
    interior = np.setdiff1d(np.arange(m.n_vertices),
                            m.edges[m.boundary_edges].ravel())
    assert np.allclose(field[interior], np.sqrt(2.0) / 8)


def test_vertex_size_field_homogeneous():
    m = build_unit_square_mesh(3, 0.2)
    scaled = TriangleMesh(2.0 * m.vertices, m.cells)
    assert np.allclose(vertex_size_field(scaled), 2.0 * vertex_size_field(m))


def test_global_edge_normal_is_ccw_rotation():
    # the global normal of a shared edge-normal DoF (as cell_blocks' M and
    # interpolate orient it) is the stored edge direction rotated 90 degrees
    # counter-clockwise, and each cell's outward normal or its negative
    from trifem.assembly import _global_normals
    m = build_unit_square_mesh(4, 0.2)
    geom = batch_geometry(m)
    normals = _global_normals(m, geom)
    assert np.array_equal(np.abs(normals), np.abs(geom.normals))
    for c in range(m.n_cells):
        for e_loc, e in enumerate(m.cell_edges[c]):
            a, b = m.edges[e]
            d = m.vertices[b] - m.vertices[a]
            d = d / np.hypot(*d)
            n = normals[c, e_loc]
            assert abs(np.dot(n, d)) < 1e-14
            assert abs(d[0] * n[1] - d[1] * n[0] - 1.0) < 1e-14  # 90 deg CCW
