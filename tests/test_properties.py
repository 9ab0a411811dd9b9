"""Property tests over drawn cells of every shape: nodal duality through
each cell's M, and the mesh's degeneracy threshold."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import physical_functional_matrix, triangle_geometry
from trifem.mesh import DEGENERACY_RTOL, TriangleMesh
from trifem.quadrature import interval_rule
from trifem.refelem import (EDGE_VERTICES, REF_VERTICES,
                            build_reference_element, tabulate_coeffs)
from trifem.transform import cell_transform, scaling_diagonal

PROPERTY = settings(derandomize=True, database=None, deadline=None)

ELEMENTS = {f: build_reference_element(f)
            for f in ("hermite", "morley", "argyris", "bell")}

ONE_CELL = np.array([[0, 1, 2]])


def _log_uniform(lo, hi):
    return st.floats(np.log10(lo), np.log10(hi)).map(lambda e: 10.0 ** e)


@st.composite
def cells(draw, quality):
    """Counter-clockwise vertices (3, 2) of a cell whose area is quality
    times the square of its base: the base (0, 0)-(1, 0) and the apex
    (s, 2 quality), rotated, scaled by 1e-3 to 1e3, shifted by up to four
    sizes and relabelled cyclically.  For quality up to sqrt(3)/4 and s in
    [0, 1] the apex reaches every shape of triangle (its longest edge as
    the base); past sqrt(3)/4 the base is no longer the longest edge."""
    q, s = draw(quality), draw(st.floats(0.0, 1.0))
    angle = draw(st.floats(0.0, 2.0 * np.pi))
    size = draw(_log_uniform(1e-3, 1e3))
    shift = np.array(draw(st.tuples(st.floats(-4.0, 4.0), st.floats(-4.0, 4.0))))
    c, d = np.cos(angle), np.sin(angle)
    v = np.array([[0.0, 0.0], [1.0, 0.0], [s, 2.0 * q]]) @ [[c, d], [-d, c]]
    return np.roll(size * (v + shift), draw(st.integers(0, 2)), axis=0)


def _bell_constraint_rows(el, geom):
    """Bell's three constraints on one cell, test-side: per edge, the
    quartic Legendre moment of the physical normal derivative of each
    pulled-back enriched basis function, times the edge length."""
    rule = interval_rule(10)
    p4 = np.polynomial.legendre.Legendre.basis(4)(2.0 * rule.points - 1.0)
    rows = []
    for e, (a, b) in enumerate(EDGE_VERTICES):
        pts = REF_VERTICES[a] + rule.points[:, None] * (REF_VERTICES[b]
                                                         - REF_VERTICES[a])
        tab = tabulate_coeffs(el.poly, el.coeffs, pts, 1)
        grad = np.einsum("ba,bjq->ajq", geom.J, np.stack([tab[(1, 0)],
                                                          tab[(0, 1)]]))
        dn = np.einsum("a,ajq->jq", geom.normals[e], grad)
        rows.append(geom.edge_lengths[e] * dn @ (rule.weights * p4))
    return np.array(rows)


# Below quality 1e-4 (cond(J) past about 1e4) the duality bound of the
# quintics passes 1e-2 and says little; slivers down to the degeneracy
# threshold are drawn by the threshold test below
@pytest.mark.parametrize("family", list(ELEMENTS))
@PROPERTY
@given(verts=cells(_log_uniform(1e-4, 1.0)))
def test_nodal_duality_on_drawn_cells(family, verts):
    # physical functional i, scaled by h^k_i as the study DoFs are, applied
    # to scaled basis function j is delta_ij, so the cell's size drops out;
    # Bell's constraints, part of its dual set, give each basis function 0.
    # Tolerance 1e-10 cond(J)^k, k the element's highest derivative order:
    # 1e-10 bounds the reference duality (acceptance criterion 1), and M
    # reads J^-T and the inverse Hessian pushforward, whose conditioning
    # grows like cond(J)^k.  Over several sets of 100 draws the worst was
    # 0.06 of it (Argyris)
    el = ELEMENTS[family]
    geom = triangle_geometry(verts)
    M = cell_transform(el, geom, scale=True).matrix
    S = scaling_diagonal(el, geom)
    rows = physical_functional_matrix(el, geom) / S[:, None]
    expect = np.eye(el.n_dofs)
    if family == "bell":
        rows = np.vstack([rows, _bell_constraint_rows(el, geom)])
        expect = np.vstack([expect, np.zeros((3, el.n_dofs))])
    k = max(f.derivative_order for f in el.functionals)
    tol = 1e-10 * np.linalg.cond(geom.J) ** k
    assert np.abs(rows @ M.T - expect).max() <= tol


@PROPERTY
@given(past=cells(st.one_of(st.just(0.0), _log_uniform(1e-3, 0.5)
                            .map(lambda f: f * DEGENERACY_RTOL))),
       near=cells(_log_uniform(2.0, 1e3).map(lambda f: f * DEGENERACY_RTOL)))
def test_cells_past_the_degeneracy_threshold_are_rejected(past, near):
    # a cell whose area is at most DEGENERACY_RTOL times its squared
    # longest edge is a ValueError, made directly or moved there by
    # replace, and so is its mirror image; a sliver twice as thick is a mesh
    mesh = TriangleMesh(REF_VERTICES, ONE_CELL)
    for verts in (past, past[::-1], near[::-1]):
        with pytest.raises(ValueError, match="degenerate or negatively"):
            TriangleMesh(verts, ONE_CELL)
        with pytest.raises(ValueError, match="degenerate or negatively"):
            replace(mesh, vertices=verts)
    assert np.array_equal(TriangleMesh(near, ONE_CELL).vertices, near)
    assert np.array_equal(replace(mesh, vertices=near).vertices, near)
