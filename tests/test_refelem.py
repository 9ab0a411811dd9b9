"""Reference element construction: duality, reproduction, tabulation."""

import ast
import inspect
from dataclasses import FrozenInstanceError
from fractions import Fraction

import numpy as np
import pytest
import sympy

from conftest import X, Y, interpolate_on_cell, poly_field, sample_points
from trifem import assembly, harness, refelem, transform
from trifem.mesh import reference_cell_geometry
from trifem.quadrature import interval_rule, triangle_rule
from trifem.refelem import (EDGE_VERTICES, REF_NORMALS, REF_VERTICES,
                            build_poly_basis, build_reference_element,
                            legendre4, tabulate, tabulate_coeffs)

ALL_FAMILIES = [("lagrange", 1), ("lagrange", 2), ("lagrange", 3),
                ("lagrange", 4), ("lagrange", 5), ("hermite", None),
                ("morley", None), ("argyris", None), ("bell", None)]

REPRO_DEGREE = {("lagrange", k): k for k in range(1, 6)}
REPRO_DEGREE.update({("hermite", None): 3, ("morley", None): 2,
                     ("argyris", None): 5, ("bell", None): 4})


def test_poly_basis_dimensions():
    assert build_poly_basis(0).dim == 1
    assert build_poly_basis(5).dim == 21


def test_poly_basis_constant_is_sqrt2():
    # normalized against the plain area measure (area 1/2), documented choice
    pb = build_poly_basis(0)
    vals = pb.tabulate(np.array([[0.25, 0.3]]), 0)[(0, 0)]
    assert abs(vals[0, 0] - np.sqrt(2.0)) < 1e-14


def test_poly_basis_tabulates_up_to_third_derivatives():
    pts = np.array([[0.25, 0.3]])
    assert (0, 3) in refelem.PolyBasis(3).tabulate(pts, 3)
    with pytest.raises(ValueError, match="derivative order 4 unsupported"):
        refelem.PolyBasis(3).tabulate(pts, 4)


def test_poly_basis_gram_condition():
    pb = build_poly_basis(5)
    rule = triangle_rule(10)
    tab = pb.tabulate(rule.points, 0)[(0, 0)]
    G = (tab * rule.weights) @ tab.T
    # orthonormal basis, exact rule: G is the identity up to roundoff
    assert np.linalg.cond(G) < 1 + 1e-10


def test_poly_basis_spans_monomials():
    pb = build_poly_basis(5)
    pts = sample_points()
    tab = pb.tabulate(pts, 0)[(0, 0)]
    for a in range(6):
        for b in range(6 - a):
            target = pts[:, 0] ** a * pts[:, 1] ** b
            coef, *_ = np.linalg.lstsq(tab.T, target, rcond=None)
            assert np.abs(tab.T @ coef - target).max() < 1e-12


def _mgs_oracle(degree):
    """Textbook O(n^4) modified Gram-Schmidt in Fractions: the reference bits."""
    monos = refelem._monomials(degree)
    G = [[refelem._exact_moment(a1 + a2, b1 + b2) for (a2, b2) in monos]
         for (a1, b1) in monos]
    n = len(monos)

    def dot(u, v):
        return sum(u[i] * G[i][j] * v[j]
                   for i in range(n) for j in range(n) if u[i] and v[j])

    basis = []
    for k in range(n):
        v = [Fraction(int(i == k)) for i in range(n)]
        for u in basis:
            coef = dot(v, u) / dot(u, u)
            v = [vi - coef * ui for vi, ui in zip(v, u)]
        basis.append(v)
    coeffs = np.array([[float(c) for c in v] for v in basis])
    return G, basis, coeffs / np.sqrt([float(dot(v, v)) for v in basis])[:, None]


@pytest.mark.parametrize("degree", range(refelem.MAX_POLY_DEGREE + 1))
def test_poly_basis_bits_match_modified_gram_schmidt(degree):
    G, oracle_vectors, oracle_coeffs = _mgs_oracle(degree)
    assert build_poly_basis(degree).coeffs.tobytes() == oracle_coeffs.tobytes()
    vectors, sq_norms = refelem._exact_gram_schmidt(G)
    assert vectors == oracle_vectors
    # pairwise G-orthogonal, exactly, with the returned squared norms
    gram_vectors = [[sum(g * x for g, x in zip(row, v)) for row in G]
                    for v in vectors]
    for a, u in enumerate(vectors):
        for b, gv in enumerate(gram_vectors):
            ip = sum(x * y for x, y in zip(u, gv))
            assert ip == (sq_norms[a] if a == b else 0)
    assert all(s > 0 for s in sq_norms)


def test_poly_basis_cached_per_degree_read_only():
    argyris, bell = (build_reference_element(f) for f in ("argyris", "bell"))
    assert argyris.poly is bell.poly is build_poly_basis(5)
    for a in (bell.poly.coeffs, bell.poly._dx, bell.poly._dy):
        assert not a.flags.writeable


def test_poly_basis_degree_range():
    with pytest.raises(ValueError):
        build_poly_basis(7)
    with pytest.raises(ValueError):
        build_poly_basis(-1)


def _independent_functional_rows(element):
    """Apply the element's functionals through plain tabulation (test-side)."""
    geom = reference_cell_geometry()
    rows = []
    for fn in element.functionals:
        pt = np.asarray(fn.point)[None, :]
        tab = tabulate(element, pt, max_order=2)
        if fn.normal:
            n = geom.normals[fn.entity[1]]
            rows.append(n[0] * tab[(1, 0)][:, 0] + n[1] * tab[(0, 1)][:, 0])
        else:
            rows.append(tab[fn.alpha][:, 0])
    return np.array(rows)


@pytest.mark.parametrize("family,degree", ALL_FAMILIES)
def test_nodal_duality(family, degree):
    el = build_reference_element(family, degree)
    N = _independent_functional_rows(el)
    assert np.abs(N - np.eye(el.n_dofs)).max() < 1e-10


def test_lagrange1_barycentric():
    el = build_reference_element("lagrange", 1)
    vals = tabulate(el, np.array([[1 / 3, 1 / 3]]), 0)[(0, 0)]
    assert np.allclose(vals[:, 0], 1 / 3, atol=1e-14)


def test_hermite_nodal_values():
    el = build_reference_element("hermite")
    assert el.n_dofs == 10
    pts = np.vstack([[1 / 3, 1 / 3], REF_VERTICES])
    tab = tabulate(el, pts, 1)
    assert abs(tab[(0, 0)][9, 0] - 1.0) < 1e-12      # barycenter function
    assert np.abs(tab[(0, 0)][9, 1:]).max() < 1e-12  # vanishes at vertices
    assert abs(tab[(1, 0)][1, 1 + 0] - 1.0) < 1e-12  # psi_1: unit dx at v0
    assert abs(tab[(0, 0)][1, 1 + 0]) < 1e-12


def test_morley_duality_via_tabulation():
    el = build_reference_element("morley")
    assert el.n_dofs == 6
    N = _independent_functional_rows(el)
    assert np.abs(N - np.eye(6)).max() < 1e-10


def test_bell_quartic_edge_modes_vanish():
    el = build_reference_element("bell")
    rule = interval_rule(10)
    leg = rule.weights * legendre4(rule.points)
    for e, (a, b) in enumerate(EDGE_VERTICES):
        pts = REF_VERTICES[a] + rule.points[:, None] * (REF_VERTICES[b] - REF_VERTICES[a])
        tab = tabulate(el, pts, 1)
        dn = REF_NORMALS[e, 0] * tab[(1, 0)] + REF_NORMALS[e, 1] * tab[(0, 1)]
        assert np.abs(dn @ leg).max() < 1e-10


def test_bell_reproduces_quartics_not_quintics():
    el = build_reference_element("bell")
    geom = reference_cell_geometry()
    pts = sample_points()
    tab0 = tabulate(el, pts, 0)[(0, 0)]

    dofs4 = interpolate_on_cell(el, geom, poly_field(X ** 4))
    assert np.abs(dofs4 @ tab0 - pts[:, 0] ** 4).max() < 1e-9

    dofs5 = interpolate_on_cell(el, geom, poly_field(X ** 5))
    assert np.abs(dofs5 @ tab0 - pts[:, 0] ** 5).max() > 1e-4


@pytest.mark.parametrize("family,degree", ALL_FAMILIES)
def test_polynomial_reproduction(family, degree):
    el = build_reference_element(family, degree)
    geom = reference_cell_geometry()
    d = REPRO_DEGREE[(family, degree)]
    expr = sum((X + 2 * Y) ** k for k in range(d + 1)) + X * Y ** max(d - 1, 0)
    field = poly_field(sympy.expand(expr))
    pts = sample_points()
    tab0 = tabulate(el, pts, 0)[(0, 0)]
    dofs = interpolate_on_cell(el, geom, field)
    exact = np.array([field.f(x, y) for x, y in pts])
    assert np.abs(dofs @ tab0 - exact).max() < 1e-9


@pytest.mark.parametrize("k", range(1, 6))
def test_lagrange_partition_of_unity(k):
    el = build_reference_element("lagrange", k)
    pts = sample_points()
    vals = tabulate(el, pts, 0)[(0, 0)]
    assert np.abs(vals.sum(axis=0) - 1.0).max() < 1e-12


@pytest.mark.parametrize("k", range(1, 6))
def test_lagrange_kronecker(k):
    el = build_reference_element("lagrange", k)
    nodes = np.array([f.point for f in el.functionals])
    vals = tabulate(el, nodes, 0)[(0, 0)]
    assert np.abs(vals - np.eye(el.n_dofs)).max() < 1e-11


@pytest.mark.parametrize("family,degree", ALL_FAMILIES)
def test_gradient_matches_finite_differences(family, degree, rng):
    el = build_reference_element(family, degree)
    pts = []
    while len(pts) < 12:
        p = rng.uniform(0.05, 0.9, 2)
        if p.sum() < 0.95:
            pts.append(p)
    pts = np.array(pts)
    h = 1e-6
    tab = tabulate(el, pts, 1)
    for alpha, axis in [((1, 0), 0), ((0, 1), 1)]:
        shift = np.zeros(2)
        shift[axis] = h
        fp = tabulate(el, pts + shift, 0)[(0, 0)]
        fm = tabulate(el, pts - shift, 0)[(0, 0)]
        fd = (fp - fm) / (2 * h)
        scale = np.maximum(np.abs(tab[alpha]), 1.0)
        assert (np.abs(tab[alpha] - fd) / scale).max() < 1e-6


@pytest.mark.parametrize("family,degree", [("hermite", None), ("argyris", None),
                                           ("lagrange", 4)])
def test_second_derivatives_match_finite_differences(family, degree, rng):
    el = build_reference_element(family, degree)
    pts = np.array([[0.2, 0.3], [0.4, 0.15], [0.1, 0.6], [0.3, 0.3]])
    h = 1e-5
    tab = tabulate(el, pts, 2)
    for alpha, axis in [((2, 0), 0), ((0, 2), 1)]:
        shift = np.zeros(2)
        shift[axis] = h
        d1 = {0: (1, 0), 1: (0, 1)}[axis]
        fp = tabulate(el, pts + shift, 1)[d1]
        fm = tabulate(el, pts - shift, 1)[d1]
        assert np.abs(tab[alpha] - (fp - fm) / (2 * h)).max() < 1e-5
    # mixed derivative against cross difference of the gradient
    shift = np.array([0.0, h])
    fp = tabulate(el, pts + shift, 1)[(1, 0)]
    fm = tabulate(el, pts - shift, 1)[(1, 0)]
    assert np.abs(tab[(1, 1)] - (fp - fm) / (2 * h)).max() < 1e-5


def test_tabulate_rejects_bad_input():
    el = build_reference_element("lagrange", 2)
    with pytest.raises(ValueError):
        tabulate(el, np.array([[0.2, 0.2]]), max_order=3)
    with pytest.raises(ValueError):
        tabulate(el, np.array([[0.8, 0.8]]), max_order=0)


def test_unsupported_families():
    with pytest.raises(ValueError):
        build_reference_element("lagrange", 6)
    with pytest.raises(ValueError):
        build_reference_element("hermite", 4)
    with pytest.raises(ValueError):
        build_reference_element("powell-sabin")


def test_functional_validation():
    from trifem.refelem import NodalFunctional
    with pytest.raises(ValueError):
        NodalFunctional((0.7, 0.7), (2, 0))
    for alpha in [(3, 0), (-1, 1), (1, 0, 0)]:
        with pytest.raises(ValueError):
            NodalFunctional((0.0, 0.0), (0, 0), alpha)
    with pytest.raises(ValueError):  # an edge-normal derivative at a vertex
        NodalFunctional((0.0, 0.0), (0, 0), normal=True)
    with pytest.raises(ValueError):  # an edge-normal derivative's alpha is (0, 0)
        NodalFunctional((0.5, 0.0), (1, 2), (1, 0), normal=True)
    assert NodalFunctional((0.0, 0.0), (0, 0), (1, 1)).derivative_order == 2
    assert NodalFunctional((0.5, 0.0), (1, 2), normal=True).derivative_order == 1


def test_apply_functionals_reads_the_tabulated_derivative():
    # a derivative functional returns its alpha's entry as tabulated, its
    # sign of zero included: no 1.0 * d/dx + 0.0 * d/dy, which turns -0 to +0
    from trifem.refelem import NodalFunctional, apply_functionals
    fns = [NodalFunctional((0.0, 0.0), (0, 0), alpha)
           for alpha in [(0, 0), (1, 0), (0, 1)]]
    fns.append(NodalFunctional((0.5, 0.0), (1, 2), normal=True))
    tab = {(0, 0): np.array([2.0, 0.0, 0.0, 0.0]),
           (1, 0): np.array([0.0, -0.0, 0.0, 3.0]),
           (0, 1): np.array([0.0, 5.0, 7.0, 4.0])}
    got = apply_functionals(fns, tab, REF_NORMALS)
    expect = np.array([2.0, -0.0, 7.0, REF_NORMALS[2] @ [3.0, 4.0]])
    assert got.tobytes() == expect.tobytes()


@pytest.mark.parametrize("family, degree", [
    ("lagrange", True), ("lagrange", 2.5), ("lagrange", 3.0),
    ("argyris", 5.0)])
def test_degree_that_is_not_an_integer_is_a_value_error(family, degree):
    with pytest.raises(ValueError, match="not an integer"):
        build_reference_element(family, degree)


def test_third_derivatives_match_finite_differences():
    # order 3 is internal (clamped-plate boundary terms); check it anyway
    el = build_reference_element("argyris")
    pts = np.array([[0.25, 0.3], [0.4, 0.2]])
    h = 1e-4
    tab3 = tabulate_coeffs(el.poly, el.coeffs, pts, 3)
    for alpha, lower, axis in [((3, 0), (2, 0), 0), ((2, 1), (2, 0), 1),
                               ((1, 2), (0, 2), 0), ((0, 3), (0, 2), 1)]:
        shift = np.zeros(2)
        shift[axis] = h
        fp = tabulate_coeffs(el.poly, el.coeffs, pts + shift, 2)[lower]
        fm = tabulate_coeffs(el.poly, el.coeffs, pts - shift, 2)[lower]
        assert np.abs(tab3[alpha] - (fp - fm) / (2 * h)).max() < 1e-4


@pytest.mark.parametrize("family, degree", [("lagrange", 2), ("bell", None)])
def test_element_arrays_are_read_only(family, degree):
    # one element is shared by every pass and rung, so a write into its
    # coefficients or Bell's tables must fail rather than corrupt them
    el = build_reference_element(family, degree)
    arrays = [el.coeffs]
    if el.bell_tables is not None:
        jets, moments = el.bell_tables
        assert jets.shape == (3, 6, 21) and moments.shape == (3, 2, 21)
        arrays += [jets, moments]
        with pytest.raises(TypeError):
            el.bell_tables[0] = np.zeros_like(jets)
    assert len(arrays) == (1 if family == "lagrange" else 3)
    for a in arrays:
        with pytest.raises(ValueError, match="read-only"):
            a[(0,) * a.ndim] = 1.0


def test_reference_element_is_frozen():
    bell = build_reference_element("bell")
    with pytest.raises(FrozenInstanceError):
        bell.coeffs = np.zeros_like(bell.coeffs)
    assert bell.bell_tables is not None
    assert build_reference_element("argyris").bell_tables is None


@pytest.mark.parametrize("family, degree, space, mapping", [
    *[("lagrange", k, "H1", "identity") for k in range(1, 6)],
    ("hermite", None, "H1", "pushforward"),
    ("morley", None, "H2nc", "pushforward"),
    ("argyris", None, "H2", "pushforward"),
    ("bell", None, "H2", "restriction")])
def test_element_states_its_space_and_mapping(family, degree, space, mapping):
    el = build_reference_element(family, degree)
    assert (el.space, el.mapping) == (space, mapping)
    # the identity exactly when every functional is a point value, the
    # restriction exactly when constraint rows extend the basis
    values_only = all(f.derivative_order == 0 for f in el.functionals)
    assert (el.mapping == "identity") == values_only
    assert (el.mapping == "restriction") == (el.bell_tables is not None)
    for fact in ("space", "mapping"):
        with pytest.raises(AttributeError):
            setattr(el, fact, "H1")


def _family_reads(module):
    """Lines of module that read .family, except inside the f-string of a
    raise (naming the element in an error message) and in pushforward_M's
    return (Hermite's layout, a fact of the bits and not of the map)."""
    tree = ast.parse(inspect.getsource(module))
    exempt = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Raise):
            exempt.update(id(n) for s in ast.walk(node)
                          if isinstance(s, ast.JoinedStr) for n in ast.walk(s))
        if isinstance(node, ast.FunctionDef) and node.name == "pushforward_M":
            exempt.update(id(n) for r in ast.walk(node)
                          if isinstance(r, ast.Return) for n in ast.walk(r))
    return [node.lineno for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and node.attr == "family"
            and id(node) not in exempt]


@pytest.mark.parametrize("module", [assembly, harness, transform],
                         ids=lambda m: m.__name__)
def test_passes_read_the_elements_facts_not_its_family(module):
    # every read counts, a local alias of element.family included
    assert _family_reads(module) == []
