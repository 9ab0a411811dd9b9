"""Acceptance suite: every criterion at its stated tolerance.

Each test prints one PASS/FAIL line (run with -s or look at captured
output).  The studies behind criteria 5-7 run once per session.
"""

import time

import numpy as np
import pytest

from conftest import (interpolate_on_cell, l2_projection, make_rng,
                      physical_functional_matrix, poly_field, random_triangle,
                      sample_points, triangle_geometry)
import sympy
from conftest import X, Y
from trifem import assembly
from trifem.assembly import l2_error
from trifem.harness import (StudySpec, poisson_problem,
                            run_convergence_study, run_stats_report)
from trifem.mesh import build_unit_square_mesh
from trifem.refelem import build_reference_element, tabulate_coeffs
from trifem.solver import DENSE_CUTOVER
from trifem.transform import cell_transform, morley_three_step

H2_FAMILIES = ("hermite", "morley", "argyris", "bell")
ELEMENTS = {f: build_reference_element(f) for f in H2_FAMILIES}
for k in range(1, 6):
    ELEMENTS[f"lagrange:{k}"] = build_reference_element("lagrange", k)

REPRO_POLY = {
    "hermite": (3, X ** 3 - 2 * X * Y ** 2 + X * Y + 1),
    "morley": (2, X ** 2 - 3 * X * Y + 2 * Y ** 2 + X - 5),
    "argyris": (5, X ** 5 - 3 * X ** 2 * Y ** 3),
    "bell": (4, X ** 4 + X ** 2 * Y ** 2 - Y ** 4 + X ** 3 - Y + 2),
}


def _report(num, ok, detail):
    print(f"criterion {num}: {'PASS' if ok else 'FAIL'} - {detail}")


def test_criterion_1_reference_duality():
    worst = {}
    from trifem.mesh import reference_cell_geometry
    geom = reference_cell_geometry()
    for name, el in ELEMENTS.items():
        # functionals applied to the nodal basis on the reference cell; for
        # Bell the tabulation carries 3 extra columns (constraint duals)
        rows = physical_functional_matrix(el, geom)[:, :el.n_dofs]
        worst[name] = np.abs(rows - np.eye(el.n_dofs)).max()
    bad = {k: v for k, v in worst.items() if v >= 1e-10}
    _report(1, not bad, f"reference duality, worst error "
                        f"{max(worst.values()):.2e} over {len(worst)} families")
    assert not bad, f"reference duality failures: {bad}"


def test_criterion_2_transformation_duality():
    rng = make_rng(20240817)
    worst = {}
    for family in H2_FAMILIES:
        el = ELEMENTS[family]
        err = 0.0
        for _ in range(100):
            geom = triangle_geometry(random_triangle(rng))
            M = cell_transform(el, geom, scale=False).matrix
            N = physical_functional_matrix(el, geom) @ M.T
            err = max(err, np.abs(N - np.eye(el.n_dofs)).max())
        worst[family] = err
    bad = {k: v for k, v in worst.items() if v >= 1e-8}
    _report(2, not bad, "transformation duality on 100 random cells per "
                        f"family, worst {max(worst.values()):.2e}")
    assert not bad, f"transformation duality failures: {bad}"


def test_criterion_3_polynomial_reproduction_through_map():
    rng = make_rng(7)
    pts = sample_points()
    worst = {}
    for family, (degree, expr) in REPRO_POLY.items():
        el = ELEMENTS[family]
        field = poly_field(sympy.expand(expr))
        tab0 = tabulate_coeffs(el.poly, el.coeffs, pts, 0)[(0, 0)]
        err = 0.0
        for _ in range(20):
            geom = triangle_geometry(random_triangle(rng))
            M = cell_transform(el, geom, scale=False).matrix
            dofs = interpolate_on_cell(el, geom, field)
            phys = geom.ref_to_phys(pts)
            exact = np.array([field.f(x, y) for x, y in phys])
            err = max(err, np.abs(dofs @ (M @ tab0) - exact).max())
        worst[family] = err
    bad = {k: v for k, v in worst.items() if v >= 1e-8}
    _report(3, not bad, "reproduction of degrees 3/2/5/4 through the map, "
                        f"worst {max(worst.values()):.2e}")
    assert not bad, f"reproduction failures: {bad}"


def test_criterion_4_morley_three_step_cross_check():
    rng = make_rng(11)
    worst = 0.0
    for _ in range(100):
        geom = triangle_geometry(random_triangle(rng))
        E, VC, D = morley_three_step(geom)
        V = E @ VC @ D
        M = cell_transform(ELEMENTS["morley"], geom, scale=False).matrix
        worst = max(worst, np.abs(V - M.T).max())
    _report(4, worst < 1e-10, f"E VC D vs closed-form V, worst {worst:.2e}")
    assert worst < 1e-10


@pytest.fixture(scope="module")
def poisson_studies():
    families = ["lagrange:3", "hermite", "lagrange:4", "bell", "lagrange:5",
                "argyris"]
    out = {}
    start = time.perf_counter()
    for fam in families:
        rows = run_convergence_study(StudySpec(problem="poisson", element=fam))
        out[fam] = rows
    out["__elapsed__"] = time.perf_counter() - start
    return out


@pytest.fixture(scope="module")
def biharmonic_studies():
    out = {}
    start = time.perf_counter()
    for fam in ["morley", "argyris", "bell", "lagrange:2"]:
        rows = run_convergence_study(StudySpec(problem="biharmonic", element=fam))
        out[fam] = rows
    out["__elapsed__"] = time.perf_counter() - start
    return out


POISSON_RATE_TARGETS = {
    "lagrange:3": (4.0, 0.3), "hermite": (4.0, 0.3),
    "lagrange:4": (5.0, 0.3), "bell": (5.0, 0.4),
    "lagrange:5": (6.0, 0.4), "argyris": (6.0, 0.4),
}
POISSON_RATE_FLOORS = {
    "lagrange:3": 3.7, "hermite": 3.7, "lagrange:4": 4.7, "bell": 4.7,
    "lagrange:5": 5.7, "argyris": 5.5,
}


def test_criterion_5_poisson_rates(poisson_studies):
    observed = {f: rows[-1].rate for f, rows in poisson_studies.items()
                if f != "__elapsed__"}
    failures = []
    for fam, (target, tol) in POISSON_RATE_TARGETS.items():
        rate = observed[fam]
        if abs(rate - target) > tol:
            failures.append(f"{fam}: {rate:.2f} not within {target}+-{tol}")
        if rate < POISSON_RATE_FLOORS[fam]:
            failures.append(f"{fam}: {rate:.2f} below floor "
                            f"{POISSON_RATE_FLOORS[fam]}")
    elapsed = poisson_studies["__elapsed__"]
    if elapsed >= 600.0:
        failures.append(f"runtime {elapsed:.0f}s exceeds the 10 minute target")
    detail = ", ".join(f"{f}={observed[f]:.2f}" for f in POISSON_RATE_TARGETS)
    _report("5 (rates)", not failures,
            f"finest-rung Poisson L2 rates: {detail} ({elapsed:.0f}s)")
    assert not failures, failures


def test_criterion_5_ordering_p3_hermite(poisson_studies):
    p3 = [r.error for r in poisson_studies["lagrange:3"]]
    hm = [r.error for r in poisson_studies["hermite"]]
    ok = all(a <= b for a, b in zip(p3, hm))
    _report("5 (P3 vs Hermite)", ok,
            "P3 errors " + "/".join(f"{e:.2e}" for e in p3)
            + " <= Hermite " + "/".join(f"{e:.2e}" for e in hm))
    assert ok


def test_criterion_5_ordering_p4_bell(poisson_studies):
    # Unlike P3 vs Hermite, neither global space contains the other: Bell is
    # globally C1 but piecewise quintic (P4 plus three quintic modes per
    # cell), so nothing forces P4 <= Bell.  The witness is each space's
    # L2-best approximation of the exact solution on the study's own meshes.
    # No study error may beat its own space's best, and the Bell study error
    # lies below the best that any P4 function reaches, so Bell < P4 at
    # every N follows from the approximation gap, not from the solver.
    spec = StudySpec(problem="poisson", element="lagrange:4")
    u, _ = poisson_problem()
    for fam in ("lagrange:4", "bell"):
        assert [r.n for r in poisson_studies[fam]] == list(spec.levels)
    p4 = [r.error for r in poisson_studies["lagrange:4"]]
    bell = [r.error for r in poisson_studies["bell"]]
    best = {"lagrange:4": [], "bell": []}
    for n in spec.levels:
        msh = build_unit_square_mesh(n, spec.perturb)
        for fam, errs in best.items():
            el = ELEMENTS[fam]
            coef = l2_projection(msh, el, u, scale=spec.scaling)
            errs.append(l2_error(msh, el, coef, u, scale=spec.scaling))
    p4_best, bell_best = best["lagrange:4"], best["bell"]
    ok = all(pb <= p and bb <= b and b < pb
             for p, b, pb, bb in zip(p4, bell, p4_best, bell_best))
    _report("5 (P4 vs Bell)", ok,
            "Bell errors " + "/".join(f"{e:.2e}" for e in bell)
            + " (L2-best " + "/".join(f"{e:.2e}" for e in bell_best)
            + ") < P4 L2-best " + "/".join(f"{e:.2e}" for e in p4_best)
            + " <= P4 errors " + "/".join(f"{e:.2e}" for e in p4))
    assert ok, ("expected P4 L2-best <= P4 error, Bell L2-best <= Bell "
                "error and Bell error < P4 L2-best at each N; got P4 "
                f"{p4}, P4 L2-best {p4_best}, Bell {bell}, "
                f"Bell L2-best {bell_best}")


BIHARMONIC_CHECKS = {
    "morley": lambda r: abs(r - 2.0) <= 0.3,
    "argyris": lambda r: r >= 5.0,
    "bell": lambda r: r >= 4.0,
    "lagrange:2": lambda r: abs(r - 2.0) <= 0.3,
}


def test_criterion_6_biharmonic_rates(biharmonic_studies):
    observed = {f: rows[-1].rate for f, rows in biharmonic_studies.items()
                if f != "__elapsed__"}
    failures = [f"{fam}: rate {observed[fam]:.2f}"
                for fam, check in BIHARMONIC_CHECKS.items()
                if not check(observed[fam])]
    elapsed = biharmonic_studies["__elapsed__"]
    if elapsed >= 900.0:
        failures.append(f"runtime {elapsed:.0f}s exceeds the 15 minute target")
    detail = ", ".join(f"{f}={observed[f]:.2f}" for f in BIHARMONIC_CHECKS)
    _report(6, not failures,
            f"finest-rung biharmonic L2 rates: {detail} ({elapsed:.0f}s)")
    assert not failures, failures


def test_study_rungs_report_their_solver(poisson_studies, biharmonic_studies):
    # the study operators are SPD: every rung past the dense cutover passes
    # the symmetric sparse LU's pivot check and never needs the fallback
    for studies in (poisson_studies, biharmonic_studies):
        for fam, rows in studies.items():
            if fam == "__elapsed__":
                continue
            want = ["lu" if r.dofs <= DENSE_CUTOVER else "sparse_lu_sym"
                    for r in rows]
            assert [r.method for r in rows] == want, fam
    assert any(r.method == "sparse_lu_sym" for r in biharmonic_studies["bell"])


def test_criterion_7_conditioning_orderings():
    herm = run_stats_report("poisson", "hermite", 8)["condition"]
    lag3 = run_stats_report("poisson", "lagrange:3", 8)["condition"]
    morley = run_stats_report("biharmonic", "morley", 8)["condition"]
    ip2 = run_stats_report("biharmonic", "lagrange:2", 8)["condition"]
    ok = herm > lag3 and morley < ip2
    _report(7, ok, f"Poisson kappa: hermite {herm:.2e} > P3 {lag3:.2e}; "
                   f"biharmonic kappa: morley {morley:.2e} < IP-P2 {ip2:.2e}")
    assert herm > lag3
    assert morley < ip2


def test_criterion_8_dof_counts():
    m = build_unit_square_mesh(8)
    counts = {
        "morley": assembly.build_dof_map(m, ELEMENTS["morley"]).total_dofs,
        "argyris": assembly.build_dof_map(m, ELEMENTS["argyris"]).total_dofs,
        "lagrange:3": assembly.build_dof_map(m, ELEMENTS["lagrange:3"]).total_dofs,
    }
    expected = {"morley": 289, "argyris": 694, "lagrange:3": 625}
    ok = counts == expected
    _report(8, ok, f"N=8 DoF counts {counts}")
    assert counts == expected


def test_criterion_9_excluded_items_substituted():
    # FLOP counts, wall-clock timings, the phase-field evolution and the
    # eigenmode figures are out of scope at desk scale; the transformation
    # property suites (criteria 1-4) and the convergence/conditioning
    # studies (criteria 5-7) stand in for them.
    _report(9, True, "excluded reproductions substituted by property suites")
