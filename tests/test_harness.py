"""Convergence-study harness, CSV output, stats report and the CLI."""

import numpy as np
import pytest
import scipy.sparse

from trifem import cli, harness
from trifem.harness import (ConvergenceRow, SolverFailure, StudySpec,
                            biharmonic_problem, biharmonic_source,
                            parse_element, run_convergence_study,
                            run_stats_report, write_study_csv)
from trifem.mesh import build_unit_square_mesh


def test_parse_element():
    assert parse_element("lagrange:3").degree == 3
    assert parse_element("HERMITE").family == "hermite"
    with pytest.raises(ValueError):
        parse_element("lagrange")
    with pytest.raises(ValueError):
        parse_element("serendipity")


@pytest.mark.parametrize("make", [
    lambda: build_unit_square_mesh(8.0),
    lambda: run_stats_report("poisson", "lagrange:1", n=4.0),
    lambda: StudySpec(problem="poisson", element="hermite", levels=(8, 16.0)),
    lambda: build_unit_square_mesh(True),
    lambda: run_stats_report("poisson", "lagrange:1", n=True),
    lambda: StudySpec(problem="poisson", element="hermite", levels=(True, 2)),
], ids=["mesh", "stats", "study", "mesh-bool", "stats-bool", "study-bool"])
def test_non_integer_mesh_size_is_a_value_error(make):
    # these raised TypeError, which the CLI does not report as a bad
    # argument; a bool is an Integral, but True is not the mesh size 1
    with pytest.raises(ValueError, match="integer"):
        make()


def test_study_spec_validation():
    with pytest.raises(ValueError):
        StudySpec(problem="poisson", element="hermite", levels=(8, 8))
    with pytest.raises(ValueError):
        StudySpec(problem="poisson", element="hermite", levels=(8, 24))
    with pytest.raises(ValueError):
        StudySpec(problem="poisson", element="hermite", solver="gmres")
    StudySpec(problem="poisson", element="hermite", levels=(4, 8, 16))


@pytest.mark.parametrize("levels", [(), (0, 2), (-2, 4)])
def test_study_spec_rejects_empty_or_nonpositive_levels(levels):
    with pytest.raises(ValueError, match="levels"):
        StudySpec(problem="poisson", element="hermite", levels=levels)


def test_study_spec_keeps_the_ladder_it_validated(tmp_path):
    # a list, mutated after the spec is made, and a generator, which
    # validation consumes, both give the ladder as a tuple of int
    levels = [np.int64(2), 4]
    spec = StudySpec(problem="poisson", element="lagrange:1", levels=levels)
    levels.append(3)
    assert spec.levels == (2, 4)
    assert [type(n) for n in spec.levels] == [int, int]
    assert hash(spec) == hash(StudySpec(problem="poisson", element="lagrange:1",
                                        levels=(2, 4)))
    assert [r.n for r in run_convergence_study(spec)] == [2, 4]
    out = tmp_path / "g.csv"
    spec = StudySpec(problem="poisson", element="lagrange:1",
                     levels=(n for n in (2, 4)), out=str(out))
    assert [r.n for r in run_convergence_study(spec)] == [2, 4]
    assert len(out.read_text().splitlines()) == 3


def test_cli_study_rejects_zero_level(tmp_path, capsys):
    out = tmp_path / "zero.csv"
    code = cli.main(["study", "--problem", "poisson", "--element", "lagrange:1",
                     "--levels", "0,2", "--out", str(out)])
    assert code == 1
    assert "error:" in capsys.readouterr().err
    assert not out.exists()


def test_biharmonic_source_against_finite_differences():
    # independent oracle: lap(lap u) by a 5-point stencil applied twice
    u, f = biharmonic_problem()
    h = 1e-3
    rng = np.random.default_rng(6)
    pts = rng.uniform(0.2, 0.8, (10, 2))

    def lap(g, x, y):
        return (g(x + h, y) + g(x - h, y) + g(x, y + h) + g(x, y - h)
                - 4.0 * g(x, y)) / h ** 2

    for x, y in pts:
        fd = lap(lambda a, b: lap(u.f, a, b), x, y)
        exact = biharmonic_source(x, y)
        assert abs(fd - exact) < 1e-4 * max(1.0, abs(exact))


def test_poisson_p1_study_rate(tmp_path):
    out = tmp_path / "p1.csv"
    spec = StudySpec(problem="poisson", element="lagrange:1",
                     levels=(8, 16, 32), out=str(out))
    rows = run_convergence_study(spec)
    assert [r.n for r in rows] == [8, 16, 32]
    assert rows[0].rate is None
    assert abs(rows[-1].rate - 2.0) <= 0.2
    header = out.read_text().split("\n")[0]
    assert header == "N,dofs,error,rate"


def test_rate_is_per_halving_on_non_doubling_ladders():
    # 4 -> 16 spans two halvings of h: the rate is their mean, near P1's 2,
    # not log2 of the whole error ratio
    skip = run_convergence_study(StudySpec(problem="poisson", element="lagrange:1",
                                           levels=(4, 16)))
    step = run_convergence_study(StudySpec(problem="poisson", element="lagrange:1",
                                           levels=(4, 8, 16)))
    assert skip[1].error == step[2].error
    assert abs(skip[1].rate - 0.5 * (step[1].rate + step[2].rate)) < 1e-12
    assert abs(skip[1].rate - 2.0) <= 0.3


# Errors of the N=8 rung (perturbation 0.2, scaling on) as the per-cell
# assembly loops computed them, before the passes were batched over cells,
# printed with 17 significant digits.  On the biharmonic rungs a random
# one-ulp perturbation of A or b already moves the error by up to about
# 5e-10 relative, so these pins hold only while the assembly, load and
# error passes keep their floating-point operations, one for one.
PINNED_N8_ERRORS = {
    ("poisson", "lagrange:3"): 1.8679413280718128e-05,
    ("poisson", "hermite"): 6.122873286218006e-05,
    ("poisson", "bell"): 4.030918413401861e-07,
    ("poisson", "argyris"): 9.675216211993858e-08,
    ("biharmonic", "morley"): 0.0004124120103737379,
    ("biharmonic", "argyris"): 1.4009154419593382e-08,
    ("biharmonic", "bell"): 5.6400518480651144e-08,
    ("biharmonic", "lagrange:3"): 9.703219089353569e-06,
}


@pytest.mark.parametrize("problem,element", PINNED_N8_ERRORS)
def test_study_errors_pinned_n8(problem, element):
    rows = run_convergence_study(StudySpec(problem=problem, element=element,
                                           levels=(8,)))
    pinned = PINNED_N8_ERRORS[(problem, element)]
    assert abs(rows[0].error - pinned) <= 1e-10 * pinned


def test_study_csv_reproducible(tmp_path):
    spec1 = StudySpec(problem="poisson", element="lagrange:2", levels=(4, 8),
                      out=str(tmp_path / "a.csv"))
    spec2 = StudySpec(problem="poisson", element="lagrange:2", levels=(4, 8),
                      out=str(tmp_path / "b.csv"))
    run_convergence_study(spec1)
    run_convergence_study(spec2)
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()


def test_study_rejects_bad_combinations():
    with pytest.raises(ValueError):
        run_convergence_study(StudySpec(problem="poisson", element="morley"))
    with pytest.raises(ValueError):
        run_convergence_study(StudySpec(problem="biharmonic", element="hermite"))
    with pytest.raises(ValueError):
        run_convergence_study(StudySpec(problem="biharmonic", element="lagrange:1"))


def test_study_form_picks_every_production_form():
    morley = parse_element("morley")
    assert harness.study_form("poisson", morley).kind == "poisson_nitsche"
    assert harness.study_form("biharmonic", morley).nu == 0.5
    # P1 cannot carry the interior-penalty form, as Hermite cannot carry
    # the plate form: study_form raises what every pass would
    for name, message in (("lagrange:1", "Lagrange k >= 2"),
                          ("hermite", "plate needs an H2-type element")):
        with pytest.raises(ValueError, match=message):
            harness.study_form("biharmonic", parse_element(name))


def test_morley_poisson_study_fails_before_its_form_and_mesh(monkeypatch):
    # the exclusion is the study's own policy: no form is chosen and no
    # mesh is built for it
    def called(*args, **kw):
        raise AssertionError("a form was chosen or a mesh built")

    for name in ("study_form", "build_unit_square_mesh"):
        monkeypatch.setattr(harness, name, called)
    with pytest.raises(ValueError, match="excluded from Poisson studies"):
        run_convergence_study(StudySpec(problem="poisson", element="morley"))


def test_cg_solver_study_matches_lu(tmp_path):
    a = run_convergence_study(StudySpec(problem="poisson", element="lagrange:2",
                                        levels=(4, 8), solver="lu"))
    b = run_convergence_study(StudySpec(problem="poisson", element="lagrange:2",
                                        levels=(4, 8), solver="cg"))
    for ra, rb in zip(a, b):
        assert abs(ra.error - rb.error) < 1e-6 * ra.error
        assert rb.iterations > 0


def test_two_level_cg_study_matches_lu():
    # P3 Poisson is the poisson-cg benchmark ladder: CG with the P1 coarse
    # space needs as many iterations at N=64 as at N=16 (within 20%), and
    # its study errors stay within 2e-9 of the direct solve's
    spec = StudySpec(problem="poisson", element="lagrange:3", levels=(16, 32, 64))
    lu = run_convergence_study(spec)
    cg = run_convergence_study(StudySpec(**{**vars(spec), "solver": "cg"}))
    for a, c in zip(lu, cg):
        assert abs(c.error - a.error) <= 2e-9 * a.error
        assert (c.method, c.preconditioner) == ("cg", "two_level")
    assert abs(cg[-1].iterations - cg[0].iterations) <= 0.2 * cg[0].iterations


@pytest.mark.parametrize("element", ["hermite", "lagrange:1"])
def test_cg_study_without_coarse_space_reports_jacobi(element):
    rows = run_convergence_study(StudySpec(problem="poisson", element=element,
                                           levels=(4, 8), solver="cg"))
    assert [(r.method, r.preconditioner) for r in rows] == [("cg", "jacobi")] * 2


def test_solver_failure_writes_partial_csv(tmp_path, monkeypatch):
    out = tmp_path / "partial.csv"
    calls = []

    def failing_solve(A, b, choice):
        calls.append(1)
        if len(calls) > 1:
            raise np.linalg.LinAlgError("synthetic breakdown")
        return harness.solver.solve(A, b)

    monkeypatch.setattr(harness, "_study_solve", failing_solve)
    spec = StudySpec(problem="poisson", element="lagrange:1", levels=(4, 8),
                     out=str(out))
    with pytest.raises(SolverFailure):
        run_convergence_study(spec)
    lines = out.read_text().strip().split("\n")
    assert len(lines) == 2  # header plus the one rung that solved


def test_non_solver_error_propagates(tmp_path, monkeypatch):
    # only solver failures (ValueError, RuntimeError) become SolverFailure;
    # a fault of the program surfaces as itself
    def broken_solve(A, b, choice):
        raise TypeError("synthetic fault")

    monkeypatch.setattr(harness, "_study_solve", broken_solve)
    spec = StudySpec(problem="poisson", element="lagrange:1", levels=(4,),
                     out=str(tmp_path / "s.csv"))
    with pytest.raises(TypeError, match="synthetic fault"):
        run_convergence_study(spec)


@pytest.mark.parametrize("command", ["study", "stats"])
@pytest.mark.parametrize("where", ["missing", "file", "read-only", "directory",
                                   "empty"])
def test_cli_bad_out_fails_before_any_mesh(tmp_path, monkeypatch, capsys,
                                           command, where):
    # an output directory that is missing, a file or not writable, or an
    # output that is itself a directory or an empty path, exits 1 before
    # the first mesh is built, so no rung's work is lost
    import os
    folder = tmp_path / where
    out = "" if where == "empty" else folder / "x.csv"
    if where == "file":
        folder.write_text("")
    elif where == "read-only":
        if os.geteuid() == 0:
            pytest.skip("root writes into read-only directories")
        folder.mkdir(mode=0o500)
    elif where == "directory":
        out.mkdir(parents=True)

    def no_mesh(*args, **kw):
        raise AssertionError("a mesh was built")

    monkeypatch.setattr(harness, "build_unit_square_mesh", no_mesh)
    sizes = ["--levels", "4,8"] if command == "study" else ["--n", "4"]
    code = cli.main([command, "--problem", "poisson", "--element", "lagrange:1",
                     *sizes, "--out", str(out)])
    assert code == 1
    assert f"cannot write {out}" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["study", "stats"])
def test_cli_out_in_the_working_directory(tmp_path, monkeypatch, command):
    # a bare file name has no directory part: it is written where it runs
    monkeypatch.chdir(tmp_path)
    sizes = ["--levels", "2,4"] if command == "study" else ["--n", "2"]
    code = cli.main([command, "--problem", "poisson", "--element", "lagrange:1",
                     *sizes, "--out", "x.csv"])
    assert code == 0
    rows = (tmp_path / "x.csv").read_text().splitlines()
    assert len(rows) == (3 if command == "study" else 2)  # header and rows


@pytest.mark.parametrize("element, solver", [("lagrange:3", "cg"),
                                             ("argyris", "lu")])
def test_rung_is_freed_before_the_next_mesh(monkeypatch, element, solver):
    # weak references to what each rung makes: the mesh (which holds the
    # cell data), the operator, the load and the solve report must all be
    # dead when the next rung builds its mesh
    import weakref
    refs = []

    def recorded(fn):
        def call(*args, **kw):
            out = fn(*args, **kw)
            refs.append(weakref.ref(out))
            return out
        return call

    build = recorded(harness.build_unit_square_mesh)

    def build_after_free(*args, **kw):
        assert sum(r() is not None for r in refs) == 0
        return build(*args, **kw)

    monkeypatch.setattr(harness, "build_unit_square_mesh", build_after_free)
    for name in ("assemble_operator", "assemble_load"):
        monkeypatch.setattr(harness.assembly, name,
                            recorded(getattr(harness.assembly, name)))
    monkeypatch.setattr(harness, "_study_solve", recorded(harness._study_solve))
    problem = "poisson" if solver == "cg" else "biharmonic"
    rows = run_convergence_study(StudySpec(problem=problem, element=element,
                                           levels=(2, 4, 8), solver=solver))
    assert len(rows) == 3 and len(refs) == 12


def test_stats_report_values(tmp_path):
    row = run_stats_report("poisson", "morley", 8, str(tmp_path / "s.csv"))
    assert row["dofs"] == 289
    assert (tmp_path / "s.csv").read_text().startswith(
        "element,dofs,nnz_per_row,condition")
    row = run_stats_report("biharmonic", "argyris", 8)
    assert row["dofs"] == 694
    row = run_stats_report("poisson", "lagrange:1", 1)
    assert row["dofs"] == 4
    assert row["nnz_per_row"] <= 4.0
    # past the dense cutover, within the size limit
    row = run_stats_report("poisson", "morley", 32)
    assert row["dofs"] == 4225
    with pytest.raises(ValueError, match="N <= 32"):
        run_stats_report("poisson", "hermite", 64)


def test_stats_report_takes_its_form_from_study_form(monkeypatch):
    calls = []
    study_form = harness.study_form

    def spy(*args):
        calls.append(args)
        return study_form(*args)

    monkeypatch.setattr(harness, "study_form", spy)
    run_stats_report("poisson", "morley", 2)
    assert [(p, el.family) for p, el in calls] == [("poisson", "morley")]


@pytest.mark.parametrize("problem, element", [("poisson", "morley"),
                                              ("biharmonic", "lagrange:3")])
def test_stats_row_is_read_off_the_operator(monkeypatch, problem, element):
    # the row's DoF count and mean nonzeros per row are the operator's
    # shape and nnz, exactly
    operators = []
    assemble = harness.assembly.assemble_operator

    def spy(*args, **kw):
        operators.append(assemble(*args, **kw))
        return operators[-1]

    monkeypatch.setattr(harness.assembly, "assemble_operator", spy)
    row = run_stats_report(problem, element, 4)
    [A] = operators
    assert row["dofs"] == A.shape[0]
    assert row["nnz_per_row"] == A.nnz / A.shape[0]


def test_write_csv_format(tmp_path):
    rows = [ConvergenceRow(n=8, dofs=100, error=1.25e-3),
            ConvergenceRow(n=16, dofs=400, error=3.125e-4, rate=2.0)]
    path = tmp_path / "rows.csv"
    write_study_csv(rows, path)
    lines = path.read_text().strip().split("\n")
    assert lines[0] == "N,dofs,error,rate"
    assert lines[1].endswith(",")  # no rate on the first rung
    assert lines[2].split(",")[3] == "2.000000"


def test_cli_study_and_exit_codes(tmp_path, capsys):
    out = tmp_path / "cli.csv"
    code = cli.main(["study", "--problem", "poisson", "--element", "lagrange:1",
                     "--levels", "4,8", "--out", str(out)])
    assert code == 0
    assert out.exists()
    assert "rate" in capsys.readouterr().out

    code = cli.main(["study", "--problem", "poisson", "--element", "morley",
                     "--levels", "4,8", "--out", str(tmp_path / "x.csv")])
    assert code == 1

    code = cli.main(["stats", "--problem", "poisson", "--element", "nonsense",
                     "--out", str(tmp_path / "y.csv")])
    assert code == 1

    # usage errors that argparse rejects: an invalid choice, a non-integer
    # cell index and no subcommand; --help is not an error
    for argv in (["study", "--problem", "foo", "--element", "lagrange:1",
                  "--out", str(tmp_path / "z.csv")],
                 ["dump-m", "--element", "hermite", "--cell", "3.5",
                  "--out", str(tmp_path / "m.csv")],
                 []):
        assert cli.main(argv) == 1
        assert "usage: trifem" in capsys.readouterr().err
    assert cli.main(["study", "--help"]) == 0
    assert "usage: trifem study" in capsys.readouterr().out


def test_cli_study_csv_independent_of_blas_threads(tmp_path):
    # the dense LU of Bell N=8 (486 DoFs) changes in its last bits with the
    # OpenBLAS pool width, unless import trifem pins both pools to one thread
    import os
    import pathlib
    import subprocess
    import sys

    import trifem
    src = str(pathlib.Path(trifem.__file__).resolve().parents[1])
    csvs = []
    for threads in ("1", "2"):
        out = tmp_path / f"bell-{threads}.csv"
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join(
                       filter(None, [src, os.environ.get("PYTHONPATH")])))
        subprocess.run([sys.executable, "-m", "trifem", "study",
                        "--problem", "biharmonic", "--element", "bell",
                        "--levels", "4,8", "--out", str(out)],
                       env=env, check=True, capture_output=True)
        csvs.append(out.read_bytes())
    assert csvs[0] == csvs[1]


def test_cli_solver_failure_exit_code(tmp_path, monkeypatch):
    def boom(spec):
        raise SolverFailure("synthetic")
    monkeypatch.setattr(harness, "run_convergence_study", boom)
    code = cli.main(["study", "--problem", "poisson", "--element", "lagrange:1",
                     "--levels", "4,8", "--out", str(tmp_path / "z.csv")])
    assert code == 2


def test_cli_dump_m(tmp_path):
    out = tmp_path / "m.csv"
    code = cli.main(["dump-m", "--element", "argyris", "--cell", "5",
                     "--n", "4", "--out", str(out)])
    assert code == 0
    data = [line.split(",") for line in out.read_text().strip().split("\n")]
    assert len(data) == 21 and len(data[0]) == 21

    code = cli.main(["dump-m", "--element", "argyris", "--cell", "999",
                     "--n", "2", "--out", str(tmp_path / "no.csv")])
    assert code == 1


def test_no_scaling_flag(tmp_path):
    out = tmp_path / "m.csv"
    cli.main(["dump-m", "--element", "hermite", "--cell", "0", "--n", "2",
              "--perturb", "0.0", "--no-scaling", "--out", str(out)])
    data = np.array([[float(c) for c in line.split(",")]
                     for line in out.read_text().strip().split("\n")])
    # unscaled Hermite M on a uniform mesh: value rows are unit vectors
    assert abs(data[0, 0] - 1.0) < 1e-15


def test_poisson_l2_rate_floor():
    rows = run_convergence_study(StudySpec(problem="poisson",
                                           element="lagrange:2",
                                           levels=(8, 16)))
    assert rows[-1].rate >= 2.7


def test_study_solver_cg_falls_back_to_direct(monkeypatch):
    from trifem.harness import _study_solve
    import trifem.harness as hmod

    def stub_cg(A, b, rtol=1e-10):
        return hmod.solver.SolveReport(x=np.zeros_like(b), residual=1.0,
                                       converged=False, method="cg")

    monkeypatch.setattr(hmod.solver, "cg_solve", stub_cg)
    A = scipy.sparse.csr_array(([2.0, 3.0], ([0, 1], [0, 1])), shape=(2, 2))
    rep = _study_solve(A, np.array([2.0, 3.0]), "cg")
    assert rep.method == "lu"
    assert np.allclose(rep.x, 1.0)
    rows = run_convergence_study(StudySpec(problem="poisson",
                                           element="lagrange:1",
                                           levels=(4,), solver="cg"))
    assert rows[0].method == "lu"


def test_study_rows_report_the_solve_that_ran():
    # N=8 Bell is under the dense cutover, N=16 (1,734 DoFs) past it
    rows = run_convergence_study(StudySpec(problem="biharmonic", element="bell",
                                           levels=(8, 16)))
    assert [r.method for r in rows] == ["lu", "sparse_lu_sym"]


def test_biharmonic_ip_cubic_smoke():
    # higher-order interior penalty route: no rate bound asserted, but the
    # ladder must run, stay solvable and actually converge
    rows = run_convergence_study(StudySpec(problem="biharmonic",
                                           element="lagrange:3",
                                           levels=(4, 8)))
    assert rows[-1].error < rows[0].error
    assert rows[-1].rate > 1.0
