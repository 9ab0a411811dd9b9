"""The benchmark's own tests: every output check must reject a wrong value.

    python -m pytest studybench -q

Needs neither trifem nor a run: each check gets hand-made inputs, once
right and once deliberately wrong.
"""

import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp

import checks
from child import Tracer, congruence_flops
from workloads import WORKLOADS, expected_dofs, local_dofs

POISSON = WORKLOADS["poisson-cg"][0]
# errors and rates of the poisson-cg ladder as trifem reports them
ERRORS = [1.152879047726832e-06, 7.266573713037382e-08, 4.5809151153041764e-09]
RATES = [None, 3.9878220784890734, 3.987567539436802]


def test_closed_form_dofs_match_known_counts():
    assert expected_dofs("lagrange:3", 64) == 37249
    assert expected_dofs("lagrange:3", 32) == 9409
    assert expected_dofs("argyris", 32) == 9670
    assert expected_dofs("bell", 32) == 6534
    assert [local_dofs(e) for e in ("lagrange:3", "argyris", "bell")] == [10, 21, 18]


def test_dof_check_rejects_off_by_one():
    levels = POISSON.levels
    right = [expected_dofs("lagrange:3", n) for n in levels]
    assert checks.dof_failures("lagrange:3", levels, right) == []
    wrong = right[:2] + [right[2] + 1]
    assert [i for i, _ in checks.dof_failures("lagrange:3", levels, wrong)] == [2]


def test_convergence_check_accepts_the_real_ladder():
    assert checks.convergence_failures(POISSON, ERRORS, RATES) == []


def test_convergence_check_rejects_a_rate_off_by_one():
    # finest rate 5 instead of 4 for P3 Poisson
    errors = ERRORS[:2] + [ERRORS[1] / 2 ** 5]
    bad = checks.convergence_failures(POISSON, errors)
    assert [i for i, _ in bad] == [2]
    # a reported rate off by one is caught even when the errors are right
    bad = checks.convergence_failures(POISSON, ERRORS, [None, RATES[1] + 1, RATES[2]])
    assert [i for i, _ in bad] == [1]


def test_convergence_check_uses_the_level_ratio():
    # an 8, 32 ladder with fourth-order errors: the rate is 4, not 8
    ladder = POISSON.__class__("poisson", "lagrange:3", (8, 32), "cg", (3.7, 4.3))
    errors = [1e-4, 1e-4 / 4 ** 4]
    assert checks.convergence_failures(ladder, errors, [None, 4.0]) == []
    assert [i for i, _ in checks.convergence_failures(ladder, errors, [None, 8.0])] == [1]


def test_convergence_check_rejects_rising_or_invalid_errors():
    rising = [ERRORS[0], ERRORS[1], ERRORS[1] * 1.01]
    assert 2 in [i for i, _ in checks.convergence_failures(POISSON, rising)]
    assert [i for i, _ in checks.convergence_failures(
        POISSON, [ERRORS[0], float("nan"), ERRORS[2]])] == [1]


def test_cg_check_rejects_a_silent_fallback():
    assert checks.cg_failures((16, 32, 64), [166, 321, 615]) == []
    assert [i for i, _ in checks.cg_failures((16, 32, 64), [166, 0, 615])] == [1]


def _rows():
    return [{"n": n, "dofs": expected_dofs("lagrange:3", n), "error": e, "rate": r}
            for n, e, r in zip(POISSON.levels, ERRORS, RATES)]


def _csv(rows):
    lines = ["N,dofs,error,rate"]
    lines += [f"{r['n']},{r['dofs']},{r['error']:.12e},"
              + ("" if r["rate"] is None else f"{r['rate']:.6f}") for r in rows]
    return "\r\n".join(lines) + "\r\n"


def test_csv_check_accepts_matching_rows():
    assert checks.csv_failures(_csv(_rows()), _rows()) == []


def test_csv_check_rejects_mismatches():
    rows = _rows()
    off = [dict(r) for r in rows]
    off[1]["dofs"] += 1
    assert [i for i, _ in checks.csv_failures(_csv(off), rows)] == [1]
    off = [dict(r) for r in rows]
    off[2]["error"] *= 1.001
    assert [i for i, _ in checks.csv_failures(_csv(off), rows)] == [2]
    assert [i for i, _ in checks.csv_failures(_csv(rows[:2]), rows)] == [2]
    assert len(checks.csv_failures("n,dofs,error,rate\r\n", rows)) == 3


def _spd_system(n=30, seed=0):
    rng = np.random.default_rng(seed)
    B = sp.random(n, n, density=0.2, random_state=seed, format="csr")
    A = (B @ B.T + sp.identity(n)).tocsr()
    A.sort_indices()
    x = rng.standard_normal(n)
    return A, x, A @ x


def test_linear_system_check_accepts_a_solved_symmetric_system():
    A, x, b = _spd_system()
    res, asym = checks.linear_system_checks(A.indptr, A.indices, A.data, x, b)
    assert checks.linear_system_failures(0, 30, "lu", res, asym) == []


def test_linear_system_check_rejects_residual_and_asymmetry():
    A, x, b = _spd_system()
    res, asym = checks.linear_system_checks(A.indptr, A.indices, A.data,
                                            x + 1e-6, b)
    assert len(checks.linear_system_failures(0, 30, "lu", res, asym)) == 1
    data = A.data.copy()
    data[1] += 1e-6  # one off-diagonal entry loses its mirror
    res, asym = checks.linear_system_checks(A.indptr, A.indices, data, x, b)
    assert asym > checks.ASYMMETRY_LIMIT


def test_matvec_check_rejects_a_wrong_product():
    A, x, b = _spd_system()
    assert checks.matvec_failures(0, 30, A.indptr, A.indices, A.data, x, b) == []
    b[3] += 1e-6
    assert len(checks.matvec_failures(0, 30, A.indptr, A.indices, A.data, x, b)) == 1


def test_congruence_flops():
    # M = I (10 x 10): dense 2*10*10*20, sparse 2*10*20
    assert congruence_flops(10, 10, 10) == (4000, 400)
    n, m, nnz = 18, 21, 78
    M = np.zeros((n, m))
    M.flat[:nnz] = 1.0
    A = np.ones((m, m))
    # sparse count: 2 flops per product term of (M A) and of (M A) M^T
    terms = np.count_nonzero(M) * m + n * np.count_nonzero(M)
    assert congruence_flops(n, m, nnz)[1] == 2 * terms
    assert np.allclose(M @ A @ M.T, (M @ A) @ M.T)


def test_tracer_links_parents():
    tr = Tracer()
    with tr.span("ladder", "x"):
        with tr.span("rung", "x/N=8"):
            with tr.span("mesh.build", "x/N=8"):
                pass
    assert [s["parent"] for s in tr.spans] == [None, 0, 1]
    assert all(s["start"] <= s["end"] for s in tr.spans)


def test_tracer_folds_wrapped_calls_per_enclosing_span():
    tr = Tracer()
    square = tr.wrap("sq", lambda x: x * x, keep_in="pass")
    with tr.span("pass", "r") as first:
        assert [square(x) for x in (1, 2, 3)] == [1, 4, 9]
    with tr.span("other", "r") as second:
        square(5)
    folded = [s for s in tr.spans if s["name"] == "sq"]
    assert [(s["parent"], s["calls"], s["rung"]) for s in folded] == [
        (first["id"], 3, "r"), (second["id"], 1, "r")]
    assert 0 <= folded[0]["busy_s"] <= folded[0]["end"] - folded[0]["start"]
    assert tr.returned(first, "sq") == [1, 4, 9]
    assert tr.returned(second, "sq") == []  # kept only under "pass"


def test_refuses_to_run_without_sources(tmp_path):
    here = Path(__file__).resolve().parent
    shutil.copytree(here, tmp_path / here.name,
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, f"{here.name}/run.py", "--workload", "plate-ip",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


if __name__ == "__main__":
    sys.exit(pytest.main([__file__, "-q"]))
