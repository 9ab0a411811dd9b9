"""Output checks computed apart from trifem.

Each check returns a list of (rung index, message) pairs, one per rung
that fails it; an empty list means the outputs passed.  The facts the
checks compare against come from workloads.py (closed-form DoF counts,
theoretical rate bands) or are recomputed here with scipy, never taken
from trifem itself.
"""

import csv
import io
import math

from workloads import expected_dofs

CSV_HEADER = ["N", "dofs", "error", "rate"]


def rate(levels, errors, i):
    """Observed convergence rate between rungs i-1 and i."""
    return (math.log(errors[i - 1] / errors[i])
            / math.log(levels[i] / levels[i - 1]))


def dof_failures(element, levels, dofs):
    return [(i, f"N={n}: {d} DoFs, the closed form gives "
                f"{expected_dofs(element, n)}")
            for i, (n, d) in enumerate(zip(levels, dofs))
            if d != expected_dofs(element, n)]


def convergence_failures(ladder, errors, reported_rates=None):
    """Errors fall at every rung, the finest-rung rate lies in the
    ladder's band and, if given, the reported rates match the observed
    ones (rate = log(e_prev/e) / log(N/N_prev))."""
    levels = ladder.levels
    out = [(i, f"N={levels[i]}: error {e!r} is not a positive number")
           for i, e in enumerate(errors) if not (math.isfinite(e) and e > 0)]
    if out:
        return out
    for i in range(1, len(errors)):
        if not errors[i] < errors[i - 1]:
            out.append((i, f"N={levels[i]}: error {errors[i]:.3e} did not "
                           f"fall below {errors[i - 1]:.3e}"))
    last = len(errors) - 1
    lo, hi = ladder.rate_band
    r = rate(levels, errors, last)
    if not lo <= r <= hi:
        out.append((last, f"N={levels[last]}: rate {r:.3f} outside "
                          f"[{lo}, {hi}]"))
    if reported_rates is not None:
        if reported_rates[0] is not None:
            out.append((0, "the coarsest rung reports a rate"))
        for i in range(1, len(errors)):
            got, want = reported_rates[i], rate(levels, errors, i)
            if got is None or abs(got - want) > 1e-9 * max(1.0, abs(want)):
                out.append((i, f"N={levels[i]}: reported rate {got} but "
                               f"errors give {want:.6f}"))
    return out


def cg_failures(levels, iterations):
    """A CG ladder must have run CG: zero iterations means a silent
    fall-back to a direct solve."""
    return [(i, f"N={n}: 0 CG iterations (fell back to a direct solve)")
            for i, (n, it) in enumerate(zip(levels, iterations)) if it <= 0]


def csv_failures(text, rows):
    """The study CSV holds exactly the returned rows, to its precision."""
    lines = list(csv.reader(io.StringIO(text)))
    if not lines or lines[0] != CSV_HEADER:
        return [(i, "CSV header is not N,dofs,error,rate")
                for i in range(len(rows))]
    body = lines[1:]
    out = [(i, "CSV has no line for this rung")
           for i in range(len(body), len(rows))]
    if len(body) > len(rows):
        out.append((len(rows) - 1, f"CSV has {len(body)} lines for "
                                   f"{len(rows)} rungs"))
    for i, (line, row) in enumerate(zip(body, rows)):
        n, dofs, err, r = line
        ok = (int(n) == row["n"] and int(dofs) == row["dofs"]
              and abs(float(err) - row["error"]) <= 1e-11 * abs(row["error"])
              and (r == "") == (row["rate"] is None)
              and (r == "" or abs(float(r) - row["rate"]) <= 1e-6))
        if not ok:
            out.append((i, f"CSV line {line} does not match row {row}"))
    return out


def _csr(indptr, indices, data):
    import scipy.sparse as sp
    n = len(indptr) - 1
    return sp.csr_array((data, indices, indptr), shape=(n, n))


def matvec_failures(i, n, indptr, indices, data, x, y):
    """y = A x, checked against scipy.sparse on A's CSR arrays."""
    import numpy as np
    ref = _csr(indptr, indices, data) @ x
    if np.abs(y - ref).max() <= 1e-12 * np.abs(ref).max():
        return []
    return [(i, f"N={n}: matvec differs from scipy.sparse")]


def linear_system_checks(indptr, indices, data, x, b):
    """True relative residual ||Ax - b|| / ||b|| and relative asymmetry
    max|A - A^T| / max|A|, recomputed with scipy.sparse from A's CSR
    arrays."""
    import numpy as np
    A = _csr(indptr, indices, data)
    residual = float(np.linalg.norm(A @ x - b) / np.linalg.norm(b))
    asym = abs(A - A.T).max() / abs(A).max()
    return residual, float(asym)


# Acceptance thresholds for linear_system_checks.  CG stops at a relative
# (recursive) residual of 1e-11; direct solves carry one refinement step.
RESIDUAL_LIMIT = {"cg": 1e-9, "lu": 1e-7}
ASYMMETRY_LIMIT = 1e-12


def linear_system_failures(i, n, solver_kind, residual, asym):
    out = []
    if not residual <= RESIDUAL_LIMIT[solver_kind]:
        out.append((i, f"N={n}: true residual {residual:.2e} above "
                       f"{RESIDUAL_LIMIT[solver_kind]:.0e}"))
    if not asym <= ASYMMETRY_LIMIT:
        out.append((i, f"N={n}: max|A - A^T| / max|A| = {asym:.2e}"))
    return out
