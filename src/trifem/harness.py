"""Convergence studies and sparsity/conditioning reports with CSV output.

Model problems on the unit square with homogeneous data, boundary
conditions enforced weakly throughout:

* Poisson: -lap u = f with u = sin(pi x) sin(pi y), Nitsche boundary terms.
* Biharmonic: lap^2 u = f with the clamped solution
  u = x^2 (1-x)^2 y^2 (1-y)^2, discretized by the plate form for the H2
  elements (Morley, Argyris, Bell) and by C0 interior penalty for
  Lagrange, both with weakly-enforced clamped boundary terms.

Every pipeline is deterministic, so CSV output is bitwise reproducible.
"""

import csv
import os
from dataclasses import dataclass
from numbers import Integral

import numpy as np

from . import assembly, solver
from .assembly import FormSpec, ScalarField
from .mesh import build_unit_square_mesh
from .refelem import ReferenceElement, build_reference_element


class SolverFailure(RuntimeError):
    """A study rung failed to solve; partial results were written."""


def parse_element(name: str) -> ReferenceElement:
    """Element spec strings: lagrange:k, hermite, morley, argyris, bell."""
    name = name.strip().lower()
    if name.startswith("lagrange"):
        parts = name.split(":")
        if len(parts) != 2:
            raise ValueError("lagrange elements are written lagrange:k")
        return build_reference_element("lagrange", int(parts[1]))
    return build_reference_element(name)


def poisson_problem():
    pi = np.pi
    u = ScalarField(
        f=lambda x, y: np.sin(pi * x) * np.sin(pi * y),
        grad=lambda x, y: np.array([pi * np.cos(pi * x) * np.sin(pi * y),
                                    pi * np.sin(pi * x) * np.cos(pi * y)]),
        hess=lambda x, y: pi ** 2 * np.array(
            [[-np.sin(pi * x) * np.sin(pi * y), np.cos(pi * x) * np.cos(pi * y)],
             [np.cos(pi * x) * np.cos(pi * y), -np.sin(pi * x) * np.sin(pi * y)]]))
    f = ScalarField(f=lambda x, y: 2.0 * pi ** 2 * np.sin(pi * x) * np.sin(pi * y))
    return u, f


def _b(t):
    return t * t * (1.0 - t) * (1.0 - t)


def _bp(t):
    return 2.0 * t - 6.0 * t * t + 4.0 * t ** 3


def _bpp(t):
    return 2.0 - 12.0 * t + 12.0 * t * t


def biharmonic_problem():
    u = ScalarField(
        f=lambda x, y: _b(x) * _b(y),
        grad=lambda x, y: np.array([_bp(x) * _b(y), _b(x) * _bp(y)]),
        hess=lambda x, y: np.array([[_bpp(x) * _b(y), _bp(x) * _bp(y)],
                                    [_bp(x) * _bp(y), _b(x) * _bpp(y)]]))
    f = ScalarField(f=biharmonic_source)
    return u, f


def biharmonic_source(x, y):
    """lap^2 of x^2(1-x)^2 y^2(1-y)^2, expanded by hand:
    u_xxxx = 24 b(y), u_yyyy = 24 b(x), 2 u_xxyy = 2 b''(x) b''(y)."""
    return 24.0 * _b(y) + 2.0 * _bpp(x) * _bpp(y) + 24.0 * _b(x)


def study_form(problem: str, element: ReferenceElement) -> FormSpec:
    """The bilinear form of every study and stats report: Poisson-Nitsche
    for Poisson; for the biharmonic problem, C0 interior penalty on
    Lagrange and the plate form otherwise, checked by
    assembly._check_compatible as every pass checks it.

    Morley gets the Poisson ratio 1/2 variant of the plate form: its cell
    integrand is then the full Hessian inner product, which stays coercive
    on the nonconforming (broken) Morley space; the conforming quintic
    elements are insensitive to the choice.
    """
    if problem == "poisson":
        return FormSpec("poisson_nitsche")
    if problem != "biharmonic":
        raise ValueError(f"unknown problem {problem!r}")
    fam = element.family
    if fam == "lagrange":
        form = FormSpec("plate_ip")
    else:
        form = FormSpec("plate", nu=0.5 if fam == "morley" else 0.0)
    assembly._check_compatible(element, form)
    return form


@dataclass(frozen=True)
class StudySpec:
    """One convergence study: a refinement ladder for one element/problem.
    levels may be any iterable; the spec keeps it as a tuple of int."""

    problem: str
    element: str
    levels: tuple = (8, 16, 32)
    perturb: float = 0.2
    scaling: bool = True
    solver: str = "lu"
    out: str = None

    def __post_init__(self):
        levels = tuple(self.levels)
        if not levels or not all(isinstance(n, Integral)
                                 and not isinstance(n, bool) for n in levels) \
                or min(levels) < 1:
            raise ValueError("levels must be a non-empty list of integer "
                             "mesh sizes >= 1")
        if any(b <= a for a, b in zip(levels, levels[1:])):
            raise ValueError("mesh sizes must be strictly increasing")
        if any(n % levels[0] or (n // levels[0]) & (n // levels[0] - 1)
               for n in levels):
            raise ValueError("levels must be power-of-2 multiples of the coarsest")
        if self.solver not in ("lu", "cg"):
            raise ValueError(f"unknown solver {self.solver!r}")
        object.__setattr__(self, "levels", tuple(map(int, levels)))


@dataclass
class ConvergenceRow:
    n: int
    dofs: int
    error: float
    rate: float = None
    iterations: int = 0
    residual: float = 0.0
    method: str = None  # the solve that ran, as SolveReport.method
    preconditioner: str = None  # as SolveReport.preconditioner


def _check_out(path) -> None:
    """Raise, before any mesh is built, the OSError that writing path would
    raise: path is empty or a directory, or its directory is missing or
    read-only.  None means no CSV is written."""
    if path is None:
        return
    if not path:
        raise OSError("cannot write '': the path is empty")
    folder = os.path.dirname(path) or "."
    if os.path.isdir(path):
        raise IsADirectoryError(f"cannot write {path}: it is a directory")
    if not (os.path.isdir(folder) and os.access(folder, os.W_OK)):
        raise OSError(f"cannot write {path}: no writable directory {folder}")


# the study's solve, resolved by this name at each rung
_study_solve = solver.solve


def run_convergence_study(spec: StudySpec):
    """Run the refinement ladder; returns ConvergenceRows and writes CSV.

    Nothing a rung makes outlives it: its mesh (with the cell data),
    operator, load and solve report are freed before the next mesh is
    built.  A solver failure aborts the ladder but still writes the rows
    obtained so far (partial CSV), then raises SolverFailure; an out path
    that cannot be written fails before the first rung (_check_out).
    """
    _check_out(spec.out)
    element = parse_element(spec.element)
    if spec.problem == "poisson" and element.family == "morley":
        raise ValueError("Morley is not H1-conforming; "
                         "it is excluded from Poisson studies")
    form = study_form(spec.problem, element)
    u, f = poisson_problem() if spec.problem == "poisson" else biharmonic_problem()

    rows = []
    failure = None
    for n in spec.levels:
        msh = build_unit_square_mesh(n, spec.perturb)
        A = assembly.assemble_operator(msh, element, form, scale=spec.scaling)
        b = assembly.assemble_load(msh, element, f, form, scale=spec.scaling)
        try:
            rep = _study_solve(A, b, spec.solver)
        # singular matrix (LinAlgError is a ValueError), a diagonal CG
        # cannot use (ValueError), singular sparse factor (RuntimeError);
        # anything else is a fault of the program and propagates
        except (ValueError, RuntimeError) as exc:
            failure = exc
            break
        err = assembly.l2_error(msh, element, rep.x, u, scale=spec.scaling)
        # order of convergence per halving of h: ladders need not double
        rate = None if not rows else float(np.log2(rows[-1].error / err)
                                           / np.log2(n / rows[-1].n))
        rows.append(ConvergenceRow(n=n, dofs=A.shape[0], error=err, rate=rate,
                                   iterations=rep.iterations,
                                   residual=rep.residual, method=rep.method,
                                   preconditioner=rep.preconditioner))
        del msh, A, b, rep
    if spec.out is not None:
        write_study_csv(rows, spec.out)
    if failure is not None:
        raise SolverFailure(f"solver failed on rung N={n}: {failure}")
    return rows


def write_study_csv(rows, path) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["N", "dofs", "error", "rate"])
        for r in rows:
            w.writerow([r.n, r.dofs, f"{r.error:.12e}",
                        "" if r.rate is None else f"{r.rate:.6f}"])


def run_stats_report(problem: str, element_name: str, n: int = 8,
                     out: str = None) -> dict:
    """DoFs, mean nonzeros per row and condition number of study_form's
    operator on the unperturbed mesh; unlike the study, it takes Morley
    for Poisson too (the operator assembles, nonconforming)."""
    if n > 32:
        raise ValueError("stats reports are limited to N <= 32 "
                         "(condition number cost)")
    _check_out(out)
    element = parse_element(element_name)
    A = assembly.assemble_operator(build_unit_square_mesh(n, 0.0), element,
                                   study_form(problem, element))
    row = {"element": element.describe(), "dofs": A.shape[0],
           "nnz_per_row": A.nnz / A.shape[0],
           "condition": solver.condition_number(A)}
    if out is not None:
        with open(out, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["element", "dofs", "nnz_per_row", "condition"])
            w.writerow([row["element"], row["dofs"],
                        f"{row['nnz_per_row']:.6f}", f"{row['condition']:.6e}"])
    return row
