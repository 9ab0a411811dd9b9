"""Linear solvers and L2 error evaluation against manufactured solutions.

The reference path is dense LU with partial pivoting plus one step of
iterative refinement; the scalable paths are Jacobi-preconditioned
conjugate gradients and (for systems past the dense cutover) a sparse
LU factorization; solve() is the one policy that chooses among them.  All
solvers are deterministic.
"""

import warnings
from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.sparse

from .quadrature import triangle_rule
from .refelem import ReferenceElement, tabulate_coeffs

# One-cell entry points kept importable from here, as from assembly; the
# error pass uses the batched pipeline (assembly.cell_blocks).
from .mesh import cell_geometry, vertex_size_field  # noqa: E402,F401
from .transform import cell_transform  # noqa: E402,F401

# Dense LU runs up to this order, sparse LU (SuperLU) beyond it: dense LU
# is the reference path but too slow past a few thousand DoFs
DENSE_CUTOVER = 1500
# memory budget of dense LU: A plus its LU copy, 16 n^2 bytes
DENSE_BUDGET = 1 << 30
# CG iteration cap: 50 n would allow millions of iterations on large systems
CG_MAX_ITER = 10_000


@dataclass
class SolveReport:
    """Solution plus diagnostics: relative residual, CG iteration count or
    LU pivot growth, and whether a refinement step was applied."""

    x: np.ndarray
    residual: float
    iterations: int = 0
    pivot_growth: float = None
    refined: bool = False
    converged: bool = True
    method: str = "lu"


def _relative_residual(A, x, b):
    nb = np.linalg.norm(b)
    if nb == 0.0:
        return np.linalg.norm(A @ x)
    return np.linalg.norm(A @ x - b) / nb


def dense_lu_solve(A, b, refine: bool = True) -> SolveReport:
    """Dense LU with partial pivoting and one iterative-refinement step."""
    n = A.shape[0]
    if 16 * n * n > DENSE_BUDGET:
        raise ValueError(f"dense LU of order {n} needs {16 * n * n} bytes, "
                         f"over the budget of {DENSE_BUDGET}")
    if scipy.sparse.issparse(A):
        dense = A.toarray()
    else:
        A = dense = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float)
    with warnings.catch_warnings():
        # singularity is detected and raised below; silence scipy's warning
        warnings.simplefilter("ignore", scipy.linalg.LinAlgWarning)
        lu, piv = scipy.linalg.lu_factor(dense)
    diag_u = np.abs(np.diag(lu))
    if diag_u.min() <= dense.shape[0] * np.finfo(float).eps * diag_u.max():
        raise np.linalg.LinAlgError("matrix is singular to working precision")
    growth = float(np.abs(lu).max() / np.abs(dense).max())
    x = scipy.linalg.lu_solve((lu, piv), b)
    if refine:
        r = b - dense @ x
        x = x + scipy.linalg.lu_solve((lu, piv), r)
    return SolveReport(x=x, residual=_relative_residual(A, x, b),
                       pivot_growth=growth, refined=refine, method="lu")


def sparse_lu_solve(A, b, refine: bool = True) -> SolveReport:
    """Sparse LU (SuperLU) direct path for systems past the dense cutover."""
    from scipy.sparse.linalg import splu  # kept out of `import trifem`
    b = np.asarray(b, dtype=float)
    lu = splu(A.tocsc())
    x = lu.solve(b)
    if refine:
        x = x + lu.solve(b - A @ x)
    return SolveReport(x=x, residual=_relative_residual(A, x, b),
                       refined=refine, method="sparse_lu")


def solve(A, b, method: str = "lu") -> SolveReport:
    """The study solve: method "cg" runs Jacobi-CG to 1e-11 and falls back
    to the direct path if it does not converge; the direct path is dense LU
    up to DENSE_CUTOVER and sparse LU beyond."""
    if method == "cg":
        rep = cg_solve(A, b, rtol=1e-11)
        if rep.converged:
            return rep
    if A.shape[0] <= DENSE_CUTOVER:
        return dense_lu_solve(A, b)
    return sparse_lu_solve(A, b)


def factorized(A):
    """Factor once, return a solve handle (for repeated inverse applications)."""
    if A.shape[0] <= DENSE_CUTOVER:
        lu_piv = scipy.linalg.lu_factor(A.toarray())
        return lambda b: scipy.linalg.lu_solve(lu_piv, b)
    from scipy.sparse.linalg import splu
    return splu(A.tocsc()).solve


def cg_solve(A, b, rtol: float = 1e-10, max_iter: int = None,
             precondition: bool = True) -> SolveReport:
    """Jacobi-preconditioned conjugate gradients on an SPD system.

    max_iter defaults to min(50 n, CG_MAX_ITER).  precondition=False runs
    plain CG; note that Jacobi preconditioning is invariant under diagonal
    rescaling of the system, so the effect of the derivative-DoF scaling on
    iteration counts only shows without it.
    """
    b = np.asarray(b, dtype=float)
    n = len(b)
    if max_iter is None:
        max_iter = min(50 * n, CG_MAX_ITER)
    if precondition:
        diag = A.diagonal()
        if np.any(diag <= 0):
            raise ValueError("Jacobi preconditioner needs a positive diagonal")
        dinv = 1.0 / diag
    else:
        dinv = np.ones(n)

    x = np.zeros(n)
    r = b.copy()
    nb = np.linalg.norm(b)
    if nb == 0.0:
        return SolveReport(x=x, residual=0.0, iterations=0, method="cg")
    z = dinv * r
    p = z.copy()
    rz = r @ z
    it = 0
    while it < max_iter:
        if np.linalg.norm(r) <= rtol * nb:
            break
        Ap = A @ p
        alpha = rz / (p @ Ap)
        x += alpha * p
        r -= alpha * Ap
        z = dinv * r
        rz_new = r @ z
        p = z + (rz_new / rz) * p
        rz = rz_new
        it += 1
    res = np.linalg.norm(r) / nb
    return SolveReport(x=x, residual=res, iterations=it,
                       converged=res <= rtol, method="cg")


def l2_error(mesh, element: ReferenceElement, u_h: np.ndarray, u_exact,
             scale: bool = True) -> float:
    """L2 norm of (u_h - u_exact), with u_h reconstructed per cell through the
    transformed basis and integrated at degree 2*embedded_degree + 2."""
    from .assembly import build_dof_map, cell_blocks
    dofmap = build_dof_map(mesh, element)
    rule = triangle_rule(min(2 * element.degree + 2, 12))
    tab0 = tabulate_coeffs(element.poly, element.tabulation_coeffs(),
                           rule.points, 0)[(0, 0)]
    ue = u_exact.f if hasattr(u_exact, "f") else u_exact

    # per-cell integrals, summed in cell order by a sequential cumsum
    terms = []
    for cells, geom, M in cell_blocks(mesh, element, scale):
        local = dofmap.cell_signs[cells] * u_h[dofmap.cell_dofs[cells]]
        vals = (local[:, None, :] @ (tab0 if M is None else M @ tab0))[:, 0]
        X = geom.ref_to_phys(rule.points)
        diff = vals - ue(X[..., 0], X[..., 1])
        terms.append(geom.detJinv_abs * np.vecdot(rule.weights, diff * diff))
    return float(np.sqrt(np.cumsum(np.concatenate(terms))[-1]))
