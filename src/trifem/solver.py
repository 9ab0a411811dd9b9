"""Linear solvers and condition numbers.

Every direct solve factors through _factor, the one place that chooses
between dense LU with partial pivoting (up to DENSE_CUTOVER) and sparse
LU (beyond it): solve() adds one step of iterative refinement, and
condition_number() reuses the factor as A^-1.  The scalable path is
preconditioned conjugate gradients (scipy's cg); solve() runs it on
request and falls back to the direct path.  condition_number() finds the
extreme eigenvalues of A and A^-1 with scipy's Lanczos (eigsh).

CG is preconditioned by a two-level V-cycle when the operator carries a
coarse space, and by Jacobi otherwise.  assembly attaches the exact P1
coarse space (A.coarse) to the Poisson operators of Lagrange P_k, k >= 2:
on one mesh continuous P1 lies inside continuous P_k, and the iteration
count then stays flat under refinement.  Hermite, Argyris and Bell keep
Jacobi: their gradients are single-valued at the vertices, so the P1 hat
functions are not in their spaces.

The sparse LU is symmetric first: SuperLU orders A + A^T by multiple
minimum degree and eliminates on the diagonal, without pivoting.  The
result is kept only when every pivot was taken on the diagonal and is
positive, so that A is numerically SPD (Sylvester's law of inertia) and
elimination without pivoting is backward stable.  Any other matrix is
refactored with a COLAMD column ordering and partial pivoting, once the
rejected symmetric factor has been freed, so the two factors are never
held at once.  The check reads the pivots where SuperLU stores them, in
the supernodes of L, through ctypes views (_diagonal_pivots), so a
factored rung holds SuperLU's factor and nothing more: scipy's lu.U and
lu.L would convert the whole factor into CSC copies of L and U and keep
them as long as the factor lives.  Before every sparse factor, _factor
hands the heap that the operator pass freed back to the OS (glibc's
malloc_trim; nothing is released off glibc), so that freed but resident
memory does not add to the process's peak, and hands SuperLU a study
operator as a CSC view on its own arrays.  All solvers are deterministic.
"""

import ctypes
import importlib
import warnings
from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.sparse

# Re-exported for the frozen studybench/child.py, which calls and wraps
# them here; nothing in this module uses them.
from .assembly import l2_error  # noqa: F401
from .mesh import cell_geometry, vertex_size_field  # noqa: F401
from .transform import cell_transform  # noqa: F401

# numpy and scipy each load their own OpenBLAS, each with a thread pool
# as wide as the machine.  A blocked LU then depends on the pool width in
# its last bits, and the two pools contend for the same cores.  Each entry
# names the package, an extension module linked to its OpenBLAS, and the
# thread setter that the scipy-openblas wheels export.
_OPENBLAS_THREADS = (
    ("numpy", "numpy._core._multiarray_umath", "scipy_openblas_set_num_threads64_"),
    ("scipy", "scipy.linalg._fblas", "scipy_openblas_set_num_threads"),
)


def _blas_name(package):
    """The BLAS a package was built against, from its build configuration."""
    try:
        config = importlib.import_module(package + ".__config__").CONFIG
    except (ImportError, AttributeError):
        return None
    return config.get("Build Dependencies", {}).get("blas", {}).get("name")


def _pin_blas_threads():
    """Set both OpenBLAS pools to one thread, for the whole process, so
    that every result is the same whatever the core count.  Other BLAS
    builds (MKL, Accelerate) lack these symbols and are left alone; a
    package built on scipy-openblas whose setter cannot be found (on
    Windows, say, where a module's handle does not reach its DLL's
    symbols) gets a RuntimeWarning, since its results then depend on the
    thread count again."""
    for package, module, symbol in _OPENBLAS_THREADS:
        try:
            set_threads = getattr(
                ctypes.CDLL(importlib.import_module(module).__file__), symbol)
        except (ImportError, OSError, AttributeError):
            if _blas_name(package) == "scipy-openblas":
                warnings.warn(
                    f"{package} is built on scipy-openblas but {symbol} was "
                    "not found; its BLAS pool keeps its thread count, and "
                    "results may depend on it", RuntimeWarning, stacklevel=2)
            continue
        set_threads(1)


_pin_blas_threads()


def _resolve_malloc_trim():
    """glibc's malloc_trim, which hands the free pages of the malloc heap
    back to the OS; None where the C library lacks it (musl, macOS,
    Windows), and then _factor releases nothing."""
    try:
        trim = ctypes.CDLL(None).malloc_trim
    except (OSError, AttributeError, TypeError):
        return None
    trim.argtypes = [ctypes.c_size_t]
    return trim


_malloc_trim = _resolve_malloc_trim()


class _SuperMatrix(ctypes.Structure):
    # SuperLU's SuperMatrix: storage, data and shape kinds, then the shape
    _fields_ = [("Stype", ctypes.c_int), ("Dtype", ctypes.c_int),
                ("Mtype", ctypes.c_int), ("nrow", ctypes.c_int),
                ("ncol", ctypes.c_int), ("Store", ctypes.c_void_p)]


class _SCformat(ctypes.Structure):
    # the supernodal column storage of L, with U's diagonal blocks inside
    _fields_ = [("nnz", ctypes.c_int), ("nsuper", ctypes.c_int),
                ("nzval", ctypes.POINTER(ctypes.c_double))] + [
        (name, ctypes.POINTER(ctypes.c_int)) for name in (
            "nzval_colptr", "rowind", "rowind_colptr", "col_to_sup",
            "sup_to_col")]


class _SuperLUObject(ctypes.Structure):
    # the head of scipy's SuperLU object, up to its row permutation
    _fields_ = [("head", ctypes.c_char * object.__basicsize__),
                ("m", ctypes.c_ssize_t), ("n", ctypes.c_ssize_t),
                ("L", _SuperMatrix), ("U", _SuperMatrix),
                ("perm_r", ctypes.c_void_p)]


def _in_place_pivots(lu):
    """The n pivots of a SuperLU factor read from L's supernodes, where
    column j's U diagonal is nzval[nzval_colptr[j] + j - first column of
    j's supernode]; None when the object does not have that layout."""
    from scipy.sparse.linalg import SuperLU
    n = lu.shape[1]
    if (type(lu) is not SuperLU
            or type(lu).__basicsize__ < ctypes.sizeof(_SuperLUObject)):
        return None
    obj = _SuperLUObject.from_address(id(lu))
    L = obj.L
    if (obj.perm_r != lu.perm_r.ctypes.data or obj.n != n
            or (L.Stype, L.Dtype, L.Mtype) != (3, 1, 1)  # SC, double, TRLU
            or L.nrow != n or L.ncol != n or not L.Store):
        return None
    store = _SCformat.from_address(L.Store)
    if not 0 <= store.nsuper < n:
        return None

    def view(pointer, size):
        return np.ctypeslib.as_array(pointer, (size,))

    columns = np.arange(n)
    rowind_colptr = view(store.rowind_colptr, n + 1)
    nzval_colptr = view(store.nzval_colptr, n + 1)
    try:  # numpy bounds-checks every gather against the view's length
        first = view(store.sup_to_col, store.nsuper + 2)[
            view(store.col_to_sup, n)]
        offset = columns - first
        if min(first.min(), offset.min()) < 0 or np.any(
                view(store.rowind, int(rowind_colptr[n]))[
                    rowind_colptr[first] + offset] != columns):
            return None
        return view(store.nzval, int(nzval_colptr[n]))[
            nzval_colptr[:n] + offset]
    except IndexError:
        return None


def _diagonal_pivots(lu):
    """The diagonal of a SuperLU factor's U, without the CSC copies of L
    and U that lu.U makes and keeps for the factor's lifetime.

    The pivots are read in place through ctypes once the object's layout
    checks out: its size, its perm_r pointer, L's storage kind and shape,
    and the row index at each column's diagonal slot.  An object of any
    other layout gets lu.U.diagonal() and a RuntimeWarning, as it then
    pays for the copies.  The result is a copy; no view outlives lu.
    """
    pivots = _in_place_pivots(lu)
    if pivots is None:
        warnings.warn(
            "the SuperLU factor's layout was not recognised; its pivots are "
            "read through lu.U, which copies L and U", RuntimeWarning,
            stacklevel=2)
        pivots = lu.U.diagonal()
    return pivots


# Dense LU runs up to this order, sparse LU (SuperLU) beyond it: dense LU
# is the reference path but too slow past a few thousand DoFs
DENSE_CUTOVER = 1500
# CG iteration cap: 50 n would allow millions of iterations on large systems
CG_MAX_ITER = 10_000
# rows per block of _two_level's l1 row sums
_ROW_BLOCK = 4096
# entries per block of _swap_transposes: its temporaries stay under 1 MB
_SWAP_BLOCK = 1 << 15
# splu's symmetric mode: MMD on A + A^T, pivots kept on the diagonal
_SYMMETRIC_LU = {"permc_spec": "MMD_AT_PLUS_A", "diag_pivot_thresh": 0.0,
                 "options": {"SymmetricMode": True}}


@dataclass
class SolveReport:
    """Solution plus diagnostics: relative residual, and the CG iteration
    count or the dense-LU pivot growth."""

    x: np.ndarray
    residual: float
    iterations: int = 0
    pivot_growth: float = None
    converged: bool = True
    method: str = "lu"
    preconditioner: str = "none"  # CG's: "two_level" or "jacobi"


def _relative_residual(A, x, b):
    nb = np.linalg.norm(b)
    if nb == 0.0:
        return np.linalg.norm(A @ x)
    return np.linalg.norm(A @ x - b) / nb


def _dense_lu(A):
    """Dense LU with partial pivoting of a sparse or dense A, checked.

    Returns the dense A, lu_factor's (lu, piv) and the pivot growth.  Raises
    LinAlgError when A is singular to working precision.  _factor calls it
    up to DENSE_CUTOVER only, where A and its LU take 16 n^2 <= 36 MB.
    """
    n = A.shape[0]
    dense = A.toarray() if scipy.sparse.issparse(A) else A
    with warnings.catch_warnings():
        # singularity is detected and raised below; silence scipy's warning
        warnings.simplefilter("ignore", scipy.linalg.LinAlgWarning)
        lu, piv = scipy.linalg.lu_factor(dense)
    diag_u = np.abs(np.diag(lu))
    if diag_u.min() <= n * np.finfo(float).eps * diag_u.max():
        raise np.linalg.LinAlgError("matrix is singular to working precision")
    # max |x| as max(max x, -min x): no third n x n array, and NaN stays
    growth = np.maximum(lu.max(), -lu.min()) / np.maximum(dense.max(),
                                                          -dense.min())
    return dense, (lu, piv), float(growth)


def _sparse_lu(A):
    """Sparse LU (SuperLU) of A, checked; returns (lu, method).

    Symmetric mode first (_SYMMETRIC_LU): minimum-degree ordering of
    A + A^T and diagonal pivots only.  It is accepted, as "sparse_lu_sym",
    when SuperLU kept every pivot on the diagonal and all of them are
    positive, that is when A is numerically SPD.  Otherwise A is
    refactored with COLAMD and partial pivoting, as "sparse_lu".  The
    pivots are read in place (_diagonal_pivots), so no copy of the factor
    is made, and the rejected symmetric factor is freed before the
    fallback builds its own.  A CSC A is read as it is (_factor's view),
    any other A, sparse or a dense ndarray, through a CSC copy that nothing
    holds after each call.
    """
    from scipy.sparse.linalg import splu  # kept out of `import trifem`
    # with a zero diagonal SuperLU still pivots off it, so this raises only
    # when A is singular, as the fallback would
    lu = splu(scipy.sparse.csc_array(A), **_SYMMETRIC_LU)
    if np.array_equal(lu.perm_r, lu.perm_c) and _diagonal_pivots(lu).min() > 0:
        return lu, "sparse_lu_sym"
    del lu
    return splu(scipy.sparse.csc_array(A)), "sparse_lu"


def _column_order(A):
    """Swap A's off-diagonal values with their transposes' in place, and
    return the rank of each entry's transpose within its row, by which
    _swap_transposes swaps them back; None, and A as it was, unless A is
    a canonical sparse CSR with writable data and a symmetric pattern."""
    if not (scipy.sparse.issparse(A) and A.format == "csr"
            and A.has_canonical_format and A.data.flags.writeable):
        return None
    T = scipy.sparse.csr_array((np.arange(A.nnz, dtype=A.indptr.dtype),
                                A.indices, A.indptr), shape=A.shape).tocsc()
    if not (np.array_equal(T.indptr, A.indptr)
            and np.array_equal(T.indices, A.indices)):
        return None
    rank = (T.data - np.take(A.indptr, A.indices)).astype(
        np.min_scalar_type(np.diff(A.indptr).max()))
    A.data[:] = np.take(A.data, T.data)  # last, so that A is swapped or not
    return rank


def _swap_transposes(A, rank):
    """Swap each off-diagonal value of A.data with its transpose's, in
    place and a block at a time (rank: _column_order's)."""
    for lo in range(0, A.nnz, _SWAP_BLOCK):
        hi = lo + _SWAP_BLOCK
        t = np.take(A.indptr, A.indices[lo:hi]) + rank[lo:hi]
        p = np.arange(lo, lo + len(t))
        first = t > p
        p, t = p[first], t[first]
        A.data[p], A.data[t] = A.data[t], A.data[p]


def _factor(A):
    """The one dense/sparse policy: the checked dense LU up to
    DENSE_CUTOVER, the checked sparse LU beyond it.

    Returns (apply A^-1, method, pivot growth or None, R), where R is the
    matrix the refinement residual b - R x uses: the dense copy on the
    dense path, A itself on the sparse one.

    Before a sparse factor is built, the heap that the operator pass has
    freed goes back to the OS (glibc's malloc_trim(0); a no-op elsewhere).
    glibc's mmap threshold rises as numpy frees large arrays, so the pass's
    mid-size temporaries land on the brk heap and stay resident after they
    are freed; SuperLU's factor would be allocated above them.  This takes
    about 12 MB off the N=32 biharmonic rungs' peak and about 5 MB at N=64,
    where the arrays past glibc's 32 MB threshold cap were mapped, and
    unmapped, on their own.  Every sparse factor trims, a smaller one
    after a larger too: Bell's N=32 factor after Argyris's would otherwise
    land on the heap its own operator pass freed, and rise above the
    larger factor's peak.  The dense path and _two_level's small coarse
    factor do not trim.

    A study operator's pattern is symmetric: with its values swapped with
    their transposes' in place, A holds A^T, and A.T, a CSC view on its
    arrays, is A, so splu reads the bytes of A.tocsc() without that copy.
    The swap is undone when splu returns or raises; any other A is copied.
    """
    if A.shape[0] <= DENSE_CUTOVER:
        dense, lu_piv, growth = _dense_lu(A)
        return (lambda b: scipy.linalg.lu_solve(lu_piv, b)), "lu", growth, dense
    rank = _column_order(A)  # its temporaries go with the trim
    try:
        if _malloc_trim is not None:
            _malloc_trim(0)
        lu, method = _sparse_lu(A if rank is None else A.T)
    finally:
        if rank is not None:
            _swap_transposes(A, rank)
    return lu.solve, method, None, A


def solve(A, b, method: str = "lu") -> SolveReport:
    """The study solve: method "cg" runs preconditioned CG to 1e-11 and
    falls back to the direct path if it does not converge; the direct path
    ("lu") factors A once (see _factor) and takes one iterative-refinement
    step.

    CG takes its preconditioner from A (see cg_solve): the two-level
    cycle on A.coarse, which assembly attaches to the Poisson operators of
    Lagrange k >= 2, and Jacobi on every other operator.  The Hermite,
    Argyris and Bell spaces cannot take the P1 coarse space: their
    gradients are single-valued at the vertices, so the P1 hat functions
    are not in their spaces."""
    if method not in ("lu", "cg"):
        raise ValueError(f"unknown solve method {method!r}")
    if method == "cg":
        rep = cg_solve(A, b, rtol=1e-11)
        if rep.converged:
            return rep
    apply_inv, kind, growth, R = _factor(A)
    b = np.asarray(b, dtype=float)
    x = apply_inv(b)
    x = x + apply_inv(b - R @ x)
    return SolveReport(x=x, residual=_relative_residual(A, x, b),
                       pivot_growth=growth, method=kind)


def condition_number(A) -> float:
    """The condition number of a symmetric A, max |lambda| / min |lambda|,
    sparse or a dense ndarray.

    Both extreme eigenvalues are the largest in magnitude of A and of A^-1,
    found by Lanczos (eigsh) to working precision, with A^-1 applied
    through _factor(A).  Lanczos starts from a fixed seeded vector, so
    the result is deterministic.
    """
    # kept out of `import trifem`, as splu is
    from scipy.sparse.linalg import LinearOperator, eigsh
    n = A.shape[0]
    v0 = np.random.default_rng(1234).standard_normal(n)
    inv = LinearOperator((n, n), matvec=_factor(A)[0], dtype=float)
    lam_max, lam_max_inv = (
        abs(eigsh(op, k=1, which="LM", v0=v0, return_eigenvectors=False)[0])
        for op in (A, inv))
    return float(lam_max * lam_max_inv)


def _two_level(A, P):
    """The symmetric V(1,1) cycle on the fine space and range(P): l1-Jacobi
    smoothing before and after an exact coarse solve with P^T A P.

    l1-Jacobi divides by the row sums of |A|, so rho(D_l1^-1 A) <= 1 and
    the smoother converges with no damping constant to tune; damped Jacobi
    at a fixed weight diverges for P5.  Each row sum is one np.add.reduceat
    group, as over all of |A.data|, but taken a block of rows at a time, so
    no full-size copy of |A.data| is made.
    """
    dinv = np.empty(A.shape[0])
    for lo in range(0, A.shape[0], _ROW_BLOCK):
        ptr = A.indptr[lo:lo + _ROW_BLOCK + 1]
        dinv[lo:lo + _ROW_BLOCK] = np.add.reduceat(
            np.abs(A.data[ptr[0]:ptr[-1]]), ptr[:-1] - ptr[0])
    np.divide(1.0, dinv, out=dinv)
    lu, _ = _sparse_lu(P.T @ (A @ P))
    R = P.T.tocsr()

    def apply(r):
        x = dinv * r
        x += P @ lu.solve(R @ (r - A @ x))
        return x + dinv * (r - A @ x)
    return apply


def cg_solve(A, b, rtol: float = 1e-10) -> SolveReport:
    """Preconditioned conjugate gradients on an SPD system by scipy's cg,
    stopped when its (unpreconditioned) recurrence residual falls below
    rtol |b|; the report carries the true relative residual |A x - b| / |b|,
    as the direct path's does, and cg's iteration count.

    An operator that carries a coarse space (A.coarse, the P1 prolongation
    that assembly attaches to Lagrange k >= 2 Poisson operators) gets the
    two-level preconditioner of _two_level, whose iteration count does not
    grow as the mesh is refined; any other operator gets Jacobi.  Hermite,
    Argyris and Bell have no such coarse space: their gradients are
    single-valued at the vertices, so the P1 hat functions are not in their
    spaces.  CG stops after min(50 n, CG_MAX_ITER) iterations.
    """
    # kept out of `import trifem`, as splu is
    from scipy.sparse.linalg import LinearOperator, cg
    b = np.asarray(b, dtype=float)
    n = len(b)
    diag = A.diagonal()
    if np.any(diag <= 0):
        raise ValueError("CG preconditioners need a positive diagonal")
    coarse = getattr(A, "coarse", None)
    if coarse is not None:
        kind, apply = "two_level", _two_level(A, coarse)
    else:
        dinv = 1.0 / diag
        kind, apply = "jacobi", lambda r: dinv * r
    precond = LinearOperator((n, n), matvec=apply, dtype=float)

    iterations = 0

    def count(xk):
        nonlocal iterations
        iterations += 1

    x, info = cg(A, b, rtol=rtol, atol=0.0, maxiter=min(50 * n, CG_MAX_ITER),
                 M=precond, callback=count)
    return SolveReport(x=x, residual=_relative_residual(A, x, b),
                       iterations=iterations, converged=info == 0,
                       method="cg", preconditioner=kind)

