"""Command-line entry points: convergence studies, operator statistics and
per-cell transformation dumps.

Exit codes: 0 on success, 1 on usage or argument errors, 2 on solver
failure.
"""

import argparse
import sys

from . import harness, transform
from .mesh import build_unit_square_mesh, cell_geometry, vertex_size_field


def _build_parser():
    p = argparse.ArgumentParser(prog="trifem")
    sub = p.add_subparsers(dest="command", required=True)

    st = sub.add_parser("study", help="run a convergence study")
    st.add_argument("--problem", required=True, choices=["poisson", "biharmonic"])
    st.add_argument("--element", required=True,
                    help="lagrange:k, hermite, morley, argyris or bell")
    st.add_argument("--levels", default="8,16,32",
                    help="comma-separated mesh sizes, e.g. 8,16,32")
    st.add_argument("--perturb", type=float, default=0.2)
    st.add_argument("--no-scaling", action="store_true",
                    help="disable derivative-DoF scaling")
    st.add_argument("--solver", default="lu", choices=["lu", "cg"])
    st.add_argument("--out", required=True)

    sp = sub.add_parser("stats", help="sparsity and conditioning report")
    sp.add_argument("--problem", required=True, choices=["poisson", "biharmonic"])
    sp.add_argument("--element", required=True)
    sp.add_argument("--n", type=int, default=8)
    sp.add_argument("--out", required=True)

    dm = sub.add_parser("dump-m", help="dump one cell's transformation matrix")
    dm.add_argument("--element", required=True)
    dm.add_argument("--cell", type=int, required=True)
    dm.add_argument("--n", type=int, default=8)
    dm.add_argument("--perturb", type=float, default=0.2)
    dm.add_argument("--no-scaling", action="store_true")
    dm.add_argument("--out", required=True)
    return p


def _cmd_study(args) -> int:
    spec = harness.StudySpec(
        problem=args.problem, element=args.element,
        levels=tuple(int(t) for t in args.levels.split(",")),
        perturb=args.perturb, scaling=not args.no_scaling,
        solver=args.solver, out=args.out)
    rows = harness.run_convergence_study(spec)
    for r in rows:
        rate = "-" if r.rate is None else f"{r.rate:.2f}"
        print(f"N={r.n:4d} dofs={r.dofs:7d} error={r.error:.6e} rate={rate}")
    return 0


def _cmd_stats(args) -> int:
    row = harness.run_stats_report(args.problem, args.element, args.n, args.out)
    print(f"{row['element']}: dofs={row['dofs']} "
          f"nnz/row={row['nnz_per_row']:.2f} condition={row['condition']:.3e}")
    return 0


def _cmd_dump_m(args) -> int:
    element = harness.parse_element(args.element)
    msh = build_unit_square_mesh(args.n, args.perturb)
    if not 0 <= args.cell < msh.n_cells:
        raise ValueError(f"cell index {args.cell} out of range "
                         f"[0, {msh.n_cells})")
    geom = cell_geometry(msh, args.cell, vertex_size_field(msh))
    M = transform.cell_transform(element, geom, scale=not args.no_scaling).matrix
    transform.dump_M_csv(M, args.out)
    print(f"wrote {M.shape[0]}x{M.shape[1]} matrix to {args.out}")
    return 0


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse: 0 after --help, 2 on a usage error
        return 1 if exc.code else 0
    handlers = {"study": _cmd_study, "stats": _cmd_stats, "dump-m": _cmd_dump_m}
    try:
        return handlers[args.command](args)
    except harness.SolverFailure as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
