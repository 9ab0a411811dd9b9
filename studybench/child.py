"""One measurement in a fresh process; prints one JSON line on stdout.

    child.py setup WORKLOAD          time `import trifem` + element builds
    child.py study WORKLOAD CSV_DIR  time the workload's ladders as
                                     `trifem study` runs them
    child.py trace WORKLOAD SEED     run the ladders call by call under a
                                     span tracer and check each rung

run.py starts these with PYTHONPATH pointing at the checkout's src/.
trifem, numpy and the benchmark's own check modules are imported inside
each mode, after or outside the timed region as the mode needs, so that
setup_s and study_s cover exactly what a `trifem study` process pays.
"""

import json
import os
import resource
import sys
import time
from contextlib import contextmanager
from pathlib import Path

from workloads import PERTURB, WORKLOADS, interior_edges, workload_elements

SRC = Path(__file__).resolve().parent.parent / "src"
MATVEC_CALLS = 21
# Bell's M comes out of a 21x21 inverse, so its structural zeros hold
# roundoff; entries below this share of max|M| are not counted as nonzeros
NNZ_RTOL = 1e-12


def _check_source(trifem):
    # refuse to measure a trifem other than the checkout's own
    if Path(trifem.__file__).resolve().parent.parent != SRC:
        raise SystemExit(f"trifem imported from {trifem.__file__}, "
                         f"not from {SRC}")


def setup_mode(workload):
    t0 = time.perf_counter()
    import trifem
    elements = [trifem.harness.parse_element(e)
                for e in workload_elements(workload)]
    setup_s = time.perf_counter() - t0
    _check_source(trifem)
    return {"setup_s": setup_s, "n_dofs": [el.n_dofs for el in elements]}


def study_mode(workload, csv_dir):
    import trifem
    from trifem import harness
    _check_source(trifem)
    ladders = []
    t0 = time.perf_counter()
    for k, lad in enumerate(WORKLOADS[workload]):
        out = os.path.join(csv_dir, f"{k}-{lad.element.replace(':', '')}.csv")
        spec = harness.StudySpec(problem=lad.problem, element=lad.element,
                                 levels=lad.levels, perturb=PERTURB,
                                 scaling=True, solver=lad.solver, out=out)
        try:
            rows = harness.run_convergence_study(spec)
            failure = None
        except harness.SolverFailure as exc:
            rows, failure = [], str(exc)
        ladders.append({"csv": out, "failure": failure, "rows": [
            {"n": r.n, "dofs": r.dofs, "error": r.error, "rate": r.rate,
             "iterations": r.iterations} for r in rows]})
    study_s = time.perf_counter() - t0
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {"study_s": study_s, "peak_rss_mb": rss_kb / 1024.0,
            "ladders": ladders}


class Tracer:
    """Spans kept in memory: name, start, end, parent span id and rung.

    `span` opens one span per call.  A function wrapped by `wrap` is
    called once per cell from inside trifem, so all its calls under one
    open span fold into a single span: start of the first call, end of
    the last, the number of calls and their summed time `busy_s`.
    """

    def __init__(self):
        self.spans = []
        self._open = []
        self._folded = {}  # (parent id, name) -> folded span
        self._kept = {}    # folded span id -> values its calls returned

    @contextmanager
    def span(self, name, rung, calls=1):
        rec = {"id": len(self.spans), "name": name,
               "parent": self._open[-1] if self._open else None,
               "rung": rung, "calls": calls, "start": time.perf_counter(),
               "end": None, "busy_s": None}
        self.spans.append(rec)
        self._open.append(rec["id"])
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            rec["busy_s"] = rec["end"] - rec["start"]
            self._open.pop()

    def wrap(self, name, fn, keep_in=None):
        """fn, timed into the folded span `name` under the open span.  The
        values it returns under an open span named keep_in are kept for
        `returned`."""
        def traced(*args, **kwargs):
            t0 = time.perf_counter()
            out = fn(*args, **kwargs)
            t1 = time.perf_counter()
            parent = self._open[-1] if self._open else None
            rec = self._folded.get((parent, name))
            if rec is None:
                rec = {"id": len(self.spans), "name": name, "parent": parent,
                       "rung": None if parent is None else self.spans[parent]["rung"],
                       "calls": 0, "start": t0, "end": t1, "busy_s": 0.0}
                self.spans.append(rec)
                self._folded[(parent, name)] = rec
            rec["calls"] += 1
            rec["end"] = t1
            rec["busy_s"] += t1 - t0
            if keep_in is not None and parent is not None \
                    and self.spans[parent]["name"] == keep_in:
                self._kept.setdefault(rec["id"], []).append(out)
            return out
        return traced

    def returned(self, parent, name):
        """The kept return values of `name`'s calls under span `parent`,
        released as they are handed out."""
        rec = self._folded.get((parent["id"], name))
        return [] if rec is None else self._kept.pop(rec["id"], [])


def congruence_flops(n, m, nnz):
    """FLOPs of M Atilde M^T for an n x m matrix M with nnz nonzeros and a
    dense m x m Atilde, with M dense and with M sparse (one multiply and
    one add per product term)."""
    return 2 * n * m * (m + n), 2 * nnz * (m + n)


def trace_mode(workload, seed):
    import numpy as np
    import trifem
    from trifem import assembly, harness, mesh, solver
    import checks
    _check_source(trifem)
    rng = np.random.default_rng(seed)
    tr = Tracer()
    ladders, failures = [], []
    # the per-cell helpers as the study's own passes resolve them: the
    # operator and load passes through `assembly`, the error pass through
    # `solver`; their time is part of those passes' spans
    for module in (assembly, solver):
        module.vertex_size_field = tr.wrap("mesh.size_field",
                                           module.vertex_size_field)
        module.cell_geometry = tr.wrap("mesh.geometry", module.cell_geometry)
        module.cell_transform = tr.wrap("transform.M", module.cell_transform,
                                        keep_in="assembly.operator")
    assembly.build_dof_map = tr.wrap("assembly.dofmap", assembly.build_dof_map)

    for k, lad in enumerate(WORKLOADS[workload]):
        with tr.span("ladder", lad.element):
            with tr.span("refelem.build", lad.element) as s:
                el = harness.parse_element(lad.element)
            rec = {"element": lad.element, "refelem.build_s": s["busy_s"],
                   "rungs": []}
            form = harness.study_form(lad.problem, el)
            u, f = (harness.poisson_problem() if lad.problem == "poisson"
                    else harness.biharmonic_problem())
            for i, n in enumerate(lad.levels):
                rung = f"{lad.element}/N={n}"
                finest = i == len(lad.levels) - 1
                first = len(tr.spans)
                with tr.span("rung", rung):
                    with tr.span("mesh.build", rung):
                        msh = mesh.build_unit_square_mesh(n, PERTURB)
                    with tr.span("assembly.operator", rung) as op:
                        A = assembly.assemble_operator(msh, el, form, scale=True)
                    with tr.span("assembly.load", rung):
                        b = assembly.assemble_load(msh, el, f, form, scale=True)
                    if finest:
                        xs = rng.standard_normal((MATVEC_CALLS, A.n))
                        calls = []
                        with tr.span("assembly.matvec", rung, MATVEC_CALLS):
                            for x in xs:
                                t0 = time.perf_counter()
                                A.matvec(x)
                                calls.append(time.perf_counter() - t0)
                        failures += [(k, j, m) for j, m in checks.matvec_failures(
                            i, n, A.indptr, A.indices, A.data, xs[0],
                            A.matvec(xs[0]))]
                    with tr.span("solver.solve", rung):
                        rep = harness._study_solve(A, b, lad.solver)
                    with tr.span("solver.l2_error", rung):
                        err = solver.l2_error(msh, el, rep.x, u, scale=True)
                times = {}
                for s in tr.spans[first + 1:]:
                    key = s["name"] + "_s"
                    times[key] = times.get(key, 0.0) + s["busy_s"]
                if finest:  # the span covers all calls; report one call
                    times["assembly.matvec_s"] = float(np.median(calls))

                # M as the operator pass built it, one per cell
                Ms = [t.matrix for t in tr.returned(op, "transform.M")]
                nnz = [int(np.count_nonzero(np.abs(M) > NNZ_RTOL * np.abs(M).max()))
                       for M in Ms]
                flops = [congruence_flops(*M.shape, z) for M, z in zip(Ms, nnz)]
                triplets = msh.n_cells * el.n_dofs ** 2
                if form.kind == "plate_ip":
                    triplets += interior_edges(n) * (2 * el.n_dofs) ** 2
                residual, asym = checks.linear_system_checks(
                    A.indptr, A.indices, A.data, rep.x, b)
                kind = "cg" if lad.solver == "cg" else "lu"
                failures += [(k, j, m) for j, m in checks.linear_system_failures(
                    i, n, kind, residual, asym)]
                if lad.solver == "cg" and not (rep.method == "cg" and rep.converged
                                               and rep.iterations > 0):
                    failures.append((k, i, f"N={n}: the study fell back from CG "
                                           f"to {rep.method}"))
                rec["rungs"].append({
                    "n": n, "error": err, "residual": residual, "asymmetry": asym,
                    "mesh.cells": msh.n_cells,
                    "transform.M_nnz": sum(nnz),
                    "transform.M_dense": sum(M.size for M in Ms),
                    "transform.congruence_flops_dense": sum(d for d, _ in flops),
                    "transform.congruence_flops_sparse": sum(s for _, s in flops),
                    "assembly.triplets": triplets, "assembly.nnz": A.nnz,
                    "assembly.dofs": A.n,
                    "solver.cg_iterations": rep.iterations, **times})
            ladders.append(rec)
    return {"ladders": ladders, "failures": failures, "spans": tr.spans}


def main(argv):
    mode, workload, arg = argv[0], argv[1], argv[2] if len(argv) > 2 else None
    if mode == "setup":
        out = setup_mode(workload)
    elif mode == "study":
        out = study_mode(workload, arg)
    elif mode == "trace":
        out = trace_mode(workload, int(arg))
    else:
        raise SystemExit(f"unknown mode {mode!r}")
    print(json.dumps(out))


if __name__ == "__main__":
    main(sys.argv[1:])
