#!/usr/bin/env python3
"""The paper's cost argument, measured: how sparse M is per family, what
the congruence M Atilde M^T costs with dense and with sparse M, and how
long building M takes next to assembling the operator.

    PYTHONPATH=src python3 studybench/cost_table.py

Prints a Markdown table for the perturbed N x N mesh.  nnz(M) counts
entries above NNZ_RTOL * max|M| (see child.py); "stored" counts every
nonzero float, roundoff included.  "one M pass" builds M once per cell,
apart from assembly; the study builds it in each of its operator, load
and error passes.
"""

import statistics
import time

import numpy as np
from trifem import assembly, harness, mesh, transform

from child import NNZ_RTOL, congruence_flops
from workloads import PERTURB

N = 16
REPEATS = 3
FAMILIES = (("lagrange:3", "poisson"), ("hermite", "poisson"),
            ("morley", "biharmonic"), ("argyris", "biharmonic"),
            ("bell", "biharmonic"))


def median_time(fn, repeats):
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def family_row(spec, problem, msh):
    el = harness.parse_element(spec)
    form = harness.study_form(problem, el)
    sizes = mesh.vertex_size_field(msh)
    geoms = [mesh.cell_geometry(msh, c, sizes) for c in range(msh.n_cells)]
    Ms = [transform.cell_transform(el, g, True).matrix for g in geoms]
    nnz = [np.count_nonzero(np.abs(M) > NNZ_RTOL * np.abs(M).max()) for M in Ms]
    stored = [np.count_nonzero(M) for M in Ms]
    n, m = Ms[0].shape
    dense_f, sparse_f = congruence_flops(n, m, statistics.mean(nnz))
    m_s = median_time(lambda: [transform.cell_transform(el, g, True)
                               for g in geoms], REPEATS)
    op_s = median_time(lambda: assembly.assemble_operator(msh, el, form),
                       REPEATS)
    return (f"| {spec} ({problem}) | {statistics.mean(nnz):.1f} / {n * m} "
            f"| {statistics.mean(stored):.1f} | {dense_f:,.0f} | {sparse_f:,.0f} "
            f"| {dense_f / sparse_f:.1f} | {m_s:.4f} | {op_s:.3f} "
            f"| {m_s / op_s:.3f} |")


def main():
    msh = mesh.build_unit_square_mesh(N, PERTURB)
    print(f"N={N}, {msh.n_cells} cells, perturbation {PERTURB}, scaled M; "
          f"per-cell means, times are medians of {REPEATS}")
    print()
    print("| element (form) | nnz(M) / dense | stored | congruence FLOPs, "
          "dense M | sparse M | dense/sparse | one M pass (s) | "
          "assemble_operator (s) | M pass / operator |")
    print("|---|---|---|---|---|---|---|---|---|")
    for spec, problem in FAMILIES:
        print(family_row(spec, problem, msh))


if __name__ == "__main__":
    main()
