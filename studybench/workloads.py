"""The benchmark's workloads and the reference facts its checks rely on.

Every workload is a list of convergence ladders run the way `trifem study`
runs them: perturbation 0.2 and derivative-DoF scaling on, the study
defaults.  Nothing here imports trifem, so the facts below stay independent
of the program under test.
"""

from dataclasses import dataclass

PERTURB = 0.2


@dataclass(frozen=True)
class Ladder:
    problem: str
    element: str
    levels: tuple
    solver: str
    rate_band: tuple  # (low, high) for the finest-rung convergence rate


# Why each workload is here (see README.md for the layer each one stresses):
#  poisson-cg  largest mesh, M = I; per-cell mesh/assembly loops and CG matvecs
#  plate-h2    Argyris and Bell; the transform layer's per-cell M rebuilds
#  plate-ip    facet-driven interior-penalty assembly and the densest LU
WORKLOADS = {
    "poisson-cg": (
        Ladder("poisson", "lagrange:3", (16, 32, 64), "cg", (3.7, 4.3)),
    ),
    "plate-h2": (
        Ladder("biharmonic", "argyris", (8, 16, 32), "lu", (5.0, float("inf"))),
        Ladder("biharmonic", "bell", (8, 16, 32), "lu", (4.0, float("inf"))),
    ),
    "plate-ip": (
        Ladder("biharmonic", "lagrange:3", (8, 16, 32), "lu", (3.7, 4.3)),
    ),
}

# DoFs per vertex, per edge and per cell interior, from the element
# definitions in the paper (not from trifem's entity tables).
ENTITY_WIDTHS = {
    "lagrange:1": (1, 0, 0),
    "lagrange:2": (1, 1, 0),
    "lagrange:3": (1, 2, 1),
    "lagrange:4": (1, 3, 3),
    "lagrange:5": (1, 4, 6),
    "hermite": (3, 0, 1),
    "morley": (1, 1, 0),
    "argyris": (6, 1, 0),
    "bell": (6, 0, 0),
}


def workload_elements(workload):
    """The workload's distinct elements, in ladder order."""
    return list(dict.fromkeys(lad.element for lad in WORKLOADS[workload]))


def local_dofs(element: str) -> int:
    n_v, n_e, n_c = ENTITY_WIDTHS[element]
    return 3 * n_v + 3 * n_e + n_c


def expected_dofs(element: str, n: int) -> int:
    """Global DoFs on the N x N unit-square mesh: (N+1)^2 vertices,
    3N^2 + 2N edges and 2N^2 cells."""
    n_v, n_e, n_c = ENTITY_WIDTHS[element]
    return (n + 1) ** 2 * n_v + (3 * n * n + 2 * n) * n_e + 2 * n * n * n_c


def interior_edges(n: int) -> int:
    return 3 * n * n + 2 * n - 4 * n
