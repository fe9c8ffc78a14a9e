"""Convex-roof nonclassicality of Fock-diagonal bosonic states.

Quantifies how far a photon-number-diagonal mixed state is from any mixture
of coherent states, by reducing the decomposition optimization to a linear
program on a lattice of amplitude vectors.  Closed-form phase ansatzes for
three- and four-level windows and a quadrature-Fisher-information lower
bound cross-check the LP from above and below.
"""

from .grid import AmplitudeGrid, GridCapacityError, build_grid, count_grid_points
from .metrology import QfiReport, quadrature_qfi
from .phases import PhaseLabel, classify, classify_many
from .roof import (
    Estimate,
    ExplicitDecomposition,
    GridResolutionWarning,
    SolverFailure,
    assemble_lp,
    estimate_nonclassicality,
    expand_histogram,
    refine,
)
from .simplex import (
    LpSolution,
    LpStatus,
    StandardFormLp,
    solve,
    write_lp,
)
from .states import (
    FockDiagonalState,
    mean_photon,
    rank2_nonclassicality,
    simple_bound,
    truncated_thermal,
)

__version__ = "0.1.0"

__all__ = [
    "AmplitudeGrid",
    "Estimate",
    "ExplicitDecomposition",
    "FockDiagonalState",
    "GridCapacityError",
    "GridResolutionWarning",
    "LpSolution",
    "LpStatus",
    "PhaseLabel",
    "QfiReport",
    "SolverFailure",
    "StandardFormLp",
    "assemble_lp",
    "build_grid",
    "classify",
    "classify_many",
    "count_grid_points",
    "estimate_nonclassicality",
    "expand_histogram",
    "mean_photon",
    "quadrature_qfi",
    "rank2_nonclassicality",
    "refine",
    "simple_bound",
    "solve",
    "truncated_thermal",
    "write_lp",
]
