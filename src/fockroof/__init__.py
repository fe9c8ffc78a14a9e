"""Convex-roof nonclassicality of Fock-diagonal bosonic states.

Quantifies how far a photon-number-diagonal mixed state is from any mixture
of coherent states, by reducing the decomposition optimization to a linear
program on a lattice of amplitude vectors.  Closed-form phase ansatzes for
three- and four-level windows and a quadrature-Fisher-information lower
bound cross-check the LP from above and below.
"""

from .grid import AmplitudeGrid, GridCapacityError, build_grid, count_grid_points
from .metrology import QfiReport, quadrature_qfi
from .phases import (
    AnsatzResult,
    DegenerateStateError,
    PhaseLabel,
    classify,
    classify_many,
    classify_rank3,
    classify_rank4,
    rank3_lower_pair,
    rank3_triplet,
    rank3_upper_pair,
    rank4_pair,
    rank4_triplet,
)
from .roof import (
    DecompositionKind,
    ExplicitDecomposition,
    GridResolutionWarning,
    Histogram,
    SolverFailure,
    assemble_lp,
    classify_decomposition,
    estimate_nonclassicality,
    expand_histogram,
    refine,
)
from .simplex import (
    LpSolution,
    LpStatus,
    SparseVector,
    StandardFormLp,
    residuals,
    solve,
    write_lp,
)
from .states import (
    FockDiagonalState,
    MomentTriple,
    PureFockWindowState,
    mean_photon,
    moments,
    pure_nonclassicality,
    rank2_nonclassicality,
    real_alpha,
    simple_bound,
    truncated_thermal,
)

__version__ = "0.1.0"

__all__ = [
    "AmplitudeGrid",
    "AnsatzResult",
    "DecompositionKind",
    "DegenerateStateError",
    "ExplicitDecomposition",
    "FockDiagonalState",
    "GridCapacityError",
    "GridResolutionWarning",
    "Histogram",
    "LpSolution",
    "LpStatus",
    "MomentTriple",
    "PhaseLabel",
    "PureFockWindowState",
    "QfiReport",
    "SolverFailure",
    "SparseVector",
    "StandardFormLp",
    "assemble_lp",
    "build_grid",
    "classify",
    "classify_decomposition",
    "classify_many",
    "classify_rank3",
    "classify_rank4",
    "count_grid_points",
    "estimate_nonclassicality",
    "expand_histogram",
    "mean_photon",
    "moments",
    "pure_nonclassicality",
    "quadrature_qfi",
    "rank2_nonclassicality",
    "rank3_lower_pair",
    "rank3_triplet",
    "rank3_upper_pair",
    "rank4_pair",
    "rank4_triplet",
    "real_alpha",
    "refine",
    "residuals",
    "simple_bound",
    "solve",
    "truncated_thermal",
    "write_lp",
]
