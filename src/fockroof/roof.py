"""Convex-roof nonclassicality of Fock-diagonal states by linear programming.

The nonclassicality of a Fock-diagonal state equals its mean photon number
minus the largest achievable ensemble average of |<a>|² over decompositions
that reproduce the populations.  Restricting the decomposition amplitudes to
a lattice turns that maximization into a linear program over a histogram of
weights, one column per lattice point: the LP optimum is a one-sided
(never-below) estimate of the true nonclassicality that tightens as the
spacing shrinks.  The lattice is held as the LP's row matrix, shared by
every program on it: runs of consecutive last coordinates, whose prefix
coordinates are stored once per run, and the last coordinate per column,
each as a small integer code into one table of squares, so pricing reads
one byte per column.  An optimal histogram is returned as the
amplitude vectors of its support and their weights, and is checked against
the populations before it is returned.  Every solve returns one
:class:`Estimate`: the value, the spacing and that histogram.  Phases never
need to be enumerated; the histogram expands into an explicit ensemble by
splitting every support point across roots-of-unity phase patterns.
"""

from __future__ import annotations

import sys
import warnings
from dataclasses import dataclass, replace
from math import isqrt

import numpy as np

from . import simplex
from .grid import AmplitudeGrid, build_grid, neighborhood_grid
from .simplex import LpStatus, StandardFormLp
from .states import FockDiagonalState, mean_photon

SUPPORT_TOL = 1e-10


class SolverFailure(Exception):
    """The decomposition LP did not reach an optimal vertex, or the vertex it
    reached does not reproduce the state within the feasibility tolerance."""

    def __init__(self, status: LpStatus, detail: str = ""):
        message = f"linear program ended with status {status.value}"
        super().__init__(f"{message}; {detail}" if detail else message)
        self.status = status


class GridResolutionWarning(UserWarning):
    """A population is too small for the lattice to place sqrt(p) accurately."""


@dataclass(frozen=True, eq=False)
class Estimate:
    """One-sided nonclassicality estimate on a lattice and its optimal histogram.

    ``value`` is the mean photon number minus the LP optimum on the lattice
    of spacing ``delta``, never below the true value.  The histogram puts
    nonnegative ``weights`` on amplitude vectors whose mixture reproduces
    the state: ``amplitudes`` holds one (x0, ..., x_{M-1}) row per support
    point, in lattice order.  The weights sum to one and satisfy
    sum_i Q_i x_k(i)^2 = p_{n+k} for every window level, both within the
    solver feasibility tolerance.
    """

    value: float
    delta: float
    amplitudes: np.ndarray
    weights: np.ndarray


@dataclass(frozen=True, eq=False)
class ExplicitDecomposition:
    """Explicit pure-state ensemble reproducing a Fock-diagonal state.

    Atom i is the pure state with amplitudes ``atoms[i]`` on the window
    [offset, offset + M - 1], taken with probability ``probabilities[i]``.
    Atoms come in groups of ``phase_order`` per histogram support point; the
    members of a group share amplitude moduli and differ by roots-of-unity
    phase patterns, which cancels the ensemble average of <a>².
    """

    offset: int
    probabilities: np.ndarray
    atoms: np.ndarray
    phase_order: int

    def to_jsonable(self) -> list[dict]:
        return [
            {
                "probability": q,
                "amplitudes": [
                    {"re": re, "im": im} for re, im in zip(row.real.tolist(), row.imag.tolist())
                ],
            }
            for q, row in zip(self.probabilities.tolist(), self.atoms)
        ]


def _require_lp_ready(state: FockDiagonalState) -> None:
    if state.rank < 2:
        raise ValueError("state must span at least two Fock levels")
    if not state.is_trimmed:
        raise ValueError(
            "state window has zero edge populations; call .trimmed() first"
        )


def assemble_lp(state: FockDiagonalState, grid: AmplitudeGrid) -> StandardFormLp:
    """Build the histogram LP for a state on a matching grid.

    One column per grid point with objective coefficient equal to the squared
    coherence kernel; equality rows are the weight normalization and the
    populations of levels 1..M-1.  The level-0 row is implied by the others
    and is omitted to keep the rows independent.  The row matrix is the
    grid itself, shared by every program on that grid and not scanned; the
    objective and rhs are checked like every program's.
    """
    _require_lp_ready(state)
    if grid.rank != state.rank:
        raise ValueError(f"grid rank {grid.rank} != state rank {state.rank}")
    return StandardFormLp(grid.objective_coeffs(state.offset), grid, _population_rhs(state))


def _population_rhs(state: FockDiagonalState) -> np.ndarray:
    return np.concatenate([[1.0], state.populations[1:]])


def _outside_stacklevel() -> int:
    """``stacklevel`` that attributes a warning to the first caller outside
    this module, however deep inside it the warning is raised."""
    level, frame = 1, sys._getframe(1)
    while frame is not None and frame.f_globals.get("__name__") == __name__:
        level += 1
        frame = frame.f_back
    return level


def _warn_fine_populations(state: FockDiagonalState, delta: float) -> None:
    tiny = [
        int(state.offset + k)
        for k in range(1, state.rank)
        if 0.0 < state.populations[k] < 4.0 * delta * delta
    ]
    if tiny:
        warnings.warn(
            f"populations of levels {tiny} are below 4*delta^2; the lattice cannot "
            f"resolve their amplitudes, consider a smaller delta",
            GridResolutionWarning,
            stacklevel=_outside_stacklevel(),
        )


def _kuhn_start(state: FockDiagonalState, grid: AmplitudeGrid) -> list[int] | None:
    """Grid columns of the Kuhn simplex around sqrt(p): a feasible basis.

    In squared coordinates u_k = (l_k*delta)^2 the populations lie in the
    lattice cell with corner lo_k = floor(sqrt(p_k)/delta), at the fraction
    t_k = (p_k - lo_k^2 delta^2) / ((2 lo_k + 1) delta^2) of each edge.  The
    cell's Kuhn simplex through lo and unit steps taken in order of
    decreasing t_k (ties by k) contains p, with barycentric weights
    1 - t_1st, t_1st - t_2nd, ..., t_last.  None when a vertex is not on the
    grid (outside the ball or a refinement neighbourhood).
    """
    delta = grid.delta
    dn, dd = delta.as_integer_ratio()
    pops = [float(p) for p in state.populations[1:]]
    corner = []
    for p in pops:
        pn, pd = p.as_integer_ratio()
        corner.append(isqrt(pn * dd * dd // (pd * dn * dn)))
    frac = [
        (p - l * l * delta * delta) / ((2 * l + 1) * delta * delta)
        for p, l in zip(pops, corner)
    ]
    vertex = list(corner)
    columns = [grid.column_index(vertex)]
    for k in sorted(range(len(corner)), key=lambda k: (-frac[k], k)):
        vertex[k] += 1
        columns.append(grid.column_index(vertex))
    return None if min(columns) < 0 else columns


def _solve_on_grid(
    state: FockDiagonalState,
    lp: StandardFormLp,
    carried: list[list[int]] | None = None,
) -> tuple[Estimate, list[list[int]] | None]:
    """Estimate with its checked optimal histogram, and the optimal basis as
    the integer coordinates of its columns (None unless one structural
    column per row).  ``lp`` is a lattice program, whose row matrix is its
    grid.  The solve starts from the ``carried`` basis of an earlier solve
    when all of its columns are on the grid, else from the Kuhn simplex,
    else in phase 1.
    """
    grid = lp.row_matrix
    start = None if carried is None else [grid.column_index(k) for k in carried]
    if start is None or min(start) < 0:
        start = _kuhn_start(state, grid)
    sol = simplex.solve(lp, start=start)
    if sol.status is LpStatus.INFEASIBLE:
        # with 1/delta an integer, the lattice holds every corner x_k = 1
        raise SolverFailure(
            sol.status,
            f"the populations lie outside what the lattice of spacing {grid.delta!r} "
            f"can mix: no x_k^2 on it exceeds {grid.squares[-1]:.15g}; a spacing "
            "whose reciprocal is an integer reaches every population",
        )
    if sol.status is not LpStatus.OPTIMAL:
        raise SolverFailure(sol.status)
    # the primal's columns are in ascending order, so the support is in
    # lattice order
    keep = sol.values > SUPPORT_TOL
    idx, weights = sol.indices[keep], sol.values[keep]
    amplitudes = np.ascontiguousarray(grid.amplitudes(idx).T)
    reproduced = np.concatenate([[weights.sum()], weights @ amplitudes[:, 1:] ** 2])
    residual = float(np.max(np.abs(reproduced - lp.rhs)))
    if residual > simplex.FEAS_TOL:
        raise SolverFailure(
            sol.status,
            f"histogram residuals exceed {simplex.FEAS_TOL:g}: {residual:.3g}",
        )
    basis = None
    if max(sol.basis) < lp.n_cols:  # no artificial of a redundant row
        basis = grid.steps(sol.basis).T.tolist()
    value = mean_photon(state) - sol.objective_value
    return Estimate(value, grid.delta, amplitudes, weights), basis


class LatticeLps:
    """Full-lattice histogram LPs at one spacing, shared by many states.

    The grid depends only on the window rank and the objective only on the
    rank and the offset; a state enters the LP through its right-hand side
    alone.  A rank's grid is enumerated when a state of that rank first
    needs it, and is the row matrix of every window of that rank; a window's
    objective is built when a state of that window first needs it.
    """

    def __init__(self, delta: float):
        self.delta = delta
        self._grids: dict[int, AmplitudeGrid] = {}
        self._lps: dict[tuple[int, int], StandardFormLp] = {}

    def estimate(self, state: FockDiagonalState) -> Estimate:
        """One-sided estimate and its optimal histogram."""
        _require_lp_ready(state)
        window = (state.rank, state.offset)
        if window not in self._lps:
            if state.rank not in self._grids:
                self._grids[state.rank] = build_grid(state.rank, self.delta)
            self._lps[window] = assemble_lp(state, self._grids[state.rank])
        _warn_fine_populations(state, self.delta)
        lp = replace(self._lps[window], rhs=_population_rhs(state))
        return _solve_on_grid(state, lp)[0]


def estimate_nonclassicality(state: FockDiagonalState, delta: float) -> Estimate:
    """One-sided nonclassicality estimate on the full lattice of spacing delta,
    with its optimal histogram."""
    return LatticeLps(delta).estimate(state)


def refine(state: FockDiagonalState, delta_start: float, levels: int) -> list[Estimate]:
    """Estimate with local grid refinement around the optimal support.

    Level 1 solves on the full lattice at ``delta_start``.  Each further
    level halves the spacing and re-grids only a neighborhood of radius
    2*delta_prev per coordinate around the previous support (which is itself
    retained, so the estimate sequence cannot increase).  Returns each
    level's estimate, in level order.

    Each level starts from the previous level's optimal basis, whose
    column at step l is the refined grid's column at step 2l, wherever the
    neighborhood holds it: 2l * (delta/2) is l * delta, so each column keeps
    its bits and the basis stays feasible.  Only that basis and the
    estimate outlive a level, so one grid is alive at a time.
    """
    if levels < 1:
        raise ValueError(f"levels must be >= 1, got {levels}")
    _require_lp_ready(state)
    _warn_fine_populations(state, delta_start)
    delta = delta_start
    grid = build_grid(state.rank, delta)
    steps: list[Estimate] = []
    basis = None
    for level in range(levels):
        if level > 0:
            del grid  # before the next grid is built
            radius = 2.0 * delta
            delta = delta / 2.0
            grid = neighborhood_grid(
                state.rank, delta, steps[-1].amplitudes[:, 1:], radius=radius
            )
            if basis is not None:
                basis = [[2 * l for l in key] for key in basis]
        estimate, basis = _solve_on_grid(state, assemble_lp(state, grid), basis)
        steps.append(estimate)
    return steps


def expand_histogram(state: FockDiagonalState, estimate: Estimate) -> ExplicitDecomposition:
    """Expand an estimate's histogram into an explicit phase-complete ensemble.

    Every support point of weight w becomes P = max(4, M) atoms of
    probability w/P with amplitudes x_k * exp(2πi*j*(M-1-k)/P), j < P, in
    support order.  Any P of at least max(3, M) makes the mixture reproduce
    the diagonal state and cancels the ensemble average of <a>².  A
    one-level window has <a> = 0 already and expands with P = 1.
    """
    m = state.rank
    phase_order = max(4, m) if m > 1 else 1
    ks = np.arange(m)
    table = np.exp(2j * np.pi * np.arange(phase_order)[:, None] * (m - 1 - ks) / phase_order)
    atoms = (estimate.amplitudes[:, None, :] * table).reshape(-1, m)
    probabilities = np.repeat(estimate.weights / phase_order, phase_order)
    return ExplicitDecomposition(state.offset, probabilities, atoms, phase_order)
