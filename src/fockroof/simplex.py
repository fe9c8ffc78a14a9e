"""Dense two-phase revised simplex for equality-form LPs with few rows.

The decomposition programs solved in this package have a handful of equality
rows (one per population plus normalization) and up to several hundred
thousand columns, so the cost of a pivot is dominated by pricing.  Pricing is
vectorized over column blocks (partial pricing, Dantzig rule within a block);
the basis inverse is kept dense and refactorized periodically.  Cycling at
degenerate vertices is handled by a lexicographic ratio test with a fallback
to Bland's rule after a run of degenerate pivots, kept until the next pivot
that moves the objective.

A caller that knows a feasible basis passes it as ``start`` (one structural
column per row).  If those columns are nonsingular and their basic solution
is nonnegative within the feasibility tolerance, phase 1 is skipped;
otherwise the solve runs phase 1 exactly as without a start.  The lattice
programs start from the Kuhn simplex around sqrt(p) (``roof._kuhn_start``):
the seven programs that ``eval_rank4`` and ``sweep4_lpcheck`` solve at
delta = 0.00999 take 1,395 pivots from phase 1 and 423 from that start.
A refined level of ``roof.refine`` starts from the previous level's optimal
basis, whose columns are on the refined grid bit for bit, and from the Kuhn
simplex only when one of them is not: the fifteen ``thermal_refine``
programs take 247 pivots from these starts and 499 from the Kuhn simplex
and phase 1.

The block of 16,384 columns was chosen from the phase-1 start on
seven rank-4 programs at delta = 0.00999 (5,812 pivots at 4,096, 1,539 at
16,384), though the rank-5 program at delta = 0.04 was slower with it
(16-22 ms against 11.5-12.3 ms).  From the crash start no block from 4,096
to 32,768 is faster beyond run-to-run noise, on those programs, the
``thermal`` refinement programs or the rank-5 one.

The solver reads a row matrix through three members: ``shape``,
``dot(y, lo, hi)`` for ``y @ A[:, lo:hi]`` and ``columns(idx)`` for dense
columns.  A dense array is read in place through a small adapter; a
lattice program's row matrix, its grid, provides them itself.

Phase 1 adds one artificial per row without storing it: a basis index
``j >= n_cols`` stands for the column ``s_r e_r`` with r = j - n_cols and
s_r the sign of ``b_r`` (+1 for zero), so the first basic solution is
``|b|`` and the program's rows are never flipped.  Only the structural
columns are priced, so an artificial that leaves never re-enters.  An
artificial that no structural column can replace belongs to a redundant row;
it stays basic at zero, and phase 2 prices it at cost 0."""

from __future__ import annotations

import enum
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

FEAS_TOL = 1e-9
DEFAULT_MAX_ITER = 200_000

_PRICING_BLOCK = 16384
_PIVOT_TOL = 1e-11
_REFACTOR_EVERY = 64
_BLAND_AFTER_STALLS = 50


class LpStatus(enum.Enum):
    OPTIMAL = "Optimal"
    INFEASIBLE = "Infeasible"
    UNBOUNDED = "Unbounded"
    ITERATION_LIMIT = "IterationLimit"
    NUMERICAL = "Numerical"


def _read_only(arr: np.ndarray) -> np.ndarray:
    """A read-only view of ``arr``.

    The solver reads the program's arrays without copying, and one matrix
    may be shared by many programs.  The caller's own array keeps its
    flags.
    """
    view = arr.view()
    view.setflags(write=False)
    return view


def _checked_view(name: str, arr: np.ndarray) -> np.ndarray:
    """A read-only view of a finite array."""
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} contains non-finite entries")
    return _read_only(arr)


class _DenseRows:
    """A dense row matrix, read in place through the solver's three
    members."""

    def __init__(self, a: np.ndarray):
        self.a = a
        self.shape = a.shape

    def dot(self, y: np.ndarray, lo: int, hi: int) -> np.ndarray:
        cols = self.a[:, lo:hi]
        if len(cols) == 1:
            # the same bits as matmul, which has no BLAS path for a single
            # row; np.dot copies a matrix whose rows are strided
            return np.dot(y, cols)
        return y @ cols

    def columns(self, idx) -> np.ndarray:
        return self.a.take(idx, axis=1)


def _rows_of(lp: StandardFormLp):
    """The program's row matrix as the solver reads it."""
    a = lp.row_matrix
    return _DenseRows(a) if isinstance(a, np.ndarray) else a


@dataclass(frozen=True)
class StandardFormLp:
    """maximize objective·q  subject to  row_matrix·q = rhs,  q >= 0.

    The public constructor takes three arrays and stores them as read-only
    views, each checked to be finite.  A lattice program's row matrix is its
    grid instead, one of any row matrices with the solver's three members.
    """

    objective: np.ndarray
    row_matrix: np.ndarray
    rhs: np.ndarray

    def __post_init__(self):
        c = np.asarray(self.objective, dtype=float)
        a = np.asarray(self.row_matrix, dtype=float)
        b = np.asarray(self.rhs, dtype=float)
        if a.ndim != 2:
            raise ValueError("row_matrix must be 2-d")
        rows, cols = a.shape
        if c.shape != (cols,) or b.shape != (rows,):
            raise ValueError(
                f"shape mismatch: A is {a.shape}, c is {c.shape}, b is {b.shape}"
            )
        if rows > cols:
            raise ValueError(f"need at least as many columns as rows ({rows}x{cols})")
        for name, arr in (("objective", c), ("row_matrix", a), ("rhs", b)):
            object.__setattr__(self, name, _checked_view(name, arr))

    @classmethod
    def _of_finite(cls, objective, row_matrix, rhs) -> StandardFormLp:
        """The program on a float objective and a read-only row matrix (an
        array or a row matrix with the solver's three members) that are
        finite by construction and of matching shapes, neither copied nor
        scanned; only ``rhs`` is checked."""
        b = np.asarray(rhs, dtype=float)
        if b.shape != (row_matrix.shape[0],):
            raise ValueError(f"rhs has shape {b.shape}, need {(row_matrix.shape[0],)}")
        lp = object.__new__(cls)
        object.__setattr__(lp, "objective", _read_only(objective))
        object.__setattr__(lp, "row_matrix", row_matrix)
        object.__setattr__(lp, "rhs", _checked_view("rhs", b))
        return lp

    def with_rhs(self, rhs) -> StandardFormLp:
        """The same program with another right-hand side.

        Only ``rhs`` is checked; the objective and row matrix are this
        program's read-only views, neither copied nor scanned again.
        """
        return self._of_finite(self.objective, self.row_matrix, rhs)

    @property
    def n_rows(self) -> int:
        return self.row_matrix.shape[0]

    @property
    def n_cols(self) -> int:
        return self.row_matrix.shape[1]


@dataclass(frozen=True)
class SparseVector:
    """Nonnegative primal point stored as (index, value) pairs."""

    size: int
    indices: np.ndarray
    values: np.ndarray

    @property
    def nnz(self) -> int:
        return self.indices.size


@dataclass(frozen=True)
class LpSolution:
    """Result of :func:`solve`.  ``iterations`` counts all pivots and
    ``phase1_iterations`` those spent finding a feasible basis, 0 when the
    ``start`` basis was accepted.  A NUMERICAL solution carries no primal
    point, basis or pivot count."""

    status: LpStatus
    objective_value: float
    primal: SparseVector
    basis: list[int]
    iterations: int
    phase1_iterations: int = 0


def _empty_primal(size: int) -> SparseVector:
    return SparseVector(size, np.empty(0, dtype=np.intp), np.empty(0))


class _Tableau:
    """Mutable simplex state: basis, dense basis inverse and basic values.

    ``a`` is the row matrix as the solver reads it.  A basis index
    ``j >= a.shape[1]`` is the phase-1 artificial column ``signs[r] * e_r``,
    r = j - a.shape[1], with ``signs`` those of ``b``; artificial columns
    are never stored.
    """

    def __init__(self, a, b, basis):
        self.a = a
        self.b = b
        self.signs = np.where(b < 0, -1.0, 1.0)
        self.basis = basis
        self.refactor()

    def refactor(self):
        rows, n = self.a.shape
        basis = np.asarray(self.basis)
        artificial = basis >= n
        b_mat = np.zeros((rows, rows))
        b_mat[:, ~artificial] = self.a.columns(basis[~artificial])
        art_rows = basis[artificial] - n
        b_mat[art_rows, np.nonzero(artificial)[0]] = self.signs[art_rows]
        self.b_inv = np.linalg.inv(b_mat)
        self.x_b = np.maximum(self.b_inv @ self.b, 0.0)

    def pivot(self, entering: int, leaving_row: int, w: np.ndarray):
        piv = w[leaving_row]
        step = self.x_b[leaving_row] / piv
        self.x_b -= step * w
        self.x_b[leaving_row] = step
        np.maximum(self.x_b, 0.0, out=self.x_b)
        row = self.b_inv[leaving_row] / piv
        self.b_inv -= np.outer(w, row)
        self.b_inv[leaving_row] = row
        self.basis[leaving_row] = entering
        return step


def _price_block(c, a, y, lo, hi):
    d = a.dot(y, lo, hi)
    return np.subtract(c[lo:hi], d, out=d)


def _choose_entering(c, a, y, cursor, block, tol, bland):
    """Return (entering index or -1, new cursor).

    Partial pricing: scan fixed-size column blocks starting at ``cursor`` and
    take the best reduced cost in the first block containing one above
    ``tol``.  Under Bland's rule the whole column range is scanned and the
    smallest eligible index wins.
    """
    n = a.shape[1]
    if bland:
        d = _price_block(c, a, y, 0, n)
        eligible = np.nonzero(d > tol)[0]
        if eligible.size == 0:
            return -1, cursor
        return int(eligible[0]), cursor
    start = cursor
    while True:
        lo = cursor
        hi = min(lo + block, n)
        d = _price_block(c, a, y, lo, hi)
        j = int(d.argmax())
        if d[j] > tol:
            return lo + j, cursor
        cursor = hi if hi < n else 0
        if cursor == start:
            return -1, cursor


def _choose_leaving(tab: _Tableau, w, bland):
    """Ratio test.  Ties break lexicographically on rows of [x_B | B^-1 S],
    S the artificials' signs, or by smallest basis index under Bland's
    rule."""
    cand = np.nonzero(w > _PIVOT_TOL)[0]
    if cand.size == 0:
        return -1
    ratios = tab.x_b[cand] / w[cand]
    rmin = float(ratios.min())
    sel = cand[ratios <= rmin + 1e-12]
    if sel.size == 1:
        return int(sel[0])
    if bland:
        basis_arr = np.asarray(tab.basis)
        return int(sel[np.argmin(basis_arr[sel])])
    for col in range(tab.b_inv.shape[1]):
        vals = tab.b_inv[sel, col] * tab.signs[col] / w[sel]
        sel = sel[vals <= vals.min() + 1e-14]
        if sel.size == 1:
            break
    return int(sel[0])


def _run_phase(
    tab: _Tableau, c, pivots_left: int, artificial_cost: float = 0.0
) -> tuple[str, int]:
    """Iterate to optimality of c over the current feasible basis, taking at
    most ``pivots_left`` pivots.

    ``c`` covers the structural columns of ``tab.a``, the only ones priced;
    a basic artificial costs ``artificial_cost``.  Returns the outcome
    ("optimal", "unbounded" or "iter_limit") and the number of pivots taken.
    """
    n = tab.a.shape[1]
    bland = False
    stalls = 0
    cursor = 0
    since_refactor = 0
    pivots = 0
    while True:
        if pivots >= pivots_left:
            return "iter_limit", pivots
        c_b = np.array([c[j] if j < n else artificial_cost for j in tab.basis])
        y = tab.b_inv.T @ c_b
        entering, cursor = _choose_entering(
            c, tab.a, y, cursor, _PRICING_BLOCK, FEAS_TOL, bland
        )
        if entering < 0:
            return "optimal", pivots
        w = tab.b_inv @ tab.a.columns(entering)
        leaving = _choose_leaving(tab, w, bland)
        if leaving < 0:
            return "unbounded", pivots
        step = tab.pivot(entering, leaving, w)
        pivots += 1
        since_refactor += 1
        if step <= 1e-13:
            stalls += 1
            if stalls >= _BLAND_AFTER_STALLS:
                bland = True
        else:
            stalls = 0
            bland = False
        if since_refactor >= _REFACTOR_EVERY:
            tab.refactor()
            since_refactor = 0


def _drive_out_artificials(tab: _Tableau):
    """Pivot zero-level artificial variables out of the basis.

    An artificial that no structural column can replace belongs to a row
    that depends on the others: its row of B^-1 A is zero, so it stays basic
    at zero and no pivot moves it.  An artificial never re-enters, so the
    one for row ``r`` sits at basis position ``r``.
    """
    n_struct = tab.a.shape[1]
    for r in range(len(tab.basis)):
        if tab.basis[r] < n_struct:
            continue
        row = tab.a.dot(tab.b_inv[r], 0, n_struct)
        in_basis = set(tab.basis)
        candidates = np.nonzero(np.abs(row) > 1e-8)[0]
        entering = next((int(j) for j in candidates if j not in in_basis), -1)
        if entering >= 0:
            w = tab.b_inv @ tab.a.columns(entering)
            tab.pivot(entering, r, w)
    tab.refactor()


def _check_start(start: Sequence[int], rows: int, cols: int) -> list[int]:
    basis = [int(j) for j in start]
    if len(basis) != rows:
        raise ValueError(f"start needs one column index per row ({rows}), got {len(basis)}")
    if len(set(basis)) != rows:
        raise ValueError("start repeats a column index")
    if any(not 0 <= j < cols for j in basis):
        raise ValueError(f"start column indices must lie in [0, {cols})")
    return basis


def _crash_tableau(a, b, start):
    """Tableau on the structural basis ``start``, or None when that basis is
    singular or its basic solution is negative beyond ``FEAS_TOL``.

    Singular means a 1-norm condition number of at least 1/(rows * eps), the
    tolerance ``np.linalg.matrix_rank`` applies to singular values.
    """
    try:
        tab = _Tableau(a, b, start)
    except np.linalg.LinAlgError:
        return None
    cond = np.linalg.norm(a.columns(start), 1) * np.linalg.norm(tab.b_inv, 1)
    if cond * len(start) * np.finfo(float).eps >= 1.0:
        return None
    if np.any(tab.b_inv @ b < -FEAS_TOL):
        return None
    return tab


def solve(lp: StandardFormLp, start: Sequence[int] | None = None) -> LpSolution:
    """Solve the LP with a two-phase revised simplex.

    ``start`` optionally names one structural column per row.  When those
    columns form a nonsingular basis whose basic solution is nonnegative
    within ``FEAS_TOL``, phase 1 is skipped; otherwise the solve proceeds as
    without it.  Both phases together take at most ``DEFAULT_MAX_ITER``
    pivots, the module constant as it is at the call, and end with
    ITERATION_LIMIT beyond it.  A basis found singular on refactorization ends the solve with
    NUMERICAL.  Deterministic for fixed inputs: pricing scans blocks in a
    fixed order and all tie-breaking is index-based, so repeated calls
    return the same basis.
    """
    rows, cols = lp.n_rows, lp.n_cols
    if start is not None:
        start = _check_start(start, rows, cols)
    a, b = _rows_of(lp), lp.rhs
    try:
        tab = None if start is None else _crash_tableau(a, b, start)
        phase1 = 0
        if tab is None:
            # Phase 1: an implicit artificial on every row, maximize minus their sum.
            tab = _Tableau(a, b, list(range(cols, cols + rows)))
            outcome, phase1 = _run_phase(
                tab, np.zeros(cols), DEFAULT_MAX_ITER, artificial_cost=-1.0
            )
            if outcome == "iter_limit":
                return _finish(lp, tab, cols, LpStatus.ITERATION_LIMIT, phase1, phase1)
            artificial_mass = sum(
                tab.x_b[r] for r in range(len(tab.basis)) if tab.basis[r] >= cols
            )
            if artificial_mass > FEAS_TOL:
                return LpSolution(
                    LpStatus.INFEASIBLE, float("nan"), _empty_primal(cols),
                    list(tab.basis), phase1, phase1,
                )
            _drive_out_artificials(tab)

        outcome, phase2 = _run_phase(tab, lp.objective, DEFAULT_MAX_ITER - phase1)
        if outcome == "unbounded":
            return LpSolution(
                LpStatus.UNBOUNDED, float("inf"), _empty_primal(cols),
                list(tab.basis), phase1 + phase2, phase1,
            )
        status = LpStatus.OPTIMAL if outcome == "optimal" else LpStatus.ITERATION_LIMIT
        return _finish(lp, tab, cols, status, phase1 + phase2, phase1)
    except np.linalg.LinAlgError:
        return LpSolution(LpStatus.NUMERICAL, float("nan"), _empty_primal(cols), [], 0)


def _finish(lp, tab, n_struct, status, iterations, phase1) -> LpSolution:
    """The solution on the final basis, refactorized in column-index order so
    that the primal's bits depend on the basis set, not on the pivots that
    reached it; ``basis`` keeps the pivot order."""
    basis = list(tab.basis)
    tab.basis = sorted(basis)
    tab.refactor()
    idx, vals = [], []
    for r, j in enumerate(tab.basis):
        if j < n_struct:
            idx.append(j)
            vals.append(max(tab.x_b[r], 0.0))
    primal = SparseVector(n_struct, np.asarray(idx, dtype=np.intp), np.asarray(vals))
    obj = float(lp.objective[primal.indices] @ primal.values) if primal.nnz else 0.0
    return LpSolution(status, obj, primal, basis, iterations, phase1)


def write_lp(lp: StandardFormLp, path) -> None:
    """Dump the program in the plain-text interchange format.

    Line 1: ``rows=<R> cols=<C>``.  Line 2: the C objective coefficients.
    Lines 3..R+2: the C coefficients of each equality row followed by its
    right-hand side.  All numbers use 17 significant digits.
    """
    def fmt(values):
        return " ".join(f"{v:.17g}" for v in values)

    a, n = _rows_of(lp), lp.n_cols
    with open(path, "w", encoding="ascii") as fh:
        fh.write(f"rows={lp.n_rows} cols={n}\n")
        fh.write(fmt(lp.objective) + "\n")
        for r in range(lp.n_rows):
            # the rows are expanded one block of columns at a time
            row = " ".join(
                fmt(a.columns(np.arange(lo, min(lo + _PRICING_BLOCK, n)))[r])
                for lo in range(0, n, _PRICING_BLOCK)
            )
            fh.write(row + " " + f"{lp.rhs[r]:.17g}" + "\n")
