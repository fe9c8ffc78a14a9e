"""Dense two-phase revised simplex for equality-form LPs with few rows.

The decomposition programs solved in this package have a handful of equality
rows (one per population plus normalization) and up to several hundred
thousand columns, so the cost of a pivot is dominated by pricing.  Pricing is
vectorized over column blocks (partial pricing, Dantzig rule within a block);
the basis inverse is kept dense and refactorized periodically.  Cycling at
degenerate vertices is handled by a lexicographic ratio test with a fallback
to Bland's rule after a run of degenerate pivots, kept until the next pivot
that moves the objective.  Bland's rule and the drive-out of the phase-1
artificials read the same blocks, from the first, so no pricing reads more
than one block.

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


def _checked_view(name: str, arr: np.ndarray) -> np.ndarray:
    """A read-only view of a finite array.

    The check reads the array's least and greatest entries, which are nan
    or infinite when any entry is, so it allocates no mask as long as the
    array.  The solver reads the program's arrays without copying, and one
    matrix may be shared by many programs.  The caller's own array keeps
    its flags.
    """
    if arr.size and not np.isfinite((arr.min(), arr.max())).all():
        raise ValueError(f"{name} contains non-finite entries")
    view = arr.view()
    view.setflags(write=False)
    return view


class _DenseRows:
    """A dense row matrix, read in place through the solver's three
    members."""

    def __init__(self, a: np.ndarray):
        self.a = a
        self.shape = a.shape

    def dot(self, y: np.ndarray, lo: int, hi: int) -> np.ndarray:
        return y @ self.a[:, lo:hi]

    def columns(self, idx) -> np.ndarray:
        return self.a.take(idx, axis=1)


def _rows_of(lp: StandardFormLp):
    """The program's row matrix as the solver reads it."""
    a = lp.row_matrix
    return _DenseRows(a) if isinstance(a, np.ndarray) else a


@dataclass(frozen=True)
class StandardFormLp:
    """maximize objective·q  subject to  row_matrix·q = rhs,  q >= 0.

    The row matrix is an array, checked to be finite and stored as a
    read-only view, or any row matrix with the solver's three members,
    stored as it is: a lattice program's is its grid.  The objective and
    rhs are always checked to be finite and stored as read-only views.  So
    ``dataclasses.replace(lp, rhs=...)`` is the same program on another
    right-hand side, sharing its row matrix.
    """

    objective: np.ndarray
    row_matrix: np.ndarray
    rhs: np.ndarray

    def __post_init__(self):
        c = np.asarray(self.objective, dtype=float)
        a = self.row_matrix
        if not hasattr(a, "columns"):
            a = np.asarray(a, dtype=float)
            if a.ndim != 2:
                raise ValueError("row_matrix must be 2-d")
        b = np.asarray(self.rhs, dtype=float)
        rows, cols = a.shape
        if c.shape != (cols,) or b.shape != (rows,):
            raise ValueError(
                f"shape mismatch: A is {a.shape}, c is {c.shape}, b is {b.shape}"
            )
        if rows > cols:
            raise ValueError(f"need at least as many columns as rows ({rows}x{cols})")
        for name, arr in (("objective", c), ("row_matrix", a), ("rhs", b)):
            if isinstance(arr, np.ndarray):
                object.__setattr__(self, name, _checked_view(name, arr))

    @property
    def n_rows(self) -> int:
        return self.row_matrix.shape[0]

    @property
    def n_cols(self) -> int:
        return self.row_matrix.shape[1]


@dataclass(frozen=True)
class LpSolution:
    """Result of :func:`solve`.

    The primal point is ``indices``, its basic structural columns in
    ascending column order, and ``values``, theirs; every other column is
    zero.  ``basis`` keeps the order the pivots reached, artificials
    included.  ``iterations`` counts all pivots and ``phase1_iterations``
    those spent finding a feasible basis, 0 when the ``start`` basis was
    accepted.  Only an OPTIMAL solution has a primal point: any other has
    an empty one and the objective inf if UNBOUNDED, else nan.  An
    ITERATION_LIMIT solution keeps the basis it stopped on, artificials
    included; a NUMERICAL one has no basis or pivot count."""

    status: LpStatus
    objective_value: float
    indices: np.ndarray
    values: np.ndarray
    basis: list[int]
    iterations: int
    phase1_iterations: int


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
    ``tol``.  Under Bland's rule the scan starts at block 0 and takes the
    first eligible column of the first block that holds one, which is the
    smallest eligible index; the cursor stays where it was.
    """
    n = a.shape[1]
    lo = start = 0 if bland else cursor
    while True:
        hi = min(lo + block, n)
        d = _price_block(c, a, y, lo, hi)
        j = int(np.argmax(d > tol) if bland else d.argmax())
        if d[j] > tol:
            return lo + j, cursor if bland else lo
        lo = hi if hi < n else 0
        if lo == start:
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
) -> tuple[LpStatus, int]:
    """Iterate to optimality of c over the current feasible basis, taking at
    most ``pivots_left`` pivots.

    ``c`` covers the structural columns of ``tab.a``, the only ones priced;
    a basic artificial costs ``artificial_cost``.  Returns the outcome
    (OPTIMAL, UNBOUNDED or ITERATION_LIMIT) and the number of pivots taken.
    """
    n = tab.a.shape[1]
    bland = False
    stalls = 0
    cursor = 0
    since_refactor = 0
    pivots = 0
    while True:
        c_b = np.array([c[j] if j < n else artificial_cost for j in tab.basis])
        y = tab.b_inv.T @ c_b
        entering, cursor = _choose_entering(
            c, tab.a, y, cursor, _PRICING_BLOCK, FEAS_TOL, bland
        )
        if entering < 0:
            return LpStatus.OPTIMAL, pivots
        # the limit stops a pivot, not the pricing that proves optimality
        if pivots >= pivots_left:
            return LpStatus.ITERATION_LIMIT, pivots
        w = tab.b_inv @ tab.a.columns(entering)
        leaving = _choose_leaving(tab, w, bland)
        if leaving < 0:
            return LpStatus.UNBOUNDED, pivots
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

    The artificial of row ``r`` is replaced by the first column outside the
    basis whose entry in row r of B^-1 A exceeds 1e-8 in magnitude, priced
    one block at a time.  An artificial that no structural column can
    replace belongs to a row that depends on the others: its row of
    B^-1 A is zero, so it stays basic at zero and no pivot moves it.  An
    artificial never re-enters, so the one for row ``r`` sits at basis
    position ``r``.
    """
    n = tab.a.shape[1]
    for r in range(len(tab.basis)):
        if tab.basis[r] < n:
            continue
        in_basis = set(tab.basis)
        for lo in range(0, n, _PRICING_BLOCK):
            row = tab.a.dot(tab.b_inv[r], lo, min(lo + _PRICING_BLOCK, n))
            nonzero = lo + np.flatnonzero(np.abs(row) > 1e-8)
            entering = next((int(j) for j in nonzero if j not in in_basis), -1)
            if entering >= 0:
                tab.pivot(entering, r, tab.b_inv @ tab.a.columns(entering))
                break
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
    ITERATION_LIMIT beyond it.  A basis found singular on refactorization
    ends the solve with NUMERICAL.  Deterministic for fixed inputs: pricing
    scans blocks in a fixed order and all tie-breaking is index-based, so
    repeated calls return the same basis.
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
            status, phase1 = _run_phase(
                tab, np.zeros(cols), DEFAULT_MAX_ITER, artificial_cost=-1.0
            )
            if status is LpStatus.ITERATION_LIMIT:
                return _finish(lp, tab, status, phase1, phase1)
            artificial_mass = sum(
                tab.x_b[r] for r in range(len(tab.basis)) if tab.basis[r] >= cols
            )
            if artificial_mass > FEAS_TOL:
                return _finish(lp, tab, LpStatus.INFEASIBLE, phase1, phase1)
            _drive_out_artificials(tab)

        status, phase2 = _run_phase(tab, lp.objective, DEFAULT_MAX_ITER - phase1)
        return _finish(lp, tab, status, phase1 + phase2, phase1)
    except np.linalg.LinAlgError:
        return _finish(lp, None, LpStatus.NUMERICAL, 0, 0)


def _finish(lp, tab, status, iterations, phase1) -> LpSolution:
    """The solution on the final basis.  An OPTIMAL basis is refactorized
    in column-index order, so that the primal's bits depend on the basis
    set, not on the pivots that reached it, and its structural columns come
    out in that order; ``basis`` keeps the pivot order.  Any other status
    has no primal point, and no basis without a tableau."""
    basis = [] if tab is None else list(tab.basis)
    indices, values = np.empty(0, dtype=np.intp), np.empty(0)
    if status is not LpStatus.OPTIMAL:
        objective = float("inf" if status is LpStatus.UNBOUNDED else "nan")
    else:
        tab.basis = sorted(basis)
        tab.refactor()
        indices = np.asarray(tab.basis, dtype=np.intp)
        structural = indices < lp.n_cols
        indices, values = indices[structural], tab.x_b[structural]
        objective = float(lp.objective[indices] @ values)
    return LpSolution(status, objective, indices, values, basis, iterations, phase1)


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
