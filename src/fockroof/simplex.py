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

The solver reads every row matrix as a :class:`RunMatrix`: its first p rows
are constant along runs of consecutive columns and the other rows vary per
column, and a block is priced as
``c - (repeat(y[:p] @ run_rows[:, runs of the block]) + y[p:] @ col_rows)``.
A lattice program (``grid.AmplitudeGrid``) has p = M - 1: a ones row, which
is not stored, and the M - 2 squared prefix coordinates, stored per run as
small integer codes into one table of squares; its one column row, the
last coordinate's square, is a code per column into the same table.  A
block decodes only its own runs, into the float (p, runs) block that
``y[:p] @`` reads, and prices the column row as ``take(y[p] * table,
codes)``, one product per column and the same bits as ``y[p] * values``.
So pricing reads one byte per column besides the objective, and the run
rows M - 2 bytes per run.  A dense program is the case p = 0 with one run
and no table, priced as ``c - y @ A`` bit for bit.  Basis and entering
columns are gathered through the run starts.

Phase 1 adds one artificial per row without storing it: a basis index
``j >= n_cols`` stands for the unit column ``e_(j - n_cols)``, and only the
structural columns are priced, so an artificial that leaves never re-enters.
Both phases read the caller's row matrix; when some right-hand side is
negative, its rows are flipped by signs that each read applies, and the
arrays are shared."""

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


def _read_only(arr: np.ndarray) -> np.ndarray:
    """A read-only view of ``arr``.

    The solver reads the program's arrays without copying, and one matrix
    may be shared by many programs and threads.  The caller's own array
    keeps its flags.
    """
    view = arr.view()
    view.setflags(write=False)
    return view


def _checked_view(name: str, arr: np.ndarray) -> np.ndarray:
    """A read-only view of a finite array."""
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} contains non-finite entries")
    return _read_only(arr)


class RunMatrix:
    """A row matrix whose first p rows are constant along runs of columns.

    Run r is the columns ``starts[r] <= j < starts[r + 1]`` (the last run
    ends at the last column), and ``starts[0]`` is 0.  The rows are, in
    order:

    - with ``ones``, one row of ones, which is not stored;
    - the coded run rows: row i of every column of run r is
      ``table[run_codes[i, r]]``; these and the ones row are the p rows;
    - the column rows: row p + i of column j is ``col_rows[i, j]``, or
      ``table[col_rows[i, j]]`` when a ``table`` is given.

    With a table, every code is an integer, checked once here to lie in the
    table, and there is at most one column row; without one there are no
    run codes.  Row i is multiplied by ``signs[i]`` when ``signs`` are given
    (see :meth:`scaled`).  A dense matrix is the case with one run, no ones
    row and no table.  The arrays are held as read-only views.
    """

    def __init__(
        self,
        starts: np.ndarray,
        col_rows: np.ndarray,
        run_codes: np.ndarray | None = None,
        table: np.ndarray | None = None,
        ones: bool = False,
        signs: np.ndarray | None = None,
    ):
        if run_codes is None:
            run_codes = np.empty((0, starts.size), dtype=np.uint8)
        if table is None:
            if len(run_codes):
                raise ValueError("coded run rows need a table")
        else:
            if col_rows.shape[0] > 1:
                raise ValueError("a coded matrix has at most one column row")
            for codes in (run_codes, col_rows):
                if codes.dtype.kind not in "iu":
                    raise ValueError(f"codes are {codes.dtype}, not integer")
                if codes.size and (
                    np.max(codes) >= table.size or codes.dtype.kind == "i" and np.min(codes) < 0
                ):
                    raise ValueError(f"codes must lie in [0, {table.size})")
        self.starts = _read_only(starts)
        self.col_rows = _read_only(col_rows)
        self.run_codes = _read_only(run_codes)
        self.table = None if table is None else _read_only(table)
        self.ones = int(ones)
        self.signs = None if signs is None else _read_only(signs)
        self._p = self.ones + len(run_codes)
        # see _priced_runs; a race between threads stores a value twice or
        # replaces the last block early
        self._spans: dict[tuple[int, int], tuple[slice, np.ndarray]] = {}
        self._last: tuple = (None, None, None)

    @property
    def shape(self) -> tuple[int, int]:
        return self._p + self.col_rows.shape[0], self.col_rows.shape[1]

    def span(self, lo: int, hi: int) -> tuple[slice, np.ndarray]:
        """The runs that meet columns lo:hi, and how many of those columns
        each of them holds."""
        first = int(self.starts.searchsorted(lo, side="right")) - 1
        end = int(self.starts.searchsorted(hi))
        edges = np.empty(end - first + 1, dtype=np.intp)
        edges[0], edges[1:-1], edges[-1] = lo, self.starts[first + 1 : end], hi
        return slice(first, end), edges[1:] - edges[:-1]

    def _priced_runs(self, lo: int, hi: int) -> tuple[np.ndarray, np.ndarray]:
        """How many of columns lo:hi each of their runs holds, and the runs'
        decoded rows.  A pricing block keeps its span for its next pricing,
        and the last block priced keeps its run rows too: each pivot prices
        first the block where the previous one found its entering column.
        A wider scan keeps nothing, so what is kept stays about one count
        per run and one block's run rows."""
        key = (lo, hi)
        if self._last[0] == key:
            return self._last[1:]
        if hi - lo > _PRICING_BLOCK:
            runs, counts = self.span(lo, hi)
            return counts, self._run_values(runs)
        span = self._spans.get(key)
        if span is None:
            span = self._spans[key] = self.span(lo, hi)
        runs, counts = span
        self._last = (key, counts, self._run_values(runs))
        return self._last[1:]

    def _run_values(self, runs) -> np.ndarray:
        """The (p, runs) float run rows of the slice ``runs``, before signs:
        only those runs are decoded, in one gather."""
        codes = self.run_codes[:, runs]
        out = np.empty((self._p, codes.shape[1]))
        if self.ones:
            out[0].fill(1.0)
        if len(codes):
            self.table.take(codes, out=out[self.ones :])
        return out

    def _signed(self, out: np.ndarray) -> np.ndarray:
        """``out``, a new array of rows, with row i multiplied by signs[i]."""
        if self.signs is not None:
            out *= self.signs.reshape(-1, *(1,) * (out.ndim - 1))
        return out

    def dot(self, y: np.ndarray, lo: int, hi: int) -> np.ndarray:
        """``y @ A[:, lo:hi]``: the run rows' products once per run, repeated
        over its columns, plus the column rows' products."""
        if self.signs is not None:
            # (y_i * s_i) * a is the same bits as y_i * (s_i * a) for ±1
            y = y * self.signs
        p = self._p
        cols = self.col_rows[:, lo:hi]
        if self.table is not None:
            # one product per table entry, gathered: the same bits as the
            # product of y[p] with each column's value
            out = (y[p] * self.table).take(cols[0]) if len(cols) else np.zeros(hi - lo)
        elif len(cols) == 1:
            # the same bits as matmul, which has no BLAS path for a single
            # row; np.dot copies a matrix whose rows are strided
            out = np.dot(y[p:], cols)
        else:
            out = y[p:] @ cols
        if p:
            counts, values = self._priced_runs(lo, hi)
            out += (y[:p] @ values).repeat(counts)
        return out

    def columns(self, idx) -> np.ndarray:
        """The dense columns ``A[:, idx]``: one column for an integer index,
        a matrix for an index sequence."""
        runs = self.starts.searchsorted(idx, side="right") - 1
        out = np.empty((self.shape[0], *runs.shape))
        out[: self.ones] = 1.0
        if self.table is None:
            out[self._p :] = self.col_rows[:, idx]
        else:
            codes = self.run_codes[:, runs]
            self.table.take(codes, out=out[self.ones : self._p])
            self.table.take(self.col_rows[:, idx], out=out[self._p :])
        return self._signed(out)

    def block(self, lo: int, hi: int) -> np.ndarray:
        """The dense columns ``A[:, lo:hi]``."""
        runs, counts = self.span(lo, hi)
        cols = self.col_rows[:, lo:hi]
        if self.table is not None:
            cols = self.table.take(cols)
        out = np.concatenate((np.repeat(self._run_values(runs), counts, axis=1), cols))
        return self._signed(out)

    def scaled(self, signs: np.ndarray) -> RunMatrix:
        """The matrix with row i multiplied by ``signs[i]``, each ±1, which
        every read applies exactly; the arrays are shared, not copied."""
        if self.signs is not None:
            signs = self.signs * signs
        return RunMatrix(
            self.starts, self.col_rows, self.run_codes, self.table, self.ones, signs
        )

    def rows(self, keep: Sequence[int]) -> RunMatrix:
        """The rows ``keep``, in increasing order."""
        keep = np.asarray(keep, dtype=np.intp)
        c, p = self.ones, self._p
        return RunMatrix(
            self.starts,
            self.col_rows[keep[keep >= p] - p],
            self.run_codes[keep[(keep >= c) & (keep < p)] - c],
            self.table,
            bool(c and np.any(keep == 0)),
            None if self.signs is None else self.signs[keep],
        )


def _run_form(row_matrix) -> RunMatrix:
    """A program's row matrix as the solver reads it; a dense array is one
    run with no run rows, not copied."""
    if isinstance(row_matrix, RunMatrix):
        return row_matrix
    return RunMatrix(np.zeros(1, dtype=np.intp), row_matrix)


@dataclass(frozen=True)
class StandardFormLp:
    """maximize objective·q  subject to  row_matrix·q = rhs,  q >= 0.

    The public constructor takes three arrays and stores them as read-only
    views, each checked to be finite.  A lattice program's row matrix is the
    grid's :class:`RunMatrix` instead.
    """

    objective: np.ndarray
    row_matrix: np.ndarray | RunMatrix
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
        array or a :class:`RunMatrix`) that are finite by construction and of
        matching shapes, neither copied nor scanned; only ``rhs`` is
        checked."""
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
    ``start`` basis was accepted."""

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

    ``a`` is a :class:`RunMatrix`.  A basis index ``j >= a.shape[1]`` is the
    phase-1 artificial column ``e_(j - a.shape[1])``; artificial columns are
    never stored.
    """

    def __init__(self, a, b, basis):
        self.a = a
        self.b = b
        self.basis = basis
        self.refactor()

    def refactor(self):
        rows, n = self.a.shape
        basis = np.asarray(self.basis)
        artificial = basis >= n
        b_mat = np.zeros((rows, rows))
        b_mat[:, ~artificial] = self.a.columns(basis[~artificial])
        b_mat[basis[artificial] - n, np.nonzero(artificial)[0]] = 1.0
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
    """Ratio test.  Ties break lexicographically on rows of [x_B | B^-1],
    or by smallest basis index under Bland's rule."""
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
        vals = tab.b_inv[sel, col] / w[sel]
        sel = sel[vals <= vals.min() + 1e-14]
        if sel.size == 1:
            break
    return int(sel[0])


def _run_phase(tab: _Tableau, c, pivots_left: int) -> tuple[str, int]:
    """Iterate to optimality of c over the current feasible basis, taking at
    most ``pivots_left`` pivots.

    ``c`` covers the basis indices; only the structural columns of
    ``tab.a`` are priced.  Returns the outcome ("optimal", "unbounded" or
    "iter_limit") and the number of pivots taken.
    """
    bland = False
    stalls = 0
    cursor = 0
    since_refactor = 0
    pivots = 0
    while True:
        if pivots >= pivots_left:
            return "iter_limit", pivots
        y = tab.b_inv.T @ c[tab.basis]
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

    Rows whose artificial cannot be replaced by any structural column are
    linearly dependent on the rest and are dropped.  An artificial never
    re-enters, so the one for row ``r`` sits at basis position ``r``.
    """
    n_struct = tab.a.shape[1]
    drop = []
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
        else:
            drop.append(r)
    if drop:
        keep = [r for r in range(len(tab.basis)) if r not in drop]
        tab.a = tab.a.rows(keep)
        tab.b = tab.b[keep]
        tab.basis = [tab.basis[r] for r in keep]
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


def solve(
    lp: StandardFormLp,
    max_iter: int = DEFAULT_MAX_ITER,
    start: Sequence[int] | None = None,
) -> LpSolution:
    """Solve the LP with a two-phase revised simplex.

    ``start`` optionally names one structural column per row.  When those
    columns form a nonsingular basis whose basic solution is nonnegative
    within ``FEAS_TOL``, phase 1 is skipped; otherwise the solve proceeds as
    without it.  Deterministic for fixed inputs: pricing scans blocks in a
    fixed order and all tie-breaking is index-based, so repeated calls return
    the same basis.
    """
    if max_iter <= 0:
        raise ValueError("max_iter must be positive")

    rows, cols = lp.n_rows, lp.n_cols
    if start is not None:
        start = _check_start(start, rows, cols)
    a, b = _run_form(lp.row_matrix), lp.rhs
    if np.any(b < 0):
        signs = np.where(b < 0, -1.0, 1.0)
        a, b = a.scaled(signs), b * signs

    tab = None if start is None else _crash_tableau(a, b, start)
    phase1 = 0
    if tab is None:
        # Phase 1: an implicit artificial on every row, maximize minus their sum.
        c_phase1 = np.concatenate([np.zeros(cols), -np.ones(rows)])
        tab = _Tableau(a, b, list(range(cols, cols + rows)))
        outcome, phase1 = _run_phase(tab, c_phase1, max_iter)
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

    outcome, phase2 = _run_phase(tab, lp.objective, max_iter - phase1)
    if outcome == "unbounded":
        return LpSolution(
            LpStatus.UNBOUNDED, float("inf"), _empty_primal(cols),
            list(tab.basis), phase1 + phase2, phase1,
        )
    status = LpStatus.OPTIMAL if outcome == "optimal" else LpStatus.ITERATION_LIMIT
    return _finish(lp, tab, cols, status, phase1 + phase2, phase1)


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

    a, n = _run_form(lp.row_matrix), lp.n_cols
    with open(path, "w", encoding="ascii") as fh:
        fh.write(f"rows={lp.n_rows} cols={n}\n")
        fh.write(fmt(lp.objective) + "\n")
        for r in range(lp.n_rows):
            # the rows are expanded one block of columns at a time
            row = " ".join(
                fmt(a.block(lo, min(lo + _PRICING_BLOCK, n))[r])
                for lo in range(0, n, _PRICING_BLOCK)
            )
            fh.write(row + " " + f"{lp.rhs[r]:.17g}" + "\n")


def read_lp(path) -> StandardFormLp:
    """Parse a file written by :func:`write_lp`."""
    with open(path, encoding="ascii") as fh:
        header = fh.readline().split()
        rows = int(header[0].split("=")[1])
        cols = int(header[1].split("=")[1])
        c = np.array([float(t) for t in fh.readline().split()])
        a = np.empty((rows, cols))
        b = np.empty(rows)
        for r in range(rows):
            parts = [float(t) for t in fh.readline().split()]
            a[r] = parts[:cols]
            b[r] = parts[cols]
    return StandardFormLp(objective=c, row_matrix=a, rhs=b)
