"""Lattice discretization of the decomposition amplitude space.

A pure state on an M-level window is fixed (up to phases, which are dealt
with after the optimization) by the nonnegative amplitudes of the M - 1
upper levels; the ground amplitude follows from normalization.  The grid
enumerates all vectors (l_1*delta, ..., l_{M-1}*delta) with nonnegative
integers l_k and sum of squares at most 1, in lexicographic order of the
integer tuples.  Full lattices and refinement boxes come from one
enumeration that builds the prefixes (l_1, ..., l_{M-2}) one coordinate at
a time, never makes a point outside the ball, and ends each prefix with one
run of consecutive values of the last coordinate.

A grid is the LP's row matrix and nothing else, coded, and the solver
reads it through three members (``shape``, ``dot`` and
``columns``).  Every coordinate is stored as its
integer step l, a code into the one table of the isqrt(L) + 1 squares
(l*delta)²: per run, the column where it starts and the M - 2 prefix steps;
per point, the step of the last coordinate.  The ones row is implicit.  A
code takes one byte while isqrt(L) <= 255, that is for delta above about
1/256.  The enumeration holds its coordinates, run lengths and budgets in
the narrowest unsigned dtypes too; only the run starts, and a few
transients per run, are eight bytes wide.  At rank 6 and delta = 0.05 that
is 58,201 runs for 662,629 points, 1.36 MB instead of the 31.8 MB of the
dense (M, N) matrix, or the 3.46 MB with float run rows.  Amplitudes are
recomputed from the squares where they are needed; the square root of a
correctly rounded square is exact, so they are the same bits as l_k*delta.
Callers name a point by its integer steps; only this module reads the
codes and the table.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from math import isqrt

import numpy as np

DEFAULT_MAX_POINTS = 5_000_000
# columns per block of the objective computation; a grid keeps what it
# decodes only for blocks up to this width, the solver's pricing block
_BLOCK = 16_384


class GridCapacityError(Exception):
    """Requested grid would exceed the point budget, ``DEFAULT_MAX_POINTS``."""

    def __init__(self, requested: int, budget: int, at_least: bool = False):
        bound = "at least " if at_least else ""
        super().__init__(
            f"grid would contain {bound}{requested} points, exceeding the budget of {budget}"
        )
        self.requested = requested
        self.budget = budget


def _lattice_radius_sq(delta: float) -> int:
    """Largest integer L with L*delta^2 <= 1.

    The relative epsilon keeps endpoint lattice points (e.g. x = 1.0 for
    delta = 0.01) that exact-decimal spacings would otherwise lose to float
    rounding of 1/delta^2.
    """
    if not 0.0 < delta < 1.0:
        raise ValueError(f"delta must lie in (0, 1), got {delta}")
    return int((1.0 + 1e-12) / (delta * delta) + 1e-9)


def count_grid_points(rank: int, delta: float) -> int:
    """Number of lattice points for the given window rank, without building them.

    Up to M = 4 the count is the total length of the lattice's runs, one
    per prefix of at most two coordinates.  From M = 5 the points of two
    free coordinates are enumerated, leaving the budgets
    ``left = L - (their squares)`` for the rest: ``counts[j]``, the number
    of points of the other M - 3 free coordinates with sum of squares at
    most j, starts from one coordinate's ``isqrt(j) + 1`` and is convolved
    with the squares once per further coordinate.
    """
    if rank < 2:
        raise ValueError(f"rank must be >= 2, got {rank}")
    limit = _lattice_radius_sq(delta)
    top = isqrt(limit)
    if rank <= 4:
        return int(_ball_runs(limit, [0] * (rank - 1), [top] * (rank - 1))[1].sum())
    (l1,), runs = _ball_runs(limit, [0, 0], [top, top])
    # the squares are looked up in intp, where no sum of them wraps
    squares = np.square(np.arange(top + 1, dtype=np.intp))
    left = limit - np.repeat(squares[l1], runs) - squares[_runs(0, runs)]
    counts = _isqrt(np.arange(limit + 1), np.intp) + 1
    for _ in range(rank - 4):
        acc = np.zeros(limit + 1, dtype=np.intp)
        for sq in squares:
            acc[sq:] += counts[: limit + 1 - sq]
        counts = acc
    return int(counts[left].sum())


def checked_count(rank: int, delta: float) -> int:
    """:func:`count_grid_points`, raising :class:`GridCapacityError` past
    ``DEFAULT_MAX_POINTS``.

    An exact count of rank >= 4 holds arrays of about L entries (L = the
    squared lattice radius).  Where L + 1 is more than the budget, the
    volume of the positive-orthant ball of radius sqrt(L) is checked first:
    the unit cells [l, l + 1) of the lattice points cover that ball, so the
    count is at least its volume.
    """
    limit = _lattice_radius_sq(delta)
    if rank >= 4 and limit + 1 > DEFAULT_MAX_POINTS:
        dims = rank - 1
        log_volume = (
            dims / 2 * math.log(math.pi * limit)
            - math.lgamma(dims / 2 + 1)
            - dims * math.log(2.0)
        )
        # rounded down to stay a lower bound; e^700 exceeds any budget
        bound = math.ceil(math.exp(min(log_volume, 700.0)) * (1.0 - 1e-9))
        if bound > DEFAULT_MAX_POINTS:
            raise GridCapacityError(bound, DEFAULT_MAX_POINTS, at_least=True)
    n = count_grid_points(rank, delta)
    if n > DEFAULT_MAX_POINTS:
        raise GridCapacityError(n, DEFAULT_MAX_POINTS)
    return n


def grid_nbytes(rank: int, delta: float, points: int) -> int:
    """Bytes of the arrays of a rank-M grid of ``points`` points, without
    building it: per run, its start and the M - 2 prefix codes; per point,
    one code; and the table of squares.  A code is one or two bytes, the
    smallest unsigned dtype of isqrt(L).  The runs are the points of the
    rank M - 1 lattice, one run at rank 2."""
    top = isqrt(_lattice_radius_sq(delta))
    runs = count_grid_points(rank - 1, delta) if rank > 2 else 1
    code = np.min_scalar_type(top).itemsize
    return 8 * runs + (rank - 2) * runs * code + points * code + 8 * (top + 1)


def _isqrt(values: np.ndarray, dtype) -> np.ndarray:
    """Elementwise floor(sqrt(v)) of nonnegative integers, as ``dtype``.

    Exact below 2**52, where every integer is a double and the correctly
    rounded root of one never reaches the next integer; a budget that large
    needs a spacing below 2**-26.
    """
    return np.sqrt(values, dtype=float).astype(dtype)


def _runs(first, counts: np.ndarray, dtype=np.int64) -> np.ndarray:
    """``f, f + 1, ..., f + c - 1`` for each run's first value f (one for all
    runs or one per run) and count c >= 1 in turn, as one array of ``dtype``:
    unit steps with a jump at each run's start, summed in place.  The jumps
    are made in intp, where no difference wraps; in an unsigned dtype a
    negative jump then wraps, but the sum is exact modulo 2**bits, so every
    value that fits the dtype comes out right."""
    first = np.broadcast_to(first, counts.shape)
    steps = np.ones(int(counts.sum()), dtype=dtype)
    jumps = np.subtract(first[1:], first[:-1], dtype=np.intp)
    jumps -= counts[:-1]
    jumps += 1
    jumps = jumps.astype(dtype)
    steps[np.cumsum(counts[:-1], dtype=np.intp)] = jumps
    steps[:1] = first[:1]
    return np.cumsum(steps, out=steps)


def _ball_runs(limit: int, lo, hi) -> tuple[list[np.ndarray], np.ndarray]:
    """Integer points of the box ``lo <= l <= hi`` with sum of squares at
    most ``limit``, in lexicographic order, as runs of the last coordinate.

    Returns ``(prefix, counts)``: ``prefix[k - 1]`` holds l_k of each run for
    k = 1..d-1, and the run's points are those prefixes followed by
    ``lo[-1], ..., lo[-1] + counts - 1``.  The prefixes are built one
    coordinate at a time, each repeated once for each admissible value of
    the next coordinate, in increasing order.  A value is admissible when
    the box's lower corner in the remaining coordinates still fits in the
    ball, so every prefix extends to a point and no point outside the ball
    is ever made.  Coordinates are held in the smallest unsigned dtype of
    isqrt(limit), run lengths in that of isqrt(limit) + 1 and the budgets
    left in that of ``limit``.
    """
    top = isqrt(limit)
    coord_type = np.min_scalar_type(top)
    count_type = np.min_scalar_type(top + 1)
    lo = [int(v) for v in lo]
    hi = [min(int(v), top) for v in hi]
    # tail[k]: squared norm of the lower corner in coordinates k, k+1, ...
    tail = [0] * (len(lo) + 1)
    for k in range(len(lo) - 1, -1, -1):
        tail[k] = tail[k + 1] + lo[k] * lo[k]
    if tail[0] > limit:  # the box misses the ball
        return [np.empty(0, coord_type)] * (len(lo) - 1), np.empty(0, count_type)
    # one budget left per prefix, at least the tail of the coordinates after it
    left = np.array([limit], dtype=np.min_scalar_type(limit))
    prefix: list[np.ndarray] = []
    for k in range(len(lo)):
        # admissible values of coordinate k after each prefix
        counts = np.minimum(_isqrt(left - tail[k + 1], count_type), hi[k])
        counts -= lo[k]
        counts += 1
        if k + 1 == len(lo):
            return prefix, counts
        coord = _runs(lo[k], counts, coord_type)
        prefix = [np.repeat(col, counts) for col in prefix]
        prefix.append(coord)
        left = np.repeat(left, counts)
        left -= np.square(coord, dtype=left.dtype)


def _ground(squares: np.ndarray, out: np.ndarray) -> np.ndarray:
    """x0 = sqrt(max(0, 1 - sum_k squares[k])) into ``out``, the sum taken
    left to right from zero."""
    out.fill(0.0)
    for sq in squares:
        out += sq
    np.subtract(1.0, out, out=out)
    np.clip(out, 0.0, None, out=out)
    return np.sqrt(out, out=out)


class AmplitudeGrid:
    """Lattice points for one window rank and spacing, as the LP's row matrix.

    The matrix has shape (rank, n_points), and its rows are, in order: one
    row of ones, which is not stored; the M - 2 prefix rows, constant along
    each run of consecutive columns, row k of run r being
    ``squares[run_codes[k - 1, r]]``; and the last row, ``squares[codes[j]]``
    for column j.  Run r is the columns ``starts[r] <= j < starts[r + 1]``
    (the last run ends at the last column), and ``starts[0]`` is 0.  Every
    code is a step l, in the smallest unsigned dtype that holds isqrt(L),
    and ``squares`` is the table of (l*delta)², l = 0..isqrt(L).  These four
    read-only arrays are the grid's data; besides them it keeps only caches
    of what pricing decoded.

    The grid is built from ``prefix``, the M - 2 integer prefix coordinates
    of each run, ``first``, each run's first last coordinate (one value for
    all runs or one per run), and ``counts``, each run's length.  The
    spacing must lie in (0, 1) and the coordinates are integers in
    [0, isqrt(L)], so every code lies in the table and the rows are finite
    by construction.

    A block of columns is priced by decoding only its own runs into the
    float prefix rows that ``y[:-1] @`` reads, and the last row as
    ``take(y[-1] * squares, codes)``: one product per table entry and the
    same bits as the product with each column's value.  So pricing reads
    one code per column and M - 2 per run.
    """

    def __init__(self, rank: int, delta: float, prefix, first, counts):
        self.rank = rank
        self.delta = float(delta)
        top = isqrt(_lattice_radius_sq(self.delta))  # checks the spacing
        if len(prefix) != rank - 2:
            raise ValueError(f"need {rank - 2} prefix coordinates, got {len(prefix)}")
        for col in (*prefix, np.asarray(first), counts):
            if col.dtype.kind not in "iu":
                raise ValueError(f"lattice coordinates are {col.dtype}, not integer")
        # each run's last coordinate, widened so that no sum wraps, and
        # freed before the codes are made
        ends = np.add(first, counts, dtype=np.intp) - 1
        for col in (*prefix, np.asarray(first), ends):
            if counts.size and (np.min(col) < 0 or np.max(col) > top):
                raise ValueError(f"lattice coordinates must lie in [0, {top}]")
        del ends
        code_type = np.min_scalar_type(top)
        self.run_codes = np.empty((rank - 2, counts.size), dtype=code_type)
        for row, col in zip(self.run_codes, prefix):
            row[:] = col
        self.starts = np.zeros(counts.size, dtype=np.intp)
        np.cumsum(counts[:-1], dtype=np.intp, out=self.starts[1:])
        self.codes = _runs(first, counts, dtype=code_type)
        # squares of the doubles l*delta, whose square roots give them back
        self.squares = np.arange(top + 1.0)
        np.multiply(self.squares, self.delta, out=self.squares)
        np.square(self.squares, out=self.squares)
        for arr in (self.run_codes, self.starts, self.codes, self.squares):
            arr.flags.writeable = False
        # the pricing caches; see _priced_runs
        self._spans: dict[tuple[int, int], tuple[slice, np.ndarray]] = {}
        self._last: tuple = (None, None, None)

    @property
    def n_points(self) -> int:
        return self.codes.size

    @property
    def shape(self) -> tuple[int, int]:
        return self.rank, self.codes.size

    def _span(self, lo: int, hi: int) -> tuple[slice, np.ndarray]:
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
        if hi - lo > _BLOCK:
            runs, counts = self._span(lo, hi)
            return counts, self._run_values(runs)
        span = self._spans.get(key)
        if span is None:
            span = self._spans[key] = self._span(lo, hi)
        runs, counts = span
        self._last = (key, counts, self._run_values(runs))
        return self._last[1:]

    def _run_values(self, runs) -> np.ndarray:
        """The float run rows, the ones row first, of the slice ``runs``:
        only those runs are decoded, in one gather."""
        codes = self.run_codes[:, runs]
        out = np.empty((len(codes) + 1, codes.shape[1]))
        out[0].fill(1.0)
        self.squares.take(codes, out=out[1:])
        return out

    def dot(self, y: np.ndarray, lo: int, hi: int) -> np.ndarray:
        """``y @ A[:, lo:hi]``: the run rows' products once per run, repeated
        over its columns, plus the last row's products."""
        # one product per table entry, gathered: the same bits as the
        # product of y[-1] with each column's value
        out = (y[-1] * self.squares).take(self.codes[lo:hi])
        counts, values = self._priced_runs(lo, hi)
        out += (y[:-1] @ values).repeat(counts)
        return out

    def steps(self, idx) -> np.ndarray:
        """The integer coordinates (l_1, ..., l_{M-1}) of the columns ``idx``,
        as codes: one column of steps for an integer index, one per index
        of a sequence."""
        runs = self.starts.searchsorted(idx, side="right") - 1
        return np.concatenate((self.run_codes[:, runs], self.codes[None, idx]))

    def columns(self, idx) -> np.ndarray:
        """The dense columns ``A[:, idx]``: one column for an integer index,
        a matrix for an index sequence."""
        steps = self.steps(idx)
        out = np.empty((self.rank, *steps.shape[1:]))
        out[0] = 1.0
        self.squares.take(steps, out=out[1:])
        return out

    def amplitudes(self, columns) -> np.ndarray:
        """(rank, len(columns)) amplitude vectors (x0, l_1*delta, ...) of the
        given points.  The square root of a correctly rounded square is
        exact, so row k gives back l_k*delta bit for bit."""
        squares = self.columns(columns)
        x = np.sqrt(squares)
        _ground(squares[1:], out=x[0])
        return x

    def column_index(self, steps) -> int:
        """Column of the point with integer coordinates ``steps`` =
        (l_1, ..., l_{M-1}), or -1 when the grid does not hold it.

        The codes are the steps, so the bisection compares codes and decodes
        nothing.  The runs are in lexicographic order of prefix and first
        step, so the last run at or before ``(prefix, l)`` is the only one
        that can hold the point, at ``l`` minus the run's first step past
        its start.  A point before every run, with another prefix or past
        the end of that run is not on the grid.
        """
        *head, l = steps
        prefix, starts, codes = self.run_codes, self.starts, self.codes
        r = bisect_right(
            range(starts.size),
            (*head, l),
            key=lambda r: (*prefix[:, r].tolist(), int(codes[starts[r]])),
        ) - 1
        if r < 0 or prefix[:, r].tolist() != head:
            return -1
        end = starts[r + 1] if r + 1 < starts.size else codes.size
        j = int(starts[r]) + l - int(codes[starts[r]])
        return j if j < end else -1

    def objective_coeffs(self, offset: int) -> np.ndarray:
        """Squared coherence kernel of every point for a window starting at offset.

        (sum_k x_k * x_{k+1} * sqrt(offset + k + 1))², in that operation
        order, one block of columns at a time: only the result is as long as
        the grid.  The prefix amplitudes and the prefix's part of the ground
        amplitude's sum of squares are computed once per run of a block and
        repeated over its columns.
        """
        scale = np.sqrt(offset + np.arange(1.0, self.rank))
        alpha = np.zeros(self.n_points)
        for lo in range(0, self.n_points, _BLOCK):
            hi = min(lo + _BLOCK, self.n_points)
            runs, counts = self._span(lo, hi)
            prefix = np.take(self.squares, self.run_codes[:, runs])
            last = np.take(self.squares, self.codes[lo:hi])
            acc = alpha[lo:hi]
            norm = np.zeros(counts.size)
            for sq in prefix:
                norm += sq
            a = _ground((np.repeat(norm, counts), last), out=np.empty(hi - lo))
            for k in range(1, self.rank):
                if k < self.rank - 1:
                    b = np.repeat(np.sqrt(prefix[k - 1]), counts)
                else:
                    b = np.sqrt(last)
                np.multiply(a, b, out=a)
                np.multiply(a, scale[k - 1], out=a)
                acc += a
                a = b
            np.square(acc, out=acc)
        return alpha


def build_grid(rank: int, delta: float) -> AmplitudeGrid:
    """Enumerate the full amplitude lattice for a rank-M window.

    Points are ordered lexicographically in the integer coordinates.  Raises
    :class:`GridCapacityError` before materializing anything too large.
    """
    if rank < 2:
        raise ValueError(f"rank must be >= 2, got {rank}")
    checked_count(rank, delta)
    limit = _lattice_radius_sq(delta)
    prefix, counts = _ball_runs(limit, [0] * (rank - 1), [isqrt(limit)] * (rank - 1))
    return AmplitudeGrid(rank, delta, prefix, 0, counts)


def neighborhood_grid(
    rank: int, delta: float, centers: np.ndarray, radius: float
) -> AmplitudeGrid:
    """Lattice points of spacing ``delta`` within a per-coordinate radius of
    the given centers (rows of free amplitudes).

    Each center is rounded to its nearest lattice point.  A center on the
    lattice of spacing 2*delta rounds to itself (halving a double is exact),
    so a histogram supported on the previous refinement level stays feasible
    on the refined grid.  Each box is enumerated inside the ball only, as
    runs of the last coordinate.  The boxes' runs are sorted by prefix and
    first value, and the runs of one prefix that overlap or touch are merged
    into one, so a point shared by several boxes is kept once and the grid
    is in lexicographic order.  This work is one entry per run, not per
    point.
    """
    limit = _lattice_radius_sq(delta)
    steps = int(round(radius / delta))
    mids = np.rint(np.atleast_2d(centers) / delta).astype(np.int64)
    boxes = [_ball_runs(limit, np.maximum(m - steps, 0), m + steps) for m in mids]
    prefix = [np.concatenate([box[0][k] for box in boxes]) for k in range(rank - 2)]
    counts = np.concatenate([box[1] for box in boxes])
    first = np.concatenate(
        [np.full(box[1].size, max(m[-1] - steps, 0)) for box, m in zip(boxes, mids)]
    )
    order = np.lexsort([first, *prefix[::-1]])
    prefix = [col[order] for col in prefix]
    first = first[order]
    # offset each prefix's values past the previous prefix's, so that one
    # running maximum of the run ends serves every prefix
    same = np.ones_like(first[1:], dtype=bool)
    for col in prefix:
        same &= col[1:] == col[:-1]
    offset = np.concatenate([[0], np.cumsum(~same)]) * (isqrt(limit) + 2)
    reach = np.maximum.accumulate(offset + first + counts[order])
    fresh = np.ones(first.size, dtype=bool)
    np.greater(offset[1:] + first[1:], reach[:-1], out=fresh[1:])
    heads = np.flatnonzero(fresh)
    ends = np.concatenate([reach[heads[1:] - 1], reach[-1:]]) - offset[heads]
    counts = ends - first[heads]
    n_points = int(counts.sum())
    if n_points > DEFAULT_MAX_POINTS:
        raise GridCapacityError(n_points, DEFAULT_MAX_POINTS)
    return AmplitudeGrid(rank, delta, [col[heads] for col in prefix], first[heads], counts)
