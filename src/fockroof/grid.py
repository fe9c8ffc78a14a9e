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

A grid is the LP's row matrix and nothing else, a
:class:`~fockroof.simplex.RunMatrix` in run form: per run, the ones row and
the M - 2 squared prefix coordinates (l_k*delta)², and the column where the
run starts; per point, only the step l of the last coordinate, as a code
into the table of the isqrt(L) + 1 squares (l*delta)².  A code takes one
byte while isqrt(L) <= 255, that is for delta above about 1/256.  At rank 6
and delta = 0.05 that is 58,201 runs for 662,629 points, 3.5 MB instead of
the 31.8 MB of the dense (M, N) matrix, or the 8.1 MB of one float per
point.  Amplitudes are recomputed from the squares where they are needed;
the square root of a correctly rounded square is exact, so they are the
same bits as l_k*delta.
"""

from __future__ import annotations

import math
from math import isqrt

import numpy as np

from .simplex import RunMatrix

DEFAULT_MAX_POINTS = 5_000_000
# columns per block of the objective computation
_BLOCK = 16_384


class GridCapacityError(Exception):
    """Requested grid would exceed the configured point budget."""

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
    left = limit - np.repeat(l1 * l1, runs) - _runs(0, runs) ** 2
    squares = np.arange(isqrt(limit) + 1, dtype=np.int64) ** 2
    counts = _isqrt(np.arange(limit + 1, dtype=np.int64)) + 1
    for _ in range(rank - 4):
        acc = np.zeros(limit + 1, dtype=np.int64)
        for sq in squares:
            acc[sq:] += counts[: limit + 1 - sq]
        counts = acc
    return int(counts[left].sum())


def checked_count(rank: int, delta: float, max_points: int) -> int:
    """:func:`count_grid_points`, raising :class:`GridCapacityError` past
    ``max_points``.

    An exact count of rank >= 4 holds arrays of about L entries (L = the
    squared lattice radius).  Where L + 1 is more than ``max_points``, the
    volume of the positive-orthant ball of radius sqrt(L) is checked first:
    the unit cells [l, l + 1) of the lattice points cover that ball, so the
    count is at least its volume.
    """
    limit = _lattice_radius_sq(delta)
    if rank >= 4 and limit + 1 > max_points:
        dims = rank - 1
        log_volume = (
            dims / 2 * math.log(math.pi * limit)
            - math.lgamma(dims / 2 + 1)
            - dims * math.log(2.0)
        )
        # rounded down to stay a lower bound; e^700 exceeds any budget
        bound = math.ceil(math.exp(min(log_volume, 700.0)) * (1.0 - 1e-9))
        if bound > max_points:
            raise GridCapacityError(bound, max_points, at_least=True)
    n = count_grid_points(rank, delta)
    if n > max_points:
        raise GridCapacityError(n, max_points)
    return n


def grid_nbytes(rank: int, delta: float, points: int) -> int:
    """Bytes of the arrays of a rank-M grid of ``points`` points, without
    building it: per run, the ones row, the M - 2 squared prefix coordinates
    and the run's start; per point, one code; and the table of squares.  The
    runs are the points of the rank M - 1 lattice, one run at rank 2."""
    top = isqrt(_lattice_radius_sq(delta))
    runs = count_grid_points(rank - 1, delta) if rank > 2 else 1
    return 8 * rank * runs + points * np.min_scalar_type(top).itemsize + 8 * (top + 1)


def _isqrt(values: np.ndarray) -> np.ndarray:
    """Elementwise floor(sqrt(v)) of nonnegative int64 values, exactly.

    The float root is off by at most one, which the two corrections undo.
    """
    root = np.sqrt(values.astype(float)).astype(np.int64)
    root -= root * root > values
    root += (root + 1) * (root + 1) <= values
    return root


def _runs(first, counts: np.ndarray, dtype=np.int64) -> np.ndarray:
    """``f, f + 1, ..., f + c - 1`` for each run's first value f (one for all
    runs or one per run) and count c >= 1 in turn, as one array of ``dtype``:
    unit steps with a jump at each run's start, summed in place.  In an
    unsigned dtype a negative jump wraps, but the sum is exact modulo 2**bits,
    so every value that fits the dtype comes out right."""
    first = np.broadcast_to(first, counts.shape)
    steps = np.ones(int(counts.sum()), dtype=dtype)
    jumps = first[1:] - first[:-1] - counts[:-1] + 1
    steps[np.cumsum(counts[:-1])] = jumps.astype(dtype)
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
    is ever made.
    """
    lo = [int(v) for v in lo]
    hi = [int(v) for v in hi]
    # tail[k]: squared norm of the lower corner in coordinates k, k+1, ...
    tail = [0] * (len(lo) + 1)
    for k in range(len(lo) - 1, -1, -1):
        tail[k] = tail[k + 1] + lo[k] * lo[k]
    # one budget left per prefix; none when the box misses the ball
    left = np.array([limit] if tail[0] <= limit else [], dtype=np.int64)
    prefix: list[np.ndarray] = []
    for k in range(len(lo)):
        # admissible values of coordinate k after each prefix
        counts = np.minimum(_isqrt(left - tail[k + 1]), hi[k]) - lo[k] + 1
        if k + 1 == len(lo):
            return prefix, counts
        coord = _runs(lo[k], counts)
        prefix = [np.repeat(col, counts) for col in prefix]
        prefix.append(coord)
        left = np.repeat(left, counts) - coord * coord


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

    ``rows``, the only array data held, is a read-only
    :class:`~fockroof.simplex.RunMatrix` of shape (rank, n_points).  Its run
    rows are the ones row and the squared prefix coordinates (l_k*delta)²,
    k = 1..M-2, once per run.  Its one column row is coded: each point keeps
    the step l of its last coordinate, in the smallest unsigned dtype that
    holds isqrt(L), and the table holds (l*delta)² for l = 0..isqrt(L).  The
    grid is built from ``prefix``, the M - 2 integer prefix coordinates of
    each run, ``first``, each run's first last coordinate (one value for all
    runs or one per run), and ``counts``, each run's length.  The spacing
    must lie in (0, 1) and the coordinates are integers, so ``rows`` is
    finite by construction.
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
        if counts.size and (np.min(first) < 0 or np.max(first + counts) - 1 > top):
            raise ValueError(f"last coordinates must lie in [0, {top}]")
        run_rows = np.empty((rank - 1, counts.size))
        run_rows[0] = 1.0
        for k, col in enumerate(prefix, start=1):
            np.multiply(col, self.delta, out=run_rows[k])
            np.square(run_rows[k], out=run_rows[k])
        starts = np.zeros(counts.size, dtype=np.intp)
        np.cumsum(counts[:-1], out=starts[1:])
        # the codes are made in their own dtype; the table's squares are the
        # products that built every lattice row, (l*delta)*(l*delta)
        codes = _runs(first, counts, dtype=np.min_scalar_type(top))
        table = np.arange(top + 1.0)
        np.multiply(table, self.delta, out=table)
        np.square(table, out=table)
        self.rows = RunMatrix(run_rows, starts, codes[None, :], table)

    @property
    def n_points(self) -> int:
        return self.rows.shape[1]

    def amplitudes(self, columns) -> np.ndarray:
        """(rank, len(columns)) amplitude vectors (x0, l_1*delta, ...) of the
        given points.  The square root of a correctly rounded square is
        exact, so row k gives back l_k*delta bit for bit."""
        squares = self.rows.columns(columns)
        x = np.sqrt(squares)
        _ground(squares[1:], out=x[0])
        return x

    def objective_coeffs(self, offset: int) -> np.ndarray:
        """Squared coherence kernel of every point for a window starting at offset.

        (sum_k x_k * x_{k+1} * sqrt(offset + k + 1))², in that operation
        order, one block of columns at a time: only the result is as long as
        the grid.  The prefix amplitudes and the prefix's part of the ground
        amplitude's sum of squares are computed once per run of a block and
        repeated over its columns.
        """
        scale = np.sqrt(offset + np.arange(1.0, self.rank))
        rows = self.rows
        alpha = np.zeros(self.n_points)
        for lo in range(0, self.n_points, _BLOCK):
            hi = min(lo + _BLOCK, self.n_points)
            runs, counts = rows.span(lo, hi)
            prefix = rows.run_rows[1:, runs]
            last = np.take(rows.table, rows.col_rows[0, lo:hi])
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


def build_grid(
    rank: int, delta: float, max_points: int = DEFAULT_MAX_POINTS
) -> AmplitudeGrid:
    """Enumerate the full amplitude lattice for a rank-M window.

    Points are ordered lexicographically in the integer coordinates.  Raises
    :class:`GridCapacityError` before materializing anything too large.
    """
    if rank < 2:
        raise ValueError(f"rank must be >= 2, got {rank}")
    checked_count(rank, delta, max_points)
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
