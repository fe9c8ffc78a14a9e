"""Lattice discretization of the decomposition amplitude space.

A pure state on an M-level window is fixed (up to phases, which are dealt
with after the optimization) by the nonnegative amplitudes of the M - 1
upper levels; the ground amplitude follows from normalization.  The grid
enumerates all vectors (l_1*delta, ..., l_{M-1}*delta) with nonnegative
integers l_k and sum of squares at most 1, in lexicographic order of the
integer tuples.  Full lattices and refinement boxes come from one
enumeration that builds the integer points one coordinate at a time and
never makes a point outside the ball.  A grid is the LP's row matrix and
nothing else: one (M, N) float array whose column i is (1, x_1², ...,
x_{M-1}²) for point i, filled one coordinate at a time.  Amplitudes are
recomputed from it where they are needed; the square root of a correctly
rounded square is exact, so they are the same bits as l_k*delta.
"""

from __future__ import annotations

import math
from math import isqrt

import numpy as np

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

    The last ``min(2, M - 2)`` free coordinates are enumerated, leaving the
    budgets ``left = L - (their squares)`` for the rest.  With one free
    coordinate left (M <= 4) each budget admits ``isqrt(left) + 1`` values;
    otherwise ``counts[j]``, the number of points of the first M - 3 free
    coordinates with sum of squares at most j, starts from one coordinate's
    ``isqrt(j) + 1`` and is convolved with the squares once per further
    coordinate.
    """
    if rank < 2:
        raise ValueError(f"rank must be >= 2, got {rank}")
    limit = _lattice_radius_sq(delta)
    left = np.array([limit], dtype=np.int64)
    dims = min(2, rank - 2)
    for _, col in _ball_points(limit, [0] * dims, [isqrt(limit)] * dims):
        left = left - col * col
    if rank <= 4:
        return int((_isqrt(left) + 1).sum())
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


def _isqrt(values: np.ndarray) -> np.ndarray:
    """Elementwise floor(sqrt(v)) of nonnegative int64 values, exactly.

    The float root is off by at most one, which the two corrections undo.
    """
    root = np.sqrt(values.astype(float)).astype(np.int64)
    root -= root * root > values
    root += (root + 1) * (root + 1) <= values
    return root


def _runs(first: int, counts: np.ndarray) -> np.ndarray:
    """``first, first + 1, ..., first + c - 1`` for each count c >= 1 in turn,
    as one int64 array: unit steps with a step back at each run's start,
    summed in place."""
    steps = np.ones(int(counts.sum()), dtype=np.int64)
    steps[np.cumsum(counts[:-1])] = 1 - counts[:-1]
    steps[:1] = first
    return np.cumsum(steps, out=steps)


def _ball_points(limit: int, lo, hi):
    """Integer points of the box ``lo <= l <= hi`` with sum of squares at
    most ``limit``, in lexicographic order, one coordinate at a time.

    Yields ``(k, l_k)`` for k = 1..d, the last coordinate first, each a new
    int64 array over all points that the caller may drop before the next.
    Every prefix is repeated once for each admissible value of the next
    coordinate, in increasing order.  A value is admissible when the box's
    lower corner in the remaining coordinates still fits in the ball, so
    every prefix extends to a point and no point outside the ball is ever
    made.  The last coordinate is one run of values per prefix.
    """
    lo = [int(v) for v in lo]
    hi = [int(v) for v in hi]
    if not lo:
        return
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
            break
        coord = _runs(lo[k], counts)
        prefix = [np.repeat(col, counts) for col in prefix]
        prefix.append(coord)
        left = np.repeat(left, counts) - coord * coord
    yield len(lo), _runs(lo[-1], counts)
    for k, col in enumerate(prefix, start=1):
        yield k, np.repeat(col, counts)


def _digits(key: np.ndarray, radix: int, dims: int):
    """``(k, l_k)`` of the mixed-radix keys ``sum_k l_k * radix**(dims - k)``,
    the last digit first; ``key`` is divided in place and ends as ``l_1``."""
    for k in range(dims, 1, -1):
        yield k, key % radix
        key //= radix
    yield 1, key


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

    ``rows``, the only array held, is read-only and C-contiguous, of shape
    (rank, n_points): row 0 is all ones and row k is (l_k*delta)².
    ``columns`` yields ``(k, l_k)`` for the free coordinates k = 1..M-1 in
    any order, each an int array over all points and dropped once its row
    is filled.  The spacing must lie in (0, 1) and the columns hold
    integers, so ``rows`` is finite by construction.
    """

    def __init__(self, rank: int, delta: float, columns):
        self.rank = rank
        self.delta = float(delta)
        if not 0.0 < self.delta < 1.0:
            raise ValueError(f"delta must lie in (0, 1), got {delta}")
        rows = None
        filled = []
        for k, col in columns:
            if col.dtype.kind not in "iu":
                raise ValueError(f"lattice column {k} is {col.dtype}, not integer")
            if rows is None:
                rows = np.empty((rank, col.size))
                rows[0] = 1.0
            np.multiply(col, self.delta, out=rows[k])
            np.square(rows[k], out=rows[k])
            filled.append(k)
            del col  # before the next column is made
        if sorted(filled) != list(range(1, rank)):
            raise ValueError(
                f"need one lattice column for each of 1..{rank - 1}, got {filled}"
            )
        rows.setflags(write=False)
        self.rows = rows

    @property
    def n_points(self) -> int:
        return self.rows.shape[1]

    def __len__(self) -> int:
        return self.n_points

    def amplitudes(self, columns) -> np.ndarray:
        """(rank, len(columns)) amplitude vectors (x0, l_1*delta, ...) of the
        given points.  The square root of a correctly rounded square is
        exact, so row k gives back l_k*delta bit for bit."""
        squares = self.rows[:, columns]
        x = np.sqrt(squares)
        _ground(squares[1:], out=x[0])
        return x

    def objective_coeffs(self, offset: int) -> np.ndarray:
        """Squared coherence kernel of every point for a window starting at offset.

        (sum_k x_k * x_{k+1} * sqrt(offset + k + 1))², in that operation
        order, from ``rows`` one block of columns at a time: only the result
        is as long as the grid.
        """
        scale = np.sqrt(offset + np.arange(1.0, self.rank))
        alpha = np.zeros(self.n_points)
        for lo in range(0, self.n_points, _BLOCK):
            squares = self.rows[:, lo : lo + _BLOCK]
            acc = alpha[lo : lo + _BLOCK]
            a, b = _ground(squares[1:], out=np.empty(acc.size)), np.empty(acc.size)
            for k in range(1, self.rank):
                np.sqrt(squares[k], out=b)
                np.multiply(a, b, out=a)
                np.multiply(a, scale[k - 1], out=a)
                acc += a
                a, b = b, a
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
    columns = _ball_points(limit, [0] * (rank - 1), [isqrt(limit)] * (rank - 1))
    return AmplitudeGrid(rank, delta, columns)


def neighborhood_grid(
    rank: int, delta: float, centers: np.ndarray, radius: float
) -> AmplitudeGrid:
    """Lattice points of spacing ``delta`` within a per-coordinate radius of
    the given centers (rows of free amplitudes).

    Each center is rounded to its nearest lattice point.  A center on the
    lattice of spacing 2*delta rounds to itself (halving a double is exact),
    so a histogram supported on the previous refinement level stays feasible
    on the refined grid.  Each box is enumerated inside the ball only; a
    point shared by several boxes is kept once, and the grid is in
    lexicographic order.  The kept points' keys are decoded into the grid
    one coordinate at a time.
    """
    limit = _lattice_radius_sq(delta)
    steps = int(round(radius / delta))
    radix = isqrt(limit) + 1
    dims = rank - 1
    mids = np.rint(np.atleast_2d(centers) / delta).astype(np.int64)
    boxes = (_ball_points(limit, np.maximum(m - steps, 0), m + steps) for m in mids)
    if radix**dims > np.iinfo(np.int64).max:
        # a mixed-radix key would overflow int64: sort the points themselves
        boxes = [dict(box) for box in boxes]
        columns = [
            np.concatenate([box[k] for box in boxes]) for k in range(1, dims + 1)
        ]
        order = np.lexsort(columns[::-1])
        columns = [col[order] for col in columns]
        fresh = np.ones(order.size, dtype=bool)
        fresh[1:] = np.any([col[1:] != col[:-1] for col in columns], axis=0)
        columns = [col[fresh] for col in columns]
        n_points = columns[0].size
        points = enumerate(columns, start=1)
    else:
        # one mixed-radix int64 key per point, whose order is the points' order
        key = np.concatenate(
            [sum(col * radix ** (dims - k) for k, col in box) for box in boxes]
        )
        # each box's keys are one increasing run, which a stable sort merges
        key.sort(kind="stable")
        fresh = np.ones(key.size, dtype=bool)
        np.not_equal(key[1:], key[:-1], out=fresh[1:])
        key = key[fresh]
        n_points = key.size
        points = _digits(key, radix, dims)
    if n_points > DEFAULT_MAX_POINTS:
        raise GridCapacityError(int(n_points), DEFAULT_MAX_POINTS)
    return AmplitudeGrid(rank, delta, points)
