"""Lattice discretization of the decomposition amplitude space.

A pure state on an M-level window is fixed (up to phases, which are dealt
with after the optimization) by the nonnegative amplitudes of the M - 1
upper levels; the ground amplitude follows from normalization.  The grid
enumerates all vectors (l_1*delta, ..., l_{M-1}*delta) with nonnegative
integers l_k and sum of squares at most 1, in lexicographic order of the
integer tuples.  Full lattices and refinement boxes come from one
enumeration that builds the integer points one coordinate at a time and
never makes a point outside the ball.  A grid holds one (M, N) float array
whose column i is the amplitude vector of point i, the layout of the LP's
row matrix.
"""

from __future__ import annotations

import math
from math import isqrt

import numpy as np

DEFAULT_MAX_POINTS = 5_000_000


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
    for col in _ball_points(limit, [0] * dims, [isqrt(limit)] * dims):
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


def _ball_points(limit: int, lo, hi) -> list[np.ndarray]:
    """Integer points of the box ``lo <= l <= hi`` with sum of squares at
    most ``limit``, in lexicographic order, as one int64 array per coordinate.

    Built one coordinate at a time: every prefix is repeated once for each
    admissible value of the next coordinate, in increasing order.  A value is
    admissible when the box's lower corner in the remaining coordinates still
    fits in the ball, so every prefix extends to a point and no point outside
    the ball is ever made.
    """
    lo = [int(v) for v in lo]
    hi = [int(v) for v in hi]
    # tail[k]: squared norm of the lower corner in coordinates k, k+1, ...
    tail = [0] * (len(lo) + 1)
    for k in range(len(lo) - 1, -1, -1):
        tail[k] = tail[k + 1] + lo[k] * lo[k]
    if tail[0] > limit:
        return [np.zeros(0, dtype=np.int64) for _ in lo]
    columns: list[np.ndarray] = []
    left = np.array([limit], dtype=np.int64)
    for k in range(len(lo)):
        counts = np.minimum(_isqrt(left - tail[k + 1]), hi[k]) - lo[k] + 1
        coord = np.arange(lo[k], lo[k] + counts.sum(), dtype=np.int64)
        coord -= np.repeat(np.cumsum(counts) - counts, counts)
        columns = [np.repeat(col, counts) for col in columns]
        columns.append(coord)
        if k + 1 < len(lo):
            left = np.repeat(left, counts) - coord * coord
    return columns


class AmplitudeGrid:
    """Lattice amplitude vectors for one window rank and spacing.

    ``amplitudes`` is a read-only, C-contiguous (rank, n_points) array whose
    column i is the amplitude vector (x0, l_1*delta, ..., l_{M-1}*delta) of
    point i.  It is filled from the integer ``columns`` (one array per free
    coordinate), which are not kept.
    """

    def __init__(self, rank: int, delta: float, columns: list[np.ndarray]):
        if len(columns) != rank - 1:
            raise ValueError(f"need {rank - 1} lattice columns, got {len(columns)}")
        self.rank = rank
        self.delta = float(delta)
        amplitudes = np.zeros((rank, columns[0].size))
        norm_sq = amplitudes[0]
        for k, col in enumerate(columns, start=1):
            np.multiply(col, self.delta, out=amplitudes[k])
            norm_sq += amplitudes[k] * amplitudes[k]
        np.subtract(1.0, norm_sq, out=norm_sq)
        np.clip(norm_sq, 0.0, None, out=norm_sq)
        np.sqrt(norm_sq, out=amplitudes[0])
        amplitudes.setflags(write=False)
        self.amplitudes = amplitudes

    @property
    def n_points(self) -> int:
        return self.amplitudes.shape[1]

    def __len__(self) -> int:
        return self.n_points

    def objective_coeffs(self, offset: int) -> np.ndarray:
        """Squared coherence kernel of every point for a window starting at offset."""
        x = self.amplitudes
        alpha = np.zeros(self.n_points)
        for k in range(self.rank - 1):
            alpha += x[k] * x[k + 1] * np.sqrt(offset + k + 1.0)
        return alpha**2


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
    lexicographic order.
    """
    limit = _lattice_radius_sq(delta)
    steps = int(round(radius / delta))
    radix = isqrt(limit) + 1
    dims = rank - 1
    mids = np.rint(np.atleast_2d(centers) / delta).astype(np.int64)
    boxes = (_ball_points(limit, np.maximum(m - steps, 0), m + steps) for m in mids)
    if radix**dims > np.iinfo(np.int64).max:
        # a mixed-radix key would overflow int64: sort the points themselves
        boxes = list(boxes)
        columns = [np.concatenate([box[k] for box in boxes]) for k in range(dims)]
        order = np.lexsort(columns[::-1])
        columns = [col[order] for col in columns]
        fresh = np.ones(order.size, dtype=bool)
        fresh[1:] = np.any([col[1:] != col[:-1] for col in columns], axis=0)
        columns = [col[fresh] for col in columns]
    else:
        # one mixed-radix int64 key per point, whose order is the points' order
        keys = []
        for box in boxes:
            key = np.zeros(box[0].size, dtype=np.int64)
            for col in box:
                key = key * radix + col
            keys.append(key)
        key = np.concatenate(keys)
        del keys
        key.sort()
        fresh = np.ones(key.size, dtype=bool)
        np.not_equal(key[1:], key[:-1], out=fresh[1:])
        key = key[fresh]
        columns = [key // radix ** (dims - 1 - k) % radix for k in range(dims)]
    if columns[0].size > DEFAULT_MAX_POINTS:
        raise GridCapacityError(int(columns[0].size), DEFAULT_MAX_POINTS)
    return AmplitudeGrid(rank, delta, columns)
