"""Lattice discretization of the decomposition amplitude space.

A pure state on an M-level window is fixed (up to phases, which are dealt
with after the optimization) by the nonnegative amplitudes of the M - 1
upper levels; the ground amplitude follows from normalization.  The grid
enumerates all vectors (l_1*delta, ..., l_{M-1}*delta) with nonnegative
integers l_k and sum of squares at most 1, in lexicographic order of the
integer tuples.
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

    ``counts[j]`` is the number of points of the first k free coordinates
    with sum of squares at most j: one coordinate alone has ``isqrt(j) + 1``
    and each further coordinate convolves with the squares.  The last one
    (rank 3) or two (rank >= 4) coordinates are needed only at the budgets
    ``limit - c²`` or ``limit - b² - c²`` they leave, so rank 4 sums
    ``isqrt`` over the points of the rank-3 lattice.
    """
    if rank < 2:
        raise ValueError(f"rank must be >= 2, got {rank}")
    limit = _lattice_radius_sq(delta)
    if rank == 2:
        return isqrt(limit) + 1
    squares = np.arange(isqrt(limit) + 1, dtype=np.int64) ** 2
    if rank == 3:
        return int((_isqrt(limit - squares) + 1).sum())
    b, c = _enumerate_lattice(limit, 2).astype(np.int64).T
    left = limit - b * b - c * c
    if rank == 4:
        return int((_isqrt(left) + 1).sum())
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


def _enumerate_lattice(limit: int, dims: int) -> np.ndarray:
    """All nonnegative integer vectors of length ``dims`` with sum of squares
    at most ``limit``, as int32 rows in lexicographic order.

    Built one coordinate at a time: every prefix is repeated once for each
    value 0..isqrt(budget left) of the next coordinate, in increasing order.
    """
    rows = np.zeros((1, 0), dtype=np.int32)
    left = np.array([limit], dtype=np.int64)
    for k in range(dims):
        counts = _isqrt(left) + 1
        coord = np.arange(counts.sum(), dtype=np.int64)
        coord -= np.repeat(np.cumsum(counts) - counts, counts)
        if k + 1 < dims:
            left = np.repeat(left, counts) - coord * coord
        rows = np.column_stack([np.repeat(rows, counts, axis=0), coord.astype(np.int32)])
    return rows


class AmplitudeGrid:
    """All lattice amplitude vectors for one window rank and spacing."""

    def __init__(self, rank: int, delta: float, lattice: np.ndarray):
        if lattice.ndim != 2 or lattice.shape[1] != rank - 1:
            raise ValueError("lattice must be (n_points, rank-1)")
        self.rank = rank
        self.delta = float(delta)
        lattice = np.ascontiguousarray(lattice, dtype=np.int32)
        lattice.setflags(write=False)
        self.lattice = lattice
        free = lattice.astype(float) * self.delta
        self.free_amplitudes = free
        self.x0 = np.sqrt(np.clip(1.0 - np.sum(free * free, axis=1), 0.0, None))
        free.setflags(write=False)
        self.x0.setflags(write=False)

    @property
    def n_points(self) -> int:
        return self.lattice.shape[0]

    def __len__(self) -> int:
        return self.n_points

    def objective_coeffs(self, offset: int) -> np.ndarray:
        """Squared coherence kernel of every point for a window starting at offset."""
        x = [self.x0, *self.free_amplitudes.T]
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
    lattice = _enumerate_lattice(_lattice_radius_sq(delta), rank - 1)
    return AmplitudeGrid(rank, delta, lattice)


def _unique_rows(rows: np.ndarray, radix: int) -> np.ndarray:
    """Distinct rows in lexicographic order, for nonnegative entries below ``radix``.

    Each row is read as one mixed-radix int64 number, whose order is the
    rows' lexicographic order.  Where ``radix**columns`` would overflow int64
    the rows are sorted with ``np.lexsort`` instead.
    """
    if radix ** rows.shape[1] <= np.iinfo(np.int64).max:
        key = np.zeros(rows.shape[0], dtype=np.int64)
        for col in rows.T:
            key = key * radix + col
        _, first = np.unique(key, return_index=True)
        return rows[first]
    rows = rows[np.lexsort(rows.T[::-1])]
    fresh = np.ones(rows.shape[0], dtype=bool)
    fresh[1:] = np.any(rows[1:] != rows[:-1], axis=1)
    return rows[fresh]


def neighborhood_grid(
    rank: int,
    delta: float,
    centers: np.ndarray,
    center_delta: float,
    radius: float,
) -> AmplitudeGrid:
    """Lattice points of spacing ``delta`` within a per-coordinate radius of
    the given centers (centers are lattice vectors at ``center_delta``).

    The centers themselves are kept, so any histogram supported on them stays
    feasible on the refined grid.
    """
    limit = _lattice_radius_sq(delta)
    scale = center_delta / delta
    steps = int(round(radius / delta))
    blocks = []
    for center in np.atleast_2d(centers):
        mids = np.rint(np.asarray(center, dtype=float) * scale).astype(np.int64)
        axes = [
            np.arange(max(0, m - steps), m + steps + 1, dtype=np.int64) for m in mids
        ]
        mesh = np.meshgrid(*axes, indexing="ij")
        pts = np.stack([g.ravel() for g in mesh], axis=1)
        blocks.append(pts[np.sum(pts * pts, axis=1) <= limit])
    pts = _unique_rows(np.vstack(blocks), isqrt(limit) + 1)
    if pts.shape[0] > DEFAULT_MAX_POINTS:
        raise GridCapacityError(int(pts.shape[0]), DEFAULT_MAX_POINTS)
    return AmplitudeGrid(rank, delta, pts.astype(np.int32))
