"""Fock-window states and their closed-form nonclassicality quantities.

A single bosonic mode whose density matrix is diagonal in the Fock basis is
fully described by the populations of a contiguous photon-number window
[n, n + M - 1].  This module holds that state type, the checks on a window
and its populations, the mean photon number, and the quantities that have
closed forms: the two-level mixed-state result, the simple-decomposition
upper bound, and truncated thermal states.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# Normalization is checked strictly at construction.
CONSTRUCTION_TOL = 1e-12

# The highest photon number a window may reach: up to it every photon number,
# and every n + k + 1 of the window, is an exact double.
MAX_PHOTON_NUMBER = 2**53


def _readonly(arr: np.ndarray) -> np.ndarray:
    arr = np.array(arr, copy=True)
    arr.setflags(write=False)
    return arr


def check_window(offset, rank: int) -> None:
    """Raise ValueError unless ``offset`` is a nonnegative integer and the
    window's top photon number, offset + rank - 1, is at most
    MAX_PHOTON_NUMBER."""
    if offset < 0 or int(offset) != offset:
        raise ValueError(f"offset must be a nonnegative integer, got {offset}")
    top = int(offset) + rank - 1
    if top > MAX_PHOTON_NUMBER:
        raise ValueError(f"top photon number {top} exceeds 2**53 = {MAX_PHOTON_NUMBER}")


def check_populations(populations: np.ndarray) -> None:
    """Raise ValueError unless every row of a (..., M) array is nonnegative,
    finite and sums to 1 within CONSTRUCTION_TOL; the message names the
    first offending row."""
    rows = populations.reshape(-1, populations.shape[-1])
    negative = np.any(rows < 0.0, axis=1)
    if negative.any():
        raise ValueError(f"populations must be nonnegative, got {rows[negative][0]}")
    if not np.all(np.isfinite(rows)):
        raise ValueError("populations must be finite")
    totals = rows.sum(axis=1)
    off = np.abs(totals - 1.0) > CONSTRUCTION_TOL
    if off.any():
        raise ValueError(f"populations must sum to 1 (got {float(totals[off][0])!r})")


@dataclass(frozen=True, eq=False)
class FockDiagonalState:
    """Mixed state diagonal in the Fock basis on a contiguous window.

    ``populations[k]`` is the probability of photon number ``offset + k``.
    Interior zeros are allowed (a gapped state is represented on the full
    window spanning it); use :meth:`trimmed` to drop zero populations at the
    window edges.  Instances are immutable.
    """

    offset: int
    populations: np.ndarray

    def __post_init__(self):
        pops = np.asarray(self.populations, dtype=float)
        if pops.ndim != 1 or pops.size < 1:
            raise ValueError("populations must be a nonempty 1-d vector")
        check_window(self.offset, pops.size)
        check_populations(pops)
        object.__setattr__(self, "offset", int(self.offset))
        object.__setattr__(self, "populations", _readonly(pops))

    @property
    def rank(self) -> int:
        """Window length M (counts interior zeros)."""
        return self.populations.size

    @property
    def is_trimmed(self) -> bool:
        return self.populations[0] > 0.0 and self.populations[-1] > 0.0

    def trimmed(self) -> "FockDiagonalState":
        """Return the state with zero populations stripped from both window ends."""
        pops = self.populations
        lo = 0
        while pops[lo] == 0.0:
            lo += 1
        hi = pops.size
        while pops[hi - 1] == 0.0:
            hi -= 1
        if lo == 0 and hi == pops.size:
            return self
        return FockDiagonalState(self.offset + lo, pops[lo:hi])


def rank2_nonclassicality(offset: int, p_upper: float) -> float:
    """Closed-form nonclassicality of p|n+1><n+1| + (1-p)|n><n|.

    The optimal decomposition mixes equal-weight superpositions that differ
    only by quartic-roots-of-unity phases, giving n + p - (n+1)p(1-p).
    """
    if not 0.0 <= p_upper <= 1.0:
        raise ValueError(f"p_upper must lie in [0, 1], got {p_upper}")
    n = offset
    return n + p_upper - (n + 1) * p_upper * (1.0 - p_upper)


def mean_photon(state: FockDiagonalState) -> float:
    """<a†a> of a Fock-diagonal state."""
    return float(mean_photons(state.offset, state.populations[None, :])[0])


def mean_photons(offset: int, populations: np.ndarray) -> np.ndarray:
    """<a†a> of every row of an (N, M) population array.

    One np.dot per row: a whole-array product sum or matrix product rounds
    differently on some rows.
    """
    k = offset + np.arange(populations.shape[1], dtype=float)
    return np.array([np.dot(k, row) for row in populations])


def pow_square(x: np.ndarray) -> np.ndarray:
    """Per-element x ** 2 through the scalar power function, which differs
    from an array square (x*x) in the last bit on some inputs."""
    return np.array([v**2 for v in x.tolist()])


def simple_bound(state: FockDiagonalState) -> float:
    """Upper bound from the single-point decomposition with amplitudes sqrt(p).

    Equals <a†a> - (sum_k sqrt(p_{n+k+1} p_{n+k} (n+k+1)))².  Exact for two
    neighboring populations, and saturated exactly by the simply-decomposed
    states of higher rank.
    """
    return float(simple_bounds(state.offset, state.populations[None, :])[0])


def simple_bounds(offset: int, populations: np.ndarray) -> np.ndarray:
    """:func:`simple_bound` of every row of an (N, M) population array."""
    p = populations
    k = np.arange(p.shape[1] - 1)
    cross = np.sqrt(p[:, 1:] * p[:, :-1] * (offset + k + 1.0)).sum(axis=1)
    return mean_photons(offset, p) - pow_square(cross)


def truncated_thermal(n_th: float, rank: int) -> FockDiagonalState:
    """Thermal state renormalized after projecting out photon numbers >= rank.

    Populations are geometric, p_k ∝ n_th^k / (1+n_th)^(k+1), renormalized by
    1 / (1 - (n_th/(1+n_th))^rank), and then by their sum.  Above about
    n_th = 9e15 the ratio rounds to 1 and only the sum normalizes.  Where
    (1+n_th)^rank overflows, the populations are the ratio's powers,
    normalized by their sum alone.
    """
    if not 0.0 < n_th < math.inf:
        raise ValueError(f"n_th must be positive and finite, got {n_th}")
    if rank < 1:
        raise ValueError(f"rank must be >= 1, got {rank}")
    q = n_th / (1.0 + n_th)
    tail = 1.0 - q**rank
    norm = 1.0 / tail if tail else 1.0
    k = np.arange(rank)
    with np.errstate(over="ignore"):
        # n_th^k stays below this, so it is finite where this is
        scale = (1.0 + n_th) ** (k + 1.0)
    if np.all(np.isfinite(scale)):
        pops = norm * n_th**k / scale
    else:
        pops = q**k
    pops = pops / pops.sum()  # remove residual rounding so the sum is exactly 1
    return FockDiagonalState(0, pops)
