"""Closed-form decomposition ansatzes for three- and four-level windows.

Population space splits into phases, each with its own optimal decomposition
family.  For three levels these are: the triplet (every atom carries
amplitudes sqrt(p), saturating the simple bound), and two pair phases where
the two upper or two lower levels stay proportional inside the atoms while
the remaining Fock state joins the ensemble on its own.  Four-level windows
add the four analogous single-Fock-state triplet phases and a pair phase
splitting the state into an inner (n+2, n+1) pair and an outer part.

Three-level values are believed exact; the four-level ones are close upper
bounds: states slightly beating them are known to exist near the
quartet/triplet-0 border.

Every invested fraction f maximizes a probability-weighted coherence of the
form s*(A*sqrt(f) + B*sqrt(1-f))² with A, B >= 0 read off the populations, so
the maximizer A²/(A²+B²) and the maximum s*(A²+B²) are closed forms.

Each window rank has one array kernel that scores every ansatz on an (N, M)
population array in one pass, and returns each winner's decomposition: one
coherent atom plus single Fock states (:func:`classify_many`);
:func:`classify` is its one-row call.
"""

from __future__ import annotations

import enum
import math
from typing import NamedTuple

import numpy as np

from .states import FockDiagonalState, mean_photons, pow_square, simple_bounds

_TIE_TOL = 1e-12
_FEAS_TOL = 1e-12


class PhaseLabel(enum.Enum):
    TRIPLET = "Triplet"
    UPPER_PAIR = "UpperPair"
    LOWER_PAIR = "LowerPair"
    QUARTET = "Quartet"
    TRIPLET0 = "Triplet0"
    TRIPLET1 = "Triplet1"
    TRIPLET2 = "Triplet2"
    TRIPLET3 = "Triplet3"
    PAIR21 = "Pair21"


class _Ansatz(NamedTuple):
    """One ansatz on every row of an (N, M) population array.

    Its coherent atom is the amplitude row ``atom`` (N, M) taken with
    probability ``weight``; the rest of each population is a Fock state of
    its own.  ``value`` is inf where the ansatz puts no weight in its atoms.
    Where the ansatz is undefined (its fraction is NaN, or the level it
    singles out holds the whole population) it is infeasible, so it never
    wins.
    """

    label: PhaseLabel
    value: np.ndarray
    weight: np.ndarray
    atom: np.ndarray
    feasible: np.ndarray | bool = True


def _best_fraction(s, a, b):
    """Maximizer and maximum of s*(a*sqrt(f) + b*sqrt(1-f))² over f in [0, 1].

    By Cauchy-Schwarz the maximum is s*(a²+b²), reached at f = a²/(a²+b²).
    With a = b = 0 the objective vanishes identically and f = 1 is returned:
    the whole state is invested in the proportional atoms.
    """
    norm = a * a + b * b
    return np.where(norm == 0.0, 1.0, a * a / norm), s * norm


def _coherence(offset: int, x: np.ndarray) -> np.ndarray:
    """Squared <a> of the (N, 3) amplitude rows x, the phase-aligned sum
    (x_0 x_1 sqrt(offset + 1) + x_1 x_2 sqrt(offset + 2))²."""
    return pow_square((x[:, 1:] * x[:, :-1] * np.sqrt(offset + np.arange(2) + 1.0)).sum(axis=1))


def _rank3(n: int, pops: np.ndarray) -> list[_Ansatz]:
    """Triplet, upper pair and lower pair of a three-level window.

    The triplet is the symmetric sqrt-population decomposition (the simple
    bound).  The upper pair invests the fraction
    f = (2+n) p2 / ((1+n) p1 + (3+2n) p2) in atoms where the two upper levels
    stay proportional, and is feasible while those atoms' total probability
    (p1+p2)/f stays at most one; the lower pair mirrors it with |n+2> alone.
    A vanishing fraction carries no weight at all: never a distinct phase.
    """
    p0, p1, p2 = pops.T
    mean = mean_photons(n, pops)
    cross = np.sqrt(p2 * (n + 2.0)) + np.sqrt(p0 * (n + 1.0))
    s, r = p1 + p2, 1.0 - p2
    with np.errstate(divide="ignore", invalid="ignore"):
        f = (2.0 + n) * p2 / ((1.0 + n) * p1 + (3.0 + 2.0 * n) * p2)
        g = ((1.0 + n) * (-1.0 + p1 + p2)) / (
            -3.0 - 2.0 * n + (1.0 + n) * p1 + (3.0 + 2.0 * n) * p2
        )
        x_up = np.stack([np.sqrt(1.0 - f), np.sqrt(f * p1 / s), np.sqrt(f * p2 / s)], axis=1)
        up = np.where(f > 0.0, mean - s / f * _coherence(n, x_up), np.inf)
        x_low = np.stack([np.sqrt(g * p0 / r), np.sqrt(g * p1 / r), np.sqrt(1.0 - g)], axis=1)
        low = np.where(g > 0.0, mean - r / g * _coherence(n, x_low), np.inf)
        return [
            # the simple bound in this order; simple_bounds differs in the last bit
            _Ansatz(
                PhaseLabel.TRIPLET,
                2.0 * p2 + p1 + n - pow_square(cross) * p1,
                np.ones_like(s),
                np.sqrt(pops),
            ),
            _Ansatz(PhaseLabel.UPPER_PAIR, up, s / f, x_up, (f > 0.0) & (s <= f + _FEAS_TOL)),
            _Ansatz(PhaseLabel.LOWER_PAIR, low, r / g, x_low, (g > 0.0) & (r <= g + _FEAS_TOL)),
        ]


def _rank4(n: int, pops: np.ndarray) -> list[_Ansatz]:
    """Quartet, the four single-Fock-state triplets and the (n+2, n+1) pair.

    The quartet is the simple bound.  Triplet-k singles out level n+k while
    the other three stay proportional in the atoms: links between two
    proportional levels scale as f and sum to A, links touching level n+k
    scale as sqrt(f(1-f)) and sum to B; it is feasible while f >= 1 - p_k.
    The pair's split g = (3+n) p2 / ((1+n) p1 + (3+n) p2) and fraction f
    depend only on the offset and the middle populations (the inner link
    scales as f, the two outer links as sqrt(f(1-f))); it is feasible while
    its atoms do not over-fill the total, top or bottom populations.
    """
    p = list(pops.T)
    mean = mean_photons(n, pops)
    out = [_Ansatz(PhaseLabel.QUARTET, simple_bounds(n, pops), np.ones_like(mean), np.sqrt(pops))]
    with np.errstate(divide="ignore", invalid="ignore"):
        for k, label in enumerate(_TRIPLETS):
            rest, a, b = 1.0 - p[k], 0.0, 0.0
            for j in range(3):
                weight = math.sqrt(n + j + 1.0)
                if k == j:
                    b = b + weight * np.sqrt(p[j + 1] / rest)
                elif k == j + 1:
                    b = b + weight * np.sqrt(p[j] / rest)
                else:
                    a = a + weight * np.sqrt(p[j] * p[j + 1]) / rest
            f, gain = _best_fraction(rest, a, b)
            x = np.sqrt((f / rest)[:, None] * pops)
            x[:, k] = np.sqrt(1.0 - f)
            feasible = (f >= rest - _FEAS_TOL) & (p[k] < 1.0)
            out.append(_Ansatz(label, mean - gain, rest / f, x, feasible))
        s = p[1] + p[2]
        g = (3.0 + n) * p[2] / ((1.0 + n) * p[1] + (3.0 + n) * p[2])
        a = math.sqrt(n + 2.0) * np.sqrt(p[1] * p[2]) / s
        b = math.sqrt(n + 1.0) * np.sqrt((1.0 - g) * p[1] / s) + math.sqrt(
            n + 3.0
        ) * np.sqrt(g * p[2] / s)
        f, gain = _best_fraction(s, a, b)
        # f = 0 invests nothing in the pair atoms, which then cannot carry s
        leftover = (1.0 - f) / f * s
        feasible = (f > 0.0) & (s <= f + _FEAS_TOL) & (leftover * g <= p[3] + _FEAS_TOL)
        feasible &= leftover * (1.0 - g) <= p[0] + _FEAS_TOL
        squares = [(1.0 - f) * (1.0 - g), f * p[1] / s, f * p[2] / s, (1.0 - f) * g]
        x = np.sqrt(np.stack(squares, axis=1))
        return out + [_Ansatz(PhaseLabel.PAIR21, mean - gain, s / f, x, feasible)]


_TRIPLETS = (PhaseLabel.TRIPLET0, PhaseLabel.TRIPLET1, PhaseLabel.TRIPLET2, PhaseLabel.TRIPLET3)
_KERNELS = {3: _rank3, 4: _rank4}


def classify_many(
    offset: int, populations: np.ndarray
) -> tuple[list[PhaseLabel], np.ndarray, np.ndarray, np.ndarray]:
    """Winning phase of every row of an (N, 3) or (N, 4) array of valid
    populations (see ``states.check_populations``) on the window starting at
    photon number ``offset``: its labels, values, weights and amplitudes.

    A row's winner is its first feasible ansatz within _TIE_TOL of the best,
    so ties prefer the triplet at rank 3, and the quartet, then the triplets,
    at rank 4.  Its decomposition is in :class:`~fockroof.roof.Estimate`'s
    row layout, weights (N, M+1) on amplitudes (N, M+1, M): row 0 is the
    winner's coherent atom x with weight w, and row 1+k the Fock state
    |offset+k> with weight p_k - w x_k², never clamped.  The value is the
    mean photon number minus w <a>(x)².
    """
    if populations.shape[1] not in _KERNELS:
        raise ValueError(f"no ansatz catalogue for rank {populations.shape[1]}")
    m, rows = populations.shape[1], np.arange(len(populations))
    ansatzes = _KERNELS[m](offset, populations)
    scores = np.stack([np.where(a.feasible, a.value, np.inf) for a in ansatzes], axis=1)
    best = scores.min(axis=1)
    pick = np.argmax(scores <= (best + _TIE_TOL)[:, None], axis=1)
    weight = np.stack([a.weight for a in ansatzes])[pick, rows]
    atom = np.stack([a.atom for a in ansatzes])[pick, rows]
    weights = np.column_stack([weight, populations - weight[:, None] * atom**2])
    amplitudes = np.zeros((len(rows), m + 1, m))
    amplitudes[:, 0], amplitudes[:, 1:] = atom, np.eye(m)
    labels = [ansatzes[i].label for i in pick.tolist()]
    return labels, scores[rows, pick], weights, amplitudes


def classify(state: FockDiagonalState) -> tuple[PhaseLabel, float, np.ndarray, np.ndarray]:
    """Label, value, weights and amplitudes of a three- or four-level
    window's winning ansatz: :func:`classify_many` on one row."""
    labels, values, weights, amplitudes = classify_many(state.offset, state.populations[None, :])
    return labels[0], float(values[0]), weights[0], amplitudes[0]
