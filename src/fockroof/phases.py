"""Closed-form decomposition ansatzes for three- and four-level windows.

Population space splits into phases, each with its own optimal decomposition
family.  For three levels these are: the triplet (every atom carries
amplitudes sqrt(p), saturating the simple bound), and two pair phases where
the two upper or two lower levels stay proportional inside the atoms while
the remaining Fock state joins the ensemble on its own.  Four-level windows
add the four analogous single-Fock-state triplet phases and a pair phase
splitting the state into an inner (n+2, n+1) pair and an outer part.

Three-level values are believed exact; the four-level ones are close upper
bounds, and every four-level result is flagged accordingly: states slightly
beating the bounds are known to exist near the quartet/triplet-0 border.

Every invested fraction f maximizes a probability-weighted coherence of the
form s*(A*sqrt(f) + B*sqrt(1-f))² with A, B >= 0 read off the populations, so
the maximizer A²/(A²+B²) and the maximum s*(A²+B²) are closed forms.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .states import FockDiagonalState, mean_photon, real_alpha, simple_bound

_TIE_TOL = 1e-12
_FEAS_TOL = 1e-12


class DegenerateStateError(ValueError):
    """The requested ansatz is undefined for this population pattern."""


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


@dataclass(frozen=True)
class AnsatzResult:
    """Winning phase for a state: label, value and decomposition parameters.

    ``upper_bound_only`` is set for every four-level result; those values are
    close upper bounds rather than certified optima.
    """

    label: PhaseLabel
    value: float
    params: dict = field(default_factory=dict)
    feasible: bool = True
    upper_bound_only: bool = False


class FractionAnsatz(NamedTuple):
    """Value, invested fraction and feasibility of a pair or triplet ansatz."""

    value: float
    fraction: float
    feasible: bool


class Pair21Ansatz(NamedTuple):
    value: float
    fraction: float
    split: float
    feasible: bool


def _check_rank(state: FockDiagonalState, rank: int) -> None:
    if state.rank != rank:
        raise ValueError(f"state must span exactly {rank} levels, got {state.rank}")


def _best_fraction(s: float, a: float, b: float) -> tuple[float, float]:
    """Maximizer and maximum of s*(a*sqrt(f) + b*sqrt(1-f))² over f in [0, 1].

    By Cauchy-Schwarz the maximum is s*(a²+b²), reached at f = a²/(a²+b²).
    With a = b = 0 the objective vanishes identically and f = 1 is returned:
    the whole state is invested in the proportional atoms.
    """
    norm = a * a + b * b
    if norm == 0.0:
        return 1.0, 0.0
    return a * a / norm, s * norm


# ---------------------------------------------------------------------------
# three-level window


def rank3_triplet(state: FockDiagonalState) -> float:
    """Value of the symmetric sqrt-population decomposition (= simple bound)."""
    _check_rank(state, 3)
    n = state.offset
    p0, p1, p2 = state.populations
    cross = np.sqrt(p2 * (n + 2.0)) + np.sqrt(p0 * (n + 1.0))
    return 2.0 * p2 + p1 + n - cross**2 * p1


def rank3_upper_pair(state: FockDiagonalState) -> FractionAnsatz:
    """Pair the two upper levels; |n> enters the ensemble separately.

    The invested fraction f has the closed form
    (2+n) p2 / ((1+n) p1 + (3+2n) p2); the phase is feasible while the pair
    atoms' total probability (p1+p2)/f stays at most one.
    """
    _check_rank(state, 3)
    n = state.offset
    p0, p1, p2 = state.populations
    s = p1 + p2
    if s <= 0.0:
        raise DegenerateStateError("upper-pair ansatz needs p1 + p2 > 0")
    f = (2.0 + n) * p2 / ((1.0 + n) * p1 + (3.0 + 2.0 * n) * p2)
    if f <= 0.0:
        # p2 = 0: the pair carries no weight at any f, never a distinct phase.
        return FractionAnsatz(value=float("inf"), fraction=0.0, feasible=False)
    x = np.array([np.sqrt(1.0 - f), np.sqrt(f * p1 / s), np.sqrt(f * p2 / s)])
    value = mean_photon(state) - s / f * real_alpha(x, n) ** 2
    return FractionAnsatz(value=value, fraction=f, feasible=s <= f + _FEAS_TOL)


def rank3_lower_pair(state: FockDiagonalState) -> FractionAnsatz:
    """Pair the two lower levels; |n+2> enters the ensemble separately."""
    _check_rank(state, 3)
    n = state.offset
    p0, p1, p2 = state.populations
    if p2 >= 1.0:
        raise DegenerateStateError("lower-pair ansatz needs p2 < 1")
    g = ((1.0 + n) * (-1.0 + p1 + p2)) / (
        -3.0 - 2.0 * n + (1.0 + n) * p1 + (3.0 + 2.0 * n) * p2
    )
    if g <= 0.0:
        return FractionAnsatz(value=float("inf"), fraction=0.0, feasible=False)
    r = 1.0 - p2
    x = np.array([np.sqrt(g * p0 / r), np.sqrt(g * p1 / r), np.sqrt(1.0 - g)])
    value = mean_photon(state) - r / g * real_alpha(x, n) ** 2
    return FractionAnsatz(value=value, fraction=g, feasible=r <= g + _FEAS_TOL)


def classify_rank3(state: FockDiagonalState) -> AnsatzResult:
    """Best feasible three-level ansatz; ties prefer the triplet."""
    _check_rank(state, 3)
    candidates: list[tuple[PhaseLabel, float, dict]] = [
        (PhaseLabel.TRIPLET, rank3_triplet(state), {})
    ]
    try:
        up = rank3_upper_pair(state)
        if up.feasible:
            candidates.append((PhaseLabel.UPPER_PAIR, up.value, {"f": up.fraction}))
    except DegenerateStateError:
        pass
    try:
        low = rank3_lower_pair(state)
        if low.feasible:
            candidates.append((PhaseLabel.LOWER_PAIR, low.value, {"g": low.fraction}))
    except DegenerateStateError:
        pass
    best = min(v for _, v, _ in candidates)
    for label, value, params in candidates:
        if value <= best + _TIE_TOL:
            return AnsatzResult(label=label, value=value, params=params)
    raise AssertionError("unreachable")


# ---------------------------------------------------------------------------
# four-level window


def rank4_triplet(state: FockDiagonalState, k: int) -> FractionAnsatz:
    """Single out level n+k; the other three stay proportional in the atoms.

    The invested fraction f maximizes the probability-weighted coherence
    (1-p_k)/f * <a>²(f).  Links between two proportional levels scale as f
    and sum to A; links touching level n+k scale as sqrt(f(1-f)) and sum to
    B.  The phase is feasible while f is at least 1 - p_k.
    """
    _check_rank(state, 4)
    if not 0 <= k <= 3:
        raise ValueError(f"k must be in 0..3, got {k}")
    n = state.offset
    p = state.populations.tolist()
    if p[k] >= 1.0:
        raise DegenerateStateError(f"triplet-{k} ansatz needs p_(n+{k}) < 1")
    rest = 1.0 - p[k]
    a = b = 0.0
    for j in range(3):
        weight = math.sqrt(n + j + 1.0)
        if k == j:
            b += weight * math.sqrt(p[j + 1] / rest)
        elif k == j + 1:
            b += weight * math.sqrt(p[j] / rest)
        else:
            a += weight * math.sqrt(p[j] * p[j + 1]) / rest
    f, gain = _best_fraction(rest, a, b)
    return FractionAnsatz(
        value=mean_photon(state) - gain, fraction=f, feasible=f >= rest - _FEAS_TOL
    )


def rank4_pair(state: FockDiagonalState) -> Pair21Ansatz:
    """Pair the middle levels n+2, n+1; split |n+3> and |n> across the rest.

    The split g = (3+n) p2 / ((1+n) p1 + (3+n) p2) and the invested fraction
    f depend only on the window offset and the middle populations: the
    inner link scales as f, the two outer links as sqrt(f(1-f)).  Feasible
    while the pair atoms do not over-fill the total, top or bottom
    populations.
    """
    _check_rank(state, 4)
    n = state.offset
    p0, p1, p2, p3 = state.populations.tolist()
    s = p1 + p2
    if s <= 0.0:
        raise DegenerateStateError("pair ansatz needs p1 + p2 > 0")
    g = (3.0 + n) * p2 / ((1.0 + n) * p1 + (3.0 + n) * p2)
    a = math.sqrt(n + 2.0) * math.sqrt(p1 * p2) / s
    b = math.sqrt(n + 1.0) * math.sqrt((1.0 - g) * p1 / s) + math.sqrt(
        n + 3.0
    ) * math.sqrt(g * p2 / s)
    f, gain = _best_fraction(s, a, b)
    # f = 0 invests nothing in the pair atoms, which then cannot carry s
    feasible = f > 0.0 and s <= f + _FEAS_TOL
    if feasible:
        leftover = (1.0 - f) / f * s
        feasible = (
            leftover * g <= p3 + _FEAS_TOL and leftover * (1.0 - g) <= p0 + _FEAS_TOL
        )
    return Pair21Ansatz(
        value=mean_photon(state) - gain, fraction=f, split=g, feasible=feasible
    )


def classify_rank4(state: FockDiagonalState) -> AnsatzResult:
    """Best feasible four-level ansatz; ties prefer quartet, then triplets.

    Every result carries the upper-bound-only flag: the four-level phase map
    is approximate and slightly better decompositions exist for some states.
    """
    _check_rank(state, 4)
    candidates: list[tuple[PhaseLabel, float, dict]] = [
        (PhaseLabel.QUARTET, simple_bound(state), {})
    ]
    triplet_labels = (
        PhaseLabel.TRIPLET0,
        PhaseLabel.TRIPLET1,
        PhaseLabel.TRIPLET2,
        PhaseLabel.TRIPLET3,
    )
    for k in range(4):
        try:
            t = rank4_triplet(state, k)
        except DegenerateStateError:
            continue
        if t.feasible:
            candidates.append((triplet_labels[k], t.value, {f"f{k}": t.fraction}))
    try:
        pair = rank4_pair(state)
        if pair.feasible:
            candidates.append(
                (PhaseLabel.PAIR21, pair.value, {"f": pair.fraction, "g": pair.split})
            )
    except DegenerateStateError:
        pass
    best = min(v for _, v, _ in candidates)
    for label, value, params in candidates:
        if value <= best + _TIE_TOL:
            return AnsatzResult(
                label=label, value=value, params=params, upper_bound_only=True
            )
    raise AssertionError("unreachable")


def classify(state: FockDiagonalState) -> AnsatzResult:
    """Dispatch to the three- or four-level classifier."""
    if state.rank == 3:
        return classify_rank3(state)
    if state.rank == 4:
        return classify_rank4(state)
    raise ValueError(f"no ansatz catalogue for rank {state.rank}")

