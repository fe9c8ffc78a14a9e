from types import SimpleNamespace

import numpy as np
import pytest

from fockroof import FockDiagonalState, phases, simplex


def random_trimmed_state(rng, max_rank=4, max_offset=3, floor=0.05):
    """Random Fock-diagonal state with strictly positive edge populations.

    The default floor keeps every population resolvable on the delta = 0.05
    lattices the property tests run on.
    """
    rank = int(rng.integers(2, max_rank + 1))
    offset = int(rng.integers(0, max_offset + 1))
    pops = rng.dirichlet(np.ones(rank))
    pops = np.maximum(pops, floor)
    pops = pops / pops.sum()
    return FockDiagonalState(offset, pops)


def real_alpha(amplitudes, offset):
    """<a> of a window state with nonnegative real amplitudes.

    This is the phase-aligned coherence sum x_{k+1} x_k sqrt(n+k+1); its
    square is the objective kernel of the decomposition linear program.
    The phase tests compare the closed-form ansatzes against it.
    """
    x = np.asarray(amplitudes, dtype=float)
    norm_sq = float(np.sum(x * x))
    if abs(norm_sq - 1.0) > 1e-10:
        raise ValueError(f"amplitudes must have unit norm (got |x|^2={norm_sq!r})")
    if x.size == 1:
        return 0.0
    k = np.arange(x.size - 1)
    return float(np.sum(x[1:] * x[:-1] * np.sqrt(offset + k + 1.0)))


def window_alpha(psi):
    """<a> of a pure window state: the sum of conj(c_k) c_{k+1} sqrt(n+k+1)."""
    c = psi.amplitudes
    k = np.arange(c.size - 1)
    return complex(np.sum(np.conj(c[:-1]) * c[1:] * np.sqrt(psi.offset + k + 1.0)))


def kernel_ansatz(state, label):
    """The ``label`` ansatz of the phase kernel of ``state``'s rank, scored
    on ``state`` alone: scalar ``value``, ``feasible`` and ``params``."""
    rows = phases._KERNELS[state.rank](state.offset, state.populations[None, :])
    (ansatz,) = [a for a in rows if a.label is label]
    return SimpleNamespace(
        value=float(ansatz.value[0]),
        feasible=bool(np.all(ansatz.feasible)),
        params={name: float(v[0]) for name, v in ansatz.params.items()},
    )


def singular_on_second_refactor(monkeypatch):
    """Make the simplex refactorize after every pivot and find the basis
    singular on its second refactorization, as a drifted basis would be."""
    calls = []
    refactor = simplex._Tableau.refactor

    def failing(tab):
        calls.append(None)
        if len(calls) == 2:
            raise np.linalg.LinAlgError("Singular matrix")
        refactor(tab)

    monkeypatch.setattr(simplex, "_REFACTOR_EVERY", 1)
    monkeypatch.setattr(simplex._Tableau, "refactor", failing)


def parse_dump(path):
    """(objective, row matrix, rhs) of an LP written by ``write_lp``."""
    with open(path, encoding="ascii") as fh:
        header, objective, *rows = fh.read().splitlines()
    assert header == f"rows={len(rows)} cols={len(objective.split())}"
    table = np.array([[float(t) for t in row.split()] for row in rows])
    return np.array([float(t) for t in objective.split()]), table[:, :-1], table[:, -1]


def reconstruct_density(decomposition, rank):
    """Dense window-basis density matrix of an explicit ensemble."""
    rho = np.zeros((rank, rank), dtype=complex)
    for q, psi in decomposition.atoms:
        c = psi.amplitudes
        rho += q * np.outer(c, np.conj(c))
    return rho


def ensemble_alpha_stats(decomposition):
    """(sum q <a>^2, sum q |<a>|^2) over the ensemble."""
    sq = 0.0 + 0.0j
    mag = 0.0
    for q, psi in decomposition.atoms:
        alpha = window_alpha(psi)
        sq += q * alpha**2
        mag += q * abs(alpha) ** 2
    return sq, mag


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
