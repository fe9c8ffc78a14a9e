from types import SimpleNamespace

import numpy as np
import pytest

from fockroof import FockDiagonalState, moments, phases


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
        alpha = moments(psi).alpha_bar
        sq += q * alpha**2
        mag += q * abs(alpha) ** 2
    return sq, mag


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
