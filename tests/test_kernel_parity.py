"""Exact parity of the cache-blocked dense kernels with their reference forms.

The cut-diagonal blocks are ``2**15`` basis states and the statevector
blocks ``2**14`` amplitudes, so sizes 14-17 put every kind of edge and
qubit (inside a block, across blocks, both) through both kernels.
Equality is on the raw bits, not within a tolerance.
"""

from __future__ import annotations

import networkx as nx
import numpy as np
import pytest

from _kernel_oracles import (
    biased_cost_diagonal_reference,
    cut_diagonal_reference,
    cut_values_reference,
    same_bits,
    statevector_reference,
)
from repro.qaoa.fast_sim import (
    FastNoiseSpec,
    _biased_cost_diagonal,
    qaoa_expectation_fast,
    qaoa_statevector,
)
from repro.qaoa.hamiltonian import MaxCutHamiltonian, cut_diagonal, cut_values

SIZES = (1, 2, 14, 15, 16, 17)
# Negative, zero, non-dyadic and tiny weights: every rounding case of the sum.
WEIGHTS = (1.0, -0.7, 0.0, 1.0 / 3.0, 2.5, 0.1, -1e-3, 7.25)


def weighted_graph(n: int, seed: int) -> nx.Graph:
    rng = np.random.default_rng(seed)
    graph = nx.gnp_random_graph(n, 0.3, seed=seed)
    if n >= 2:
        graph.add_edge(0, n - 1)  # first and last qubit: the widest pair
    for u, v in graph.edges():
        graph[u][v]["weight"] = float(rng.choice(WEIGHTS))
    return graph


@pytest.mark.parametrize(
    "graph",
    [weighted_graph(n, seed=n) for n in SIZES] + [nx.cycle_graph(16), nx.empty_graph(15)],
    ids=[f"weighted-n{n}" for n in SIZES] + ["cycle-n16", "empty-n15"],
)
def test_cut_values_match_shift_xor_reference(graph):
    assert same_bits(cut_values(graph), cut_values_reference(graph))


def test_cut_values_non_finite_weights():
    """Uncut pairs add ``w * 0`` exactly as the reference does (NaN for inf)."""
    graph = weighted_graph(16, seed=3)
    u, v = next(iter(graph.edges()))
    graph[u][v]["weight"] = float("inf")
    with np.errstate(invalid="ignore"):
        assert same_bits(cut_values(graph), cut_values_reference(graph))


@pytest.mark.parametrize("width", (5, 15, 16))
def test_cut_diagonal_on_layout_mapped_pairs(width):
    """The executor's use: logical edges mapped onto a wider physical register."""
    graph = weighted_graph(5, seed=width)
    layout = np.random.default_rng(width).permutation(width)[:5]
    pairs = [(int(layout[u]), int(layout[v])) for u, v in graph.edges()]
    weights = [graph[u][v]["weight"] for u, v in graph.edges()]
    assert same_bits(
        cut_diagonal(width, pairs, weights), cut_diagonal_reference(width, pairs, weights)
    )


@pytest.mark.parametrize("n", SIZES)
@pytest.mark.parametrize("p", (1, 2, 3))
def test_statevector_matches_per_qubit_reference(n, p):
    hamiltonian = MaxCutHamiltonian(weighted_graph(n, seed=10 * n + p))
    rng = np.random.default_rng(p)
    gammas = rng.uniform(-np.pi, np.pi, size=p)
    betas = rng.uniform(-np.pi, np.pi, size=p)
    got = qaoa_statevector(hamiltonian, gammas, betas)
    want = statevector_reference(hamiltonian, gammas, betas)
    assert same_bits(got, want)
    probs = np.abs(want) ** 2
    assert qaoa_expectation_fast(hamiltonian, gammas, betas) == float(
        probs @ hamiltonian.diagonal
    )


@pytest.mark.parametrize("n", (2, 15, 16))
def test_biased_noisy_diagonal_matches_reference(n):
    hamiltonian = MaxCutHamiltonian(weighted_graph(n, seed=n + 100))
    biases = tuple(
        float(b) for b in np.random.default_rng(n).normal(0.0, 0.05, hamiltonian.num_edges)
    )
    noise = FastNoiseSpec(edge_phase_bias=biases)
    assert same_bits(
        _biased_cost_diagonal(hamiltonian, noise),
        biased_cost_diagonal_reference(hamiltonian, biases),
    )
