"""Reference oracles for the dense kernels: the straightforward forms.

The library's kernels are cache-blocked (:func:`repro.qaoa.hamiltonian.cut_diagonal`,
:func:`repro.qaoa.fast_sim.qaoa_statevector`); these whole-vector versions
are what they must reproduce bit for bit.
"""

from __future__ import annotations

import math

import networkx as nx
import numpy as np


def cut_diagonal_reference(num_qubits: int, pairs, weights) -> np.ndarray:
    """Shift-xor cut diagonal: one full-length pass per pair, in order."""
    z = np.arange(2**num_qubits, dtype=np.uint64)
    values = np.zeros(2**num_qubits, dtype=np.float64)
    for (u, v), weight in zip(pairs, weights):
        cut = ((z >> np.uint64(u)) ^ (z >> np.uint64(v))) & np.uint64(1)
        values += weight * cut
    return values


def cut_values_reference(graph: nx.Graph) -> np.ndarray:
    """Shift-xor cut diagonal of a ``0..n-1`` graph, edges in iteration order."""
    edges = list(graph.edges(data=True))
    return cut_diagonal_reference(
        graph.number_of_nodes(),
        [(u, v) for u, v, _ in edges],
        [float(data.get("weight", 1.0)) for _, _, data in edges],
    )


def biased_cost_diagonal_reference(hamiltonian, edge_phase_bias) -> np.ndarray:
    """Noisy cost-phase diagonal: edge ``e`` weighted by ``(1 + bias_e) * w_e``."""
    return cut_diagonal_reference(
        hamiltonian.num_qubits,
        hamiltonian.edges,
        [(1.0 + bias) * weight for weight, bias in zip(hamiltonian.weights, edge_phase_bias)],
    )


def _rx_update(a: np.ndarray, b: np.ndarray, c: float, s: float) -> None:
    js = 1j * s
    top = c * a - js * b
    b *= c
    b -= js * a
    a[...] = top


def statevector_reference(hamiltonian, gammas, betas) -> np.ndarray:
    """Per layer: whole-state phase multiply, then RX qubit by qubit."""
    n = hamiltonian.num_qubits
    diag = hamiltonian.diagonal
    state = np.full(2**n, 1.0 / math.sqrt(2**n), dtype=complex)
    for gamma, beta in zip(gammas, betas):
        state *= np.exp(-1j * gamma * diag)
        c = math.cos(beta)
        s = math.sin(beta)
        for q in range(n):
            view = state.reshape(-1, 2, 2**q)
            _rx_update(view[:, 0, :], view[:, 1, :], c, s)
    return state


def same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    """Exact equality, down to the sign of zero and NaN payloads."""
    a = np.ascontiguousarray(a)
    b = np.ascontiguousarray(b)
    return a.dtype == b.dtype and np.array_equal(a.view(np.uint64), b.view(np.uint64))
