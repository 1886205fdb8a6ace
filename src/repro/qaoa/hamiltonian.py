"""MaxCut cost Hamiltonians.

For a graph ``G=(V, E)`` the MaxCut cost Hamiltonian is
``H_c = sum_{(i,j) in E} w_ij (I - Z_i Z_j) / 2`` (paper Eq. 5; the paper
uses unit weights, and weighted MaxCut follows its reference [29]).
``H_c`` is diagonal in the computational basis, and its diagonal entry at
basis state ``z`` is the total weight of edges cut by the bit partition
``z`` -- which is what :func:`cut_values` computes, vectorized over all
``2**n`` states.  Edge weights are read from the ``weight`` edge attribute
and default to 1.
"""

from __future__ import annotations

import networkx as nx
import numpy as np

from repro.utils.graphs import edge_list, ensure_graph, is_weighted, relabel_to_range

__all__ = ["MAX_DENSE_QUBITS", "MaxCutHamiltonian", "cut_diagonal", "cut_values"]

# The one dense-engine qubit cap: diagonal builders, engine dispatch and
# the pipeline's readout guard all refuse to materialize 2**n beyond it.
MAX_DENSE_QUBITS = 26
# Basis states per block: 2**15 float64 values and terms (256 KB each) plus
# one bool mask per in-block qubit (32 KB each) stay resident in L2.
_BLOCK_QUBITS = 15


def cut_diagonal(num_qubits: int, pairs, weights) -> np.ndarray:
    """Weighted cut value of every basis state: array of shape ``(2**n,)``.

    Entry ``z`` is the sum of ``weights[k]`` over the pairs ``(u, v)`` whose
    bits ``u`` and ``v`` of ``z`` differ.  Built in blocks of ``2**15``
    basis states: inside a block the low qubits' bits form the same bool
    masks in every block and the high qubits' bits are constants, so each
    pair costs one ``np.not_equal``, one multiply and one add over a
    cache-resident block instead of several full-length uint64 passes.
    Every entry receives ``weight * cut_bit`` pair by pair, in the given
    order -- the arithmetic of the whole-vector shift-xor form -- so the
    result is bit-identical to it.
    """
    if num_qubits > MAX_DENSE_QUBITS:
        raise ValueError(
            f"refusing to materialize 2**{num_qubits} cut values; "
            "use the analytic or lightcone engines for large graphs"
        )
    size = 1 << num_qubits
    low = min(num_qubits, _BLOCK_QUBITS)
    block = 1 << low
    index = np.arange(block)
    masks = [((index >> q) & 1).astype(bool) for q in range(low)]
    values = np.zeros(size)
    cut = np.empty(block, dtype=bool)
    term = np.empty(block)
    for start in range(0, size, block):
        bits = masks + [bool((start >> q) & 1) for q in range(low, num_qubits)]
        out = values[start : start + block]
        for (u, v), weight in zip(pairs, weights):
            np.not_equal(bits[u], bits[v], out=cut)
            out += np.multiply(weight, cut, out=term)
    return values


def cut_values(graph: nx.Graph) -> np.ndarray:
    """Cut weight of every basis state: array of shape ``(2**n,)``.

    Nodes must be labeled ``0..n-1`` (use
    :func:`repro.utils.graphs.relabel_to_range` first if not).  Guarded at
    ``n <= 26`` to avoid accidental multi-GB allocations.  Edges contribute
    in ``graph.edges()`` order through :func:`cut_diagonal`.
    """
    ensure_graph(graph)
    n = graph.number_of_nodes()
    if set(graph.nodes()) != set(range(n)):
        raise ValueError("graph nodes must be 0..n-1; use relabel_to_range first")
    edges = list(graph.edges(data=True))
    return cut_diagonal(
        n,
        [(u, v) for u, v, _ in edges],
        [float(data.get("weight", 1.0)) for _, _, data in edges],
    )


class MaxCutHamiltonian:
    """The MaxCut problem instance wrapping a graph.

    Precomputes and caches the diagonal (cut-value vector) on first access.
    """

    def __init__(self, graph: nx.Graph):
        ensure_graph(graph)
        self.graph = relabel_to_range(graph)
        self.num_qubits = self.graph.number_of_nodes()
        self.edges = edge_list(self.graph)
        self.weights = tuple(
            float(self.graph[u][v].get("weight", 1.0)) for u, v in self.edges
        )
        self._diagonal: np.ndarray | None = None

    @property
    def is_weighted(self) -> bool:
        """Whether any edge carries a non-unit weight."""
        return is_weighted(self.graph)

    @property
    def diagonal(self) -> np.ndarray:
        """Cut values over the computational basis (cached)."""
        if self._diagonal is None:
            self._diagonal = cut_values(self.graph)
        return self._diagonal

    @property
    def num_edges(self) -> int:
        return len(self.edges)

    def max_value(self) -> float:
        """The true MaxCut value via the dense diagonal (small graphs only)."""
        return float(self.diagonal.max())

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"MaxCutHamiltonian(n={self.num_qubits}, m={self.num_edges})"
