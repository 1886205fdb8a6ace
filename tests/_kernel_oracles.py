"""Reference oracles: the straightforward forms the library must reproduce.

- The cache-blocked dense kernels must equal the whole-vector forms here
  bit for bit.
- The incremental annealer must equal :func:`reference_simulated_annealing`
  (per-call networkx recomputation of :func:`and_difference_objective`,
  run through the library's own annealing driver) bit for bit.
- ``AdaptiveCooling`` must give :class:`ReferenceAdaptiveCooling`'s
  temperatures bit for bit.
- Compiled lightcone plans must agree to 1e-12 with
  :func:`lightcone_expectation_reference`, which re-discovers structure
  and simulates every signature class on a full statevector per call.
"""

from __future__ import annotations

import math
from collections.abc import Iterable

import networkx as nx
import numpy as np

from repro.core.annealer import _anneal
from repro.core.cooling import CoolingSchedule
from repro.qaoa.expectation import coerce_params
from repro.qaoa.fast_sim import qaoa_expectation_fast, qaoa_probabilities
from repro.qaoa.hamiltonian import MaxCutHamiltonian
from repro.qaoa.lightcone import (
    LightconeTooLargeError,
    _edge_weight,
    _signature,
    edge_lightcone,
)
from repro.utils.graphs import average_node_strength, ensure_graph
from repro.utils.rng import as_generator


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


# -- the annealer ----------------------------------------------------------------


def is_connected_subset(graph: nx.Graph, nodes: Iterable) -> bool:
    """Whether ``nodes`` induce a connected subgraph of ``graph``."""
    nodes = set(nodes)
    if not nodes:
        return False
    if not nodes.issubset(graph.nodes()):
        raise ValueError("nodes must all belong to the graph")
    return nx.is_connected(graph.subgraph(nodes))


def neighbor_swap(graph: nx.Graph, nodes: set, seed=None, max_attempts: int = 200) -> set:
    """One SA move (Algorithm 1): swap a random inside node for a random
    outside node adjacent to the rest, if the result stays connected; after
    ``max_attempts`` failed trials, ``nodes`` unchanged."""
    nodes = set(nodes)
    outside = sorted(set(graph.nodes()) - nodes)
    if not outside or not nodes:
        return set(nodes)
    rng = as_generator(seed)
    inside = sorted(nodes)
    for _ in range(max_attempts):
        removed = inside[int(rng.integers(len(inside)))]
        kept = nodes - {removed}
        candidates = [v for v in outside if any(u in kept for u in graph.neighbors(v))]
        if not candidates:
            continue
        added = candidates[int(rng.integers(len(candidates)))]
        candidate = kept | {added}
        if len(candidate) == 1 or nx.is_connected(graph.subgraph(candidate)):
            return candidate
    return set(nodes)


def subgraph_and(graph: nx.Graph, nodes: Iterable) -> float:
    """Weighted AND (strength) of the subgraph of ``graph`` induced by ``nodes``.

    Uses weight magnitudes, matching
    :func:`~repro.utils.graphs.average_node_strength`: the QAOA landscape
    depends on ``cos(gamma * w)`` (even in ``w``) and signed sums cancel on
    spin glasses.  The strength sum is an ``math.fsum`` (correctly rounded,
    order-independent), which is what lets the incremental annealer
    reproduce this value bit for bit from exact integer updates.
    """
    nodes = set(nodes)
    if not nodes:
        raise ValueError("node set must be non-empty")
    sub = graph.subgraph(nodes)
    total = math.fsum(abs(data.get("weight", 1.0)) for _, _, data in sub.edges(data=True))
    return 2.0 * total / len(nodes)


def and_difference_objective(graph: nx.Graph, nodes: Iterable, target_and: float | None = None) -> float:
    """``|AND(subgraph) - AND(G)|`` -- the quantity Algorithm 1 minimizes.

    Both ANDs are weighted (strength-based); on unit-weight graphs this is
    the paper's unweighted AND difference bit for bit.  ``target_and``
    overrides the original graph's AND when the caller has already
    computed it.
    """
    ensure_graph(graph)
    if target_and is None:
        target_and = average_node_strength(graph)
    return abs(subgraph_and(graph, nodes) - target_and)


class ReferenceState:
    """Annealing state with per-call networkx recomputation."""

    def __init__(self, graph: nx.Graph, start: set, target_and: float) -> None:
        self._graph = graph
        self._target = target_and
        self._current = set(start)
        self._pending: set | None = None
        self.objective = and_difference_objective(graph, self._current, target_and)

    def propose(self, rng: np.random.Generator) -> float:
        self._pending = neighbor_swap(self._graph, self._current, rng)
        return and_difference_objective(self._graph, self._pending, self._target)

    def commit(self) -> None:
        if self._pending is not None:
            self._current = self._pending

    def snapshot(self) -> set:
        return set(self._current)


def reference_simulated_annealing(graph, k, cooling="adaptive", seed=None, max_steps=None):
    """:func:`repro.core.annealer.simulated_annealing` on :class:`ReferenceState`."""
    return _anneal(graph, k, cooling, seed, max_steps, ReferenceState)


class ReferenceAdaptiveCooling(CoolingSchedule):
    """Adaptive cooling as first written: a list window trimmed with
    ``pop(0)`` and an acceptance rate summed over the window every step."""

    def __init__(self, slow_alpha: float = 0.99, fast_alpha: float = 0.90, window: int = 20):
        self.slow_alpha = slow_alpha
        self.fast_alpha = fast_alpha
        self.window = window
        self._history: list[bool] = []

    def reset(self) -> None:
        self._history = []

    def next_temperature(self, temperature: float, accepted: bool) -> float:
        self._history.append(accepted)
        if len(self._history) > self.window:
            self._history.pop(0)
        acceptance_rate = sum(self._history) / len(self._history)
        alpha = self.slow_alpha + (self.fast_alpha - self.slow_alpha) * acceptance_rate
        return alpha * temperature


# -- the lightcone plan ----------------------------------------------------------


def _edge_term(graph: nx.Graph, edge, nodes: set, gammas, betas) -> float:
    """``<C_uv> = w_uv P(edge cut)`` on the induced lightcone subgraph."""
    sub = graph.subgraph(nodes)
    mapping = {node: index for index, node in enumerate(sorted(sub.nodes()))}
    hamiltonian = MaxCutHamiltonian(nx.relabel_nodes(sub, mapping))
    probs = qaoa_probabilities(hamiltonian, list(gammas), list(betas))
    u, v = mapping[edge[0]], mapping[edge[1]]
    z = np.arange(probs.size, dtype=np.uint64)
    cut = ((z >> np.uint64(u)) ^ (z >> np.uint64(v))) & np.uint64(1)
    return _edge_weight(graph, *edge) * float(probs @ cut.astype(float))


def lightcone_expectation_reference(
    graph: nx.Graph, gammas, betas, max_qubits: int = 20, stats: dict | None = None
) -> float:
    """Per-call lightcone expectation; ``stats`` receives the plan's stats keys."""
    gammas, betas = coerce_params(gammas, betas)
    p = len(gammas)
    cache: dict[object, float] = {}
    total = 0.0
    num_edges = 0
    for edge in graph.edges():
        nodes = edge_lightcone(graph, edge, p)
        if len(nodes) > max_qubits:
            raise LightconeTooLargeError(f"edge {edge}: {len(nodes)} > {max_qubits} nodes")
        key = _signature(graph, edge, nodes)
        if key not in cache:
            cache[key] = _edge_term(graph, edge, nodes, gammas, betas)
        total += cache[key]
        num_edges += 1
    if stats is not None:
        stats.update(edges=num_edges, evaluations=len(cache), hits=num_edges - len(cache))
    return total


# -- problems --------------------------------------------------------------------


def problem_expectation_reference(problem, gammas, betas) -> float:
    """Dense-diagonal statevector expectation of a diagonal problem."""
    return qaoa_expectation_fast(problem, *coerce_params(gammas, betas))
