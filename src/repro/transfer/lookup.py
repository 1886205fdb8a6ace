"""Warm-start parameter lookup from a precomputed donor library.

Sec. 7.2 of the paper positions warm-start techniques (and the authors' own
directed-restart/graph-lookup companion work [21]) as complementary to
Red-QAOA.  This module implements the lookup side: a small library of
optimal p=1 parameters for random regular graphs, indexed by node degree.
Given a new graph, :meth:`ParameterLookup.warm_start` returns the library
entry whose degree is closest to the graph's Average Node Degree -- a good
initialization because landscapes concentrate by AND (the same fact
Red-QAOA's reducer exploits).

Entries are computed lazily with the analytic p=1 engine (grid search +
COBYLA polish) and cached per instance.
"""

from __future__ import annotations

import networkx as nx
import numpy as np

from repro.qaoa.analytic import maxcut_p1_expectation
from repro.qaoa.optimizer import cobyla_optimize, grid_search
from repro.utils.graphs import average_node_degree, ensure_graph
from repro.utils.rng import as_generator

__all__ = ["ParameterLookup"]

_MIN_DEGREE = 1
_MAX_DEGREE = 12
POLISH_MAXITER = 40  # COBYLA steps polishing each entry's grid optimum


class ParameterLookup:
    """Degree-indexed library of optimal p=1 QAOA parameters.

    Parameters
    ----------
    donor_nodes:
        Size of the random regular donor graphs used to build entries.
    grid_width:
        Grid-scan width for each entry, before a ``POLISH_MAXITER``-step
        COBYLA polish.
    """

    def __init__(
        self,
        donor_nodes: int = 16,
        grid_width: int = 16,
        seed: int | np.random.Generator | None = 0,
    ) -> None:
        if donor_nodes < 4:
            raise ValueError(f"donor_nodes must be >= 4, got {donor_nodes}")
        self.donor_nodes = donor_nodes
        self.grid_width = grid_width
        self._rng = as_generator(seed)
        self._table: dict[int, tuple[float, float]] = {}

    def entry(self, degree: int) -> tuple[float, float]:
        """Optimal (gamma, beta) for random ``degree``-regular graphs."""
        if not _MIN_DEGREE <= degree <= _MAX_DEGREE:
            raise ValueError(
                f"degree must be in [{_MIN_DEGREE}, {_MAX_DEGREE}], got {degree}"
            )
        if degree not in self._table:
            self._table[degree] = self._optimize_donor(degree)
        return self._table[degree]

    def warm_start(self, graph: nx.Graph) -> tuple[float, float]:
        """(gamma, beta) initialization for ``graph`` by AND matching."""
        ensure_graph(graph)
        if graph.number_of_edges() == 0:
            raise ValueError("graph must have edges")
        degree = int(round(average_node_degree(graph)))
        degree = min(max(degree, _MIN_DEGREE), _MAX_DEGREE)
        return self.entry(degree)

    def warm_start_vector(self, graph: nx.Graph, p: int = 1) -> np.ndarray:
        """Initial point ``[gammas..., betas...]`` for the optimizer.

        For ``p > 1`` the p=1 point is tiled with a linear ramp, the standard
        heuristic for extending shallow optima to deeper circuits.
        """
        if p < 1:
            raise ValueError(f"p must be >= 1, got {p}")
        gamma, beta = self.warm_start(graph)
        if p == 1:
            return np.array([gamma, beta])
        ramp = np.linspace(0.75, 1.25, p)
        gammas = gamma * ramp
        betas = beta * ramp[::-1]
        return np.concatenate([gammas, betas])

    # -- internals ----------------------------------------------------------

    def _optimize_donor(self, degree: int) -> tuple[float, float]:
        donor = self._donor_graph(degree)
        fn = lambda gammas, betas: maxcut_p1_expectation(
            donor, float(gammas[0]), float(betas[0])
        )
        (gamma, beta), _, _ = grid_search(fn, width=self.grid_width)
        trace = cobyla_optimize(
            fn,
            p=1,
            initial=np.array([gamma, beta]),
            maxiter=POLISH_MAXITER,
            rhobeg=0.15,
            seed=self._rng,
        )
        gammas, betas = trace.best_parameters
        return float(gammas[0]), float(betas[0])

    def _donor_graph(self, degree: int) -> nx.Graph:
        nodes = max(self.donor_nodes, degree + 1)
        if (degree * nodes) % 2 == 1:
            nodes += 1
        if degree == 1:
            # 1-regular graphs are perfect matchings; one edge suffices.
            return nx.Graph([(0, 1)])
        for _ in range(50):
            graph = nx.random_regular_graph(degree, nodes, seed=self._rng)
            if nx.is_connected(graph):
                return graph
        raise RuntimeError(f"could not draw a connected {degree}-regular donor")
