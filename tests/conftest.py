"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import networkx as nx
import numpy as np
import pytest


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(1234)


@pytest.fixture
def triangle() -> nx.Graph:
    """The 3-cycle: smallest graph with a non-trivial MaxCut (value 2)."""
    return nx.cycle_graph(3)


@pytest.fixture
def square() -> nx.Graph:
    """The 4-cycle: bipartite, MaxCut cuts all 4 edges."""
    return nx.cycle_graph(4)


@pytest.fixture
def small_er_graph() -> nx.Graph:
    """A connected 8-node Erdős–Rényi graph used across modules."""
    graph = nx.erdos_renyi_graph(8, 0.45, seed=11)
    assert nx.is_connected(graph)
    return graph


@pytest.fixture
def medium_er_graph() -> nx.Graph:
    """A connected 12-node Erdős–Rényi graph."""
    graph = nx.erdos_renyi_graph(12, 0.35, seed=5)
    assert nx.is_connected(graph)
    return graph


def random_connected_graph(num_nodes: int, probability: float, seed: int) -> nx.Graph:
    """Deterministic connected G(n, p) helper for parametrized tests."""
    seed_offset = 0
    while True:
        graph = nx.erdos_renyi_graph(num_nodes, probability, seed=seed + seed_offset)
        if graph.number_of_edges() and nx.is_connected(graph):
            return graph
        seed_offset += 1000


@pytest.fixture
def reduce_calls(monkeypatch) -> list:
    """The graph of every ``GraphReducer.reduce`` call made while the test runs."""
    from repro.core.reduction import GraphReducer

    calls: list = []
    original = GraphReducer.reduce

    def counting(self, graph, *args, **kwargs):
        calls.append(graph)
        return original(self, graph, *args, **kwargs)

    monkeypatch.setattr(GraphReducer, "reduce", counting)
    return calls


@pytest.fixture
def unevaluable_spec():
    """A 30-qubit SK job at p=2: no exact engine prices it."""
    from repro.problems import sk_problem
    from repro.service import JobSpec

    return JobSpec(problem=sk_problem(30, seed=0), p=2, restarts=1, maxiter=4)
