"""Invariants of the incremental annealing state under random walks.

Drives :class:`repro.core.annealer._IncrementalState` through random
propose/commit sequences on unweighted, uniform, gaussian and spin-weighted
graphs and on problem coupling graphs with field self-loops, and checks
its bookkeeping against networkx recomputed from scratch:

- after every commit, the articulation flags equal
  ``nx.articulation_points`` of the induced subgraph, and the per-node
  in-subgraph edge counts and strengths equal a recount;
- on every proposal attempt, the connectivity verdict equals
  ``nx.is_connected`` of the swapped subgraph, and a proposed swap's
  objective equals the per-call oracle's bit for bit.
"""

from fractions import Fraction

import networkx as nx
import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from _kernel_oracles import and_difference_objective
from repro.core.annealer import _IncrementalState
from repro.problems import max_independent_set_problem
from repro.utils.graphs import average_node_strength, connected_random_subgraph

KINDS = ("unweighted", "uniform", "gaussian", "spin", "fields")


def _instance(kind: str, n: int, p: float, seed: int) -> nx.Graph:
    graph = nx.gnp_random_graph(n, p, seed=seed)
    if kind == "fields":
        # MIS puts a field on every node: self-loops of weight 2 h_u.
        return max_independent_set_problem(graph).coupling_graph(include_fields=True)
    rng = np.random.default_rng(seed)
    for u, v in graph.edges():
        if kind == "uniform":
            graph[u][v]["weight"] = float(rng.uniform(0.25, 2.0))
        elif kind == "gaussian":
            graph[u][v]["weight"] = float(rng.normal(0.0, 1.0))
        elif kind == "spin":
            graph[u][v]["weight"] = float(rng.choice([-1.0, 1.0]))
    return graph


def _check_bookkeeping(graph: nx.Graph, state: _IncrementalState) -> None:
    labels = state._labels
    members = state.snapshot()
    induced = graph.subgraph(members)
    flags = state._articulation_flags()
    flagged = {labels[i] for i in range(len(labels)) if flags[i]}
    assert flagged == set(nx.articulation_points(induced))
    for i, v in enumerate(labels):
        inside = [u for u in graph.neighbors(v) if u in members and u != v]
        assert state._cnt[i] == len(inside)
        strength = sum(Fraction(abs(graph[v][u].get("weight", 1.0))) for u in inside)
        assert Fraction(state._sin[i], state._denom) == strength


@settings(max_examples=40, deadline=None)
@given(
    kind=st.sampled_from(KINDS),
    n=st.integers(min_value=4, max_value=18),
    p=st.floats(min_value=0.12, max_value=0.6),
    seed=st.integers(min_value=0, max_value=10**6),
    k_fraction=st.floats(min_value=0.1, max_value=0.95),
    commits=st.lists(st.booleans(), min_size=1, max_size=60),
)
def test_random_walk_keeps_state_exact(kind, n, p, seed, k_fraction, commits):
    graph = _instance(kind, n, p, seed)
    if graph.number_of_edges() == 0:
        return
    largest = max(len(c) for c in nx.connected_components(graph))
    k = max(1, min(largest, round(k_fraction * largest)))
    rng = np.random.default_rng(seed)
    start = connected_random_subgraph(graph, k, rng)
    target = average_node_strength(graph)
    state = _IncrementalState(graph, start, target)
    labels = state._labels

    verdicts = []
    query = state._connected_after

    def recording_query(removed, added):
        verdict = query(removed, added)
        verdicts.append((labels[removed], labels[added], verdict))
        return verdict

    state._connected_after = recording_query
    _check_bookkeeping(graph, state)
    for commit in commits:
        members = state.snapshot()
        verdicts.clear()
        objective = state.propose(rng)
        for removed, added, verdict in verdicts:
            swapped = (members - {removed}) | {added}
            assert verdict == nx.is_connected(graph.subgraph(swapped))
        if state._pending is not None:
            removed, added, _ = state._pending
            swapped = (members - {labels[removed]}) | {labels[added]}
            assert objective == and_difference_objective(graph, swapped, target)
        if commit:
            state.commit()
            _check_bookkeeping(graph, state)
