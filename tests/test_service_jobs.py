"""Tests for repro.service.jobs: canonical fingerprints and job execution.

The property pinned by the hypothesis tests is the service's cornerstone:
isomorphic relabelings and node-order permutations of the same weighted
instance produce identical :class:`JobSpec` fingerprints (and distinct
weights produce distinct ones).  With all-distinct edge weights this is a
theorem, not a heuristic -- every node's incident-weight multiset is
unique, so the refined structural keys separate all non-automorphic nodes
and the canonical numbering cannot depend on labels.
"""

import math

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.problems import DiagonalProblem
from repro.service.jobs import (
    JobResult,
    JobSpec,
    canonical_graph_form,
    run_job,
)


def _distinct_weighted_graph(n: int, extra_edges: int, seed: int) -> nx.Graph:
    """Connected graph on ``n`` nodes whose edge weights are all distinct."""
    rng = np.random.default_rng(seed)
    graph = nx.Graph()
    graph.add_nodes_from(range(n))
    order = list(rng.permutation(n))
    for a, b in zip(order, order[1:]):  # random spanning tree
        graph.add_edge(int(a), int(b))
    for _ in range(extra_edges):
        u, v = rng.integers(0, n, size=2)
        if u != v:
            graph.add_edge(int(u), int(v))
    for index, (u, v) in enumerate(sorted((min(u, v), max(u, v)) for u, v in graph.edges())):
        graph[u][v]["weight"] = 0.25 * (index + 1)
    return graph


def _permuted(graph: nx.Graph, seed: int) -> nx.Graph:
    rng = np.random.default_rng(seed)
    nodes = sorted(graph.nodes())
    shuffled = list(rng.permutation(nodes))
    return nx.relabel_nodes(graph, {a: int(b) for a, b in zip(nodes, shuffled)})


class TestGraphFingerprints:
    @settings(max_examples=30, deadline=None)
    @given(
        n=st.integers(min_value=3, max_value=9),
        extra=st.integers(min_value=0, max_value=8),
        seed=st.integers(min_value=0, max_value=10**6),
        perm_seed=st.integers(min_value=0, max_value=10**6),
    )
    def test_property_isomorphic_relabelings_share_fingerprint(
        self, n, extra, seed, perm_seed
    ):
        graph = _distinct_weighted_graph(n, extra, seed)
        relabeled = _permuted(graph, perm_seed)
        assert JobSpec(graph=graph).fingerprint == JobSpec(graph=relabeled).fingerprint
        assert (
            JobSpec(graph=graph).instance_fingerprint
            == JobSpec(graph=relabeled).instance_fingerprint
        )

    @settings(max_examples=30, deadline=None)
    @given(
        n=st.integers(min_value=3, max_value=9),
        extra=st.integers(min_value=0, max_value=8),
        seed=st.integers(min_value=0, max_value=10**6),
        bump=st.integers(min_value=1, max_value=100),
    )
    def test_property_distinct_weights_distinct_fingerprints(self, n, extra, seed, bump):
        graph = _distinct_weighted_graph(n, extra, seed)
        modified = nx.Graph(graph)
        u, v = sorted(modified.edges())[0]
        modified[u][v]["weight"] += 0.125 * bump
        assert JobSpec(graph=graph).fingerprint != JobSpec(graph=modified).fingerprint

    @pytest.mark.parametrize(
        "graph",
        [
            nx.cycle_graph(7),
            nx.path_graph(6),
            nx.complete_graph(5),
            nx.petersen_graph(),
            nx.erdos_renyi_graph(9, 0.4, seed=3),
        ],
        ids=["cycle", "path", "complete", "petersen", "er"],
    )
    def test_unweighted_permutation_invariance(self, graph):
        base = JobSpec(graph=graph).fingerprint
        for perm_seed in range(4):
            relabeled = _permuted(graph, perm_seed)
            assert JobSpec(graph=relabeled).fingerprint == base

    def test_canonical_form_is_a_permutation_and_idempotent(self):
        graph = _distinct_weighted_graph(8, 5, 0)
        ordering, edges = canonical_graph_form(graph)
        assert sorted(ordering) == sorted(graph.nodes())
        # Edges live in canonical labels and reproduce the weights exactly.
        assert all(0 <= u <= v < 8 for u, v, _ in edges)
        assert sorted(w for _, _, w in edges) == sorted(
            data["weight"] for _, _, data in graph.edges(data=True)
        )
        # Canonicalizing the canonical graph is the identity.
        canonical = nx.Graph()
        canonical.add_nodes_from(range(8))
        canonical.add_weighted_edges_from(edges)
        ordering2, edges2 = canonical_graph_form(canonical)
        assert edges2 == edges
        assert ordering2 == list(range(8))

    def test_disconnected_graph_fingerprints(self):
        graph = nx.Graph()
        graph.add_edge(0, 1, weight=0.5)
        graph.add_edge(2, 3, weight=1.5)
        graph.add_node(4)
        relabeled = _permuted(graph, 11)
        assert JobSpec(graph=graph).fingerprint == JobSpec(graph=relabeled).fingerprint


class TestProblemFingerprints:
    @settings(max_examples=25, deadline=None)
    @given(
        n=st.integers(min_value=3, max_value=9),
        seed=st.integers(min_value=0, max_value=10**6),
        perm_seed=st.integers(min_value=0, max_value=10**6),
    )
    def test_property_permuted_problems_share_fingerprint(self, n, seed, perm_seed):
        rng = np.random.default_rng(seed)
        couplings = {}
        scale = 1
        for u in range(n):
            for v in range(u + 1, n):
                if rng.random() < 0.5:
                    couplings[(u, v)] = 0.125 * scale  # all-distinct magnitudes
                    scale += 1
        fields = {u: 0.0625 * (scale + u) for u in range(n) if rng.random() < 0.5}
        problem = DiagonalProblem(n, couplings, fields, constant=0.75, name="ising")
        perm = list(np.random.default_rng(perm_seed).permutation(n))
        permuted = DiagonalProblem(
            n,
            {(int(perm[u]), int(perm[v])): j for (u, v), j in couplings.items()},
            {int(perm[u]): h for u, h in fields.items()},
            constant=0.75,
            name="ising",
        )
        assert JobSpec(problem=problem).fingerprint == JobSpec(problem=permuted).fingerprint

    def test_constant_and_field_changes_change_fingerprint(self):
        problem = DiagonalProblem(4, {(0, 1): -0.5, (1, 2): 0.25}, {0: 0.5})
        base = JobSpec(problem=problem).fingerprint
        shifted = DiagonalProblem(4, {(0, 1): -0.5, (1, 2): 0.25}, {0: 0.5}, constant=1.0)
        refielded = DiagonalProblem(4, {(0, 1): -0.5, (1, 2): 0.25}, {0: 0.75})
        assert JobSpec(problem=shifted).fingerprint != base
        assert JobSpec(problem=refielded).fingerprint != base

    def test_name_is_reporting_only(self):
        a = DiagonalProblem(3, {(0, 1): -0.5}, name="alpha")
        b = DiagonalProblem(3, {(0, 1): -0.5}, name="beta")
        assert JobSpec(problem=a).fingerprint == JobSpec(problem=b).fingerprint


class TestConfigFingerprints:
    def test_config_changes_job_but_not_instance_fingerprint(self):
        graph = _distinct_weighted_graph(8, 4, 1)
        base = JobSpec(graph=graph, maxiter=20)
        other = JobSpec(graph=graph, maxiter=30)
        assert base.instance_fingerprint == other.instance_fingerprint
        assert base.fingerprint != other.fingerprint

    def test_seed_and_threshold_change_instance_fingerprint(self):
        graph = _distinct_weighted_graph(8, 4, 2)
        base = JobSpec(graph=graph)
        assert JobSpec(graph=graph, seed=1).instance_fingerprint != base.instance_fingerprint
        assert (
            JobSpec(graph=graph, and_ratio_threshold=0.8).instance_fingerprint
            != base.instance_fingerprint
        )

    def test_label_never_enters_the_fingerprint(self):
        graph = _distinct_weighted_graph(7, 3, 3)
        assert (
            JobSpec(graph=graph, label="a").fingerprint
            == JobSpec(graph=graph, label="b").fingerprint
        )

    @pytest.mark.parametrize("seed", [True, "3", 2.7, 3.0, np.int64(3), None])
    def test_non_int_seed_is_refused(self, seed):
        """A seed enters the fingerprint as given, so ``"3"`` would run seed
        3's instance under another fingerprint and ``np.int64(3)`` would
        fail only when hashed."""
        with pytest.raises(ValueError, match=r"^seed must be an int, got "):
            JobSpec(graph=nx.path_graph(3), seed=seed)

    def test_exactly_one_workload_required(self):
        problem = DiagonalProblem(3, {(0, 1): -0.5})
        with pytest.raises(ValueError):
            JobSpec()
        with pytest.raises(ValueError):
            JobSpec(graph=nx.path_graph(3), problem=problem)


class TestRunJob:
    def test_same_spec_runs_bit_identically(self):
        graph = _distinct_weighted_graph(9, 6, 4)
        spec = JobSpec(graph=graph, restarts=2, maxiter=8)
        assert run_job(spec) == run_job(spec)

    def test_isomorphic_specs_share_everything_but_labels(self):
        graph = _distinct_weighted_graph(9, 6, 5)
        relabeled = _permuted(graph, 6)
        spec_a = JobSpec(graph=graph, restarts=2, maxiter=8)
        spec_b = JobSpec(graph=relabeled, restarts=2, maxiter=8)
        result_a, result_b = run_job(spec_a), run_job(spec_b)
        assert result_a == result_b  # canonical results are identical
        assignment_a = result_a.assignment_for(spec_a)
        assignment_b = result_b.assignment_for(spec_b)
        assert sorted(assignment_a) == sorted(graph.nodes())
        assert sorted(assignment_b) == sorted(relabeled.nodes())
        # The two assignments induce the same cut value on their own graphs.
        def cut(graph, bits):
            return sum(
                data.get("weight", 1.0)
                for u, v, data in graph.edges(data=True)
                if bits[u] != bits[v]
            )
        assert math.isclose(cut(graph, assignment_a), cut(relabeled, assignment_b))

    def test_problem_job_runs_and_maps_assignment(self):
        problem = DiagonalProblem(
            6, {(0, 1): -0.5, (1, 2): -0.75, (2, 3): -0.25, (3, 4): -1.0, (4, 5): -0.125},
            {0: 0.5},
            name="chain",
        )
        spec = JobSpec(problem=problem, restarts=1, maxiter=8)
        result = run_job(spec)
        assert len(result.bits) == 6
        assignment = result.assignment_for(spec)
        assert sorted(assignment) == list(range(6))
        assert math.isclose(
            result.best_value, problem.value([assignment[u] for u in range(6)])
        )

    def test_store_payload_round_trip_is_exact(self):
        graph = _distinct_weighted_graph(8, 5, 7)
        spec = JobSpec(graph=graph, restarts=1, maxiter=8)
        result = run_job(spec)
        rebuilt = JobResult.from_payload(
            result.fingerprint, result.instance_fingerprint, result.to_payload()
        )
        rebuilt.source = "computed"
        assert rebuilt == result
