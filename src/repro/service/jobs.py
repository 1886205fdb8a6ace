"""Job specifications with canonical, relabeling-invariant fingerprints.

A :class:`JobSpec` is one unit of batch work: a workload instance (a MaxCut
graph or any :class:`~repro.problems.DiagonalProblem`) plus the pipeline
configuration (QAOA depth, optimizer budget, reduction threshold, seed).
Its *fingerprint* is a content hash of a canonical form of that data, built
on the weighted signature machinery of :mod:`repro.qaoa.lightcone`
(:func:`~repro.qaoa.lightcone.refine_keys` /
:func:`~repro.qaoa.lightcone.bfs_canonical_order`): nodes are renumbered by
a label-independent structural key, so isomorphic relabelings and
node-order permutations of the same weighted instance fingerprint
identically, while any weight, field, constant, or config change produces a
new fingerprint.  Equal fingerprints can never merge distinct jobs -- the
hashed payload embeds the full canonical weighted edge (or coupling) list,
which determines the instance up to isomorphism.  Structural ties broken by
labels (possible on tie-heavy unweighted graphs) can at worst split one
isomorphism class across fingerprints, costing reuse, never correctness.

Execution is canonical too: :func:`run_job` runs the pipeline on the
*canonical* instance with RNG seeds derived from the fingerprints (one
stream for reduction, one for optimization), then maps the sampled
assignment back through the job's own labels.  Two consequences anchor the
whole service layer:

- a job's result is a pure function of its fingerprint, so deduplication,
  the persistent :class:`~repro.service.store.ResultStore`, and shared
  reductions/plans are all result-neutral -- batched, sequential, and
  resumed execution are bit-identical per job;
- isomorphic duplicates share everything except the final relabeling of
  the assignment.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field
from typing import Any

import networkx as nx

from repro.core.pipeline import RedQAOA, RedQAOAResult, check_config
from repro.core.reduction import (
    DEFAULT_AND_RATIO_THRESHOLD,
    GraphReducer,
    check_and_ratio_threshold,
)
from repro.problems import DiagonalProblem
from repro.qaoa.lightcone import (
    _edge_weight,
    bfs_canonical_order,
    refine_keys,
    weighted_edge_list,
)
from repro.utils.graphs import ensure_graph

__all__ = [
    "FINGERPRINT_SCHEMA",
    "CanonicalInstance",
    "JobResult",
    "JobSpec",
    "canonical_graph",
    "canonical_graph_form",
    "canonical_problem_form",
    "check_seed",
    "run_job",
    "run_pipeline",
]

# Bump when the fingerprint payload layout changes; old fingerprints (and
# any results stored under them) then simply stop matching.
FINGERPRINT_SCHEMA = 1


# -- canonical forms -----------------------------------------------------------


def _structural_keys(graph: nx.Graph) -> dict:
    """Refined label-independent node keys: (degree, weight multiset) + WL."""
    return refine_keys(
        graph,
        {
            node: (
                graph.degree(node),
                tuple(
                    sorted(_edge_weight(graph, node, nbr) for nbr in graph.neighbors(node))
                ),
            )
            for node in graph.nodes()
        },
    )


def _order_from(graph: nx.Graph, key: dict, start) -> dict:
    """Canonical BFS numbering of the whole graph, component by component.

    The start node's component is numbered first; remaining components
    follow, each entered at its minimal-key node, until every node is
    numbered.
    """
    order = bfs_canonical_order(graph, key, [start])
    while len(order) < graph.number_of_nodes():
        rest = sorted(
            sorted(node for node in graph.nodes() if node not in order),
            key=lambda x: key[x],
        )
        component = bfs_canonical_order(graph, key, [rest[0]])
        for node, _ in sorted(component.items(), key=lambda kv: kv[1]):
            if node not in order:
                order[node] = len(order)
    return order


def _edges_under(graph: nx.Graph, order: dict) -> tuple:
    """The weighted edge list in canonical labels: sorted (u, v, w), u <= v."""
    edges = []
    for a, b in graph.edges():
        u, v = order[a], order[b]
        if u > v:
            u, v = v, u
        edges.append((u, v, _edge_weight(graph, a, b)))
    return tuple(sorted(edges))


def canonical_graph_form(graph: nx.Graph) -> tuple[list, tuple]:
    """Canonical ``(ordering, edges)`` of a weighted graph.

    ``ordering[i]`` is the original label of canonical node ``i``;
    ``edges`` is the weighted edge list under that numbering (self-loops
    included, so problem coupling graphs with field loops canonicalize
    too).  The numbering minimizes the edge list over BFS runs started at
    every minimal-key node, so any relabeling of ``graph`` yields the same
    ``edges`` -- exactly (not just with high probability) whenever the
    refined keys separate all non-automorphic nodes, which distinct edge
    weights guarantee.  Cost is one BFS + edge-list sort per minimal-key
    node: ~O(m log m) on key-diverse graphs, O(n * m log m) in the worst
    case (unweighted regular graphs, where every node is a candidate
    start) -- fine at batch-job sizes, so no early-abort machinery.
    """
    ensure_graph(graph)
    key = _structural_keys(graph)
    min_key = min(key.values())
    best_edges: tuple | None = None
    best_order: dict | None = None
    for start in sorted(node for node in graph.nodes() if key[node] == min_key):
        order = _order_from(graph, key, start)
        edges = _edges_under(graph, order)
        if best_edges is None or edges < best_edges:
            best_edges, best_order = edges, order
    assert best_order is not None
    ordering = [node for node, _ in sorted(best_order.items(), key=lambda kv: kv[1])]
    return ordering, best_edges


def canonical_graph(graph: nx.Graph) -> tuple[list, nx.Graph]:
    """Canonical ``(ordering, relabeled graph)`` pair for execution.

    The returned graph has nodes ``0..n-1`` in canonical order with the
    original edge weights (the ``weight`` attribute is only set where it
    differs from 1, like generator output).
    """
    ordering, edges = canonical_graph_form(graph)
    relabeled = nx.Graph()
    relabeled.add_nodes_from(range(len(ordering)))
    for u, v, w in edges:
        if w == 1.0:
            relabeled.add_edge(u, v)
        else:
            relabeled.add_edge(u, v, weight=w)
    return ordering, relabeled


def canonical_problem_form(problem: DiagonalProblem) -> tuple[list, DiagonalProblem]:
    """Canonical ``(ordering, permuted problem)`` of a diagonal problem.

    The canonical numbering comes from the field-aware coupling graph
    (fields enter as self-loops, so they shape the structural keys exactly
    as they shape reduction); the returned problem is the input with its
    qubits permuted into that numbering -- same diagonal up to the basis
    relabeling, same name and constant.
    """
    graph = problem.coupling_graph(include_fields=True)
    ordering, _ = canonical_graph_form(graph)
    position = {label: index for index, label in enumerate(ordering)}
    permuted = DiagonalProblem(
        problem.num_qubits,
        {(position[u], position[v]): j for (u, v), j in problem.couplings.items()},
        {position[u]: h for u, h in problem.fields.items()},
        constant=problem.constant,
        name=problem.name,
    )
    return ordering, permuted


# -- the job spec --------------------------------------------------------------


@dataclass(frozen=True)
class CanonicalInstance:
    """Cached canonicalization of one job's workload.

    ``ordering[i]`` is the job's own label behind canonical qubit ``i``;
    ``instance`` is the canonically relabeled graph or problem the
    pipeline actually executes.
    """

    ordering: list
    instance: Any
    payload: dict


def check_seed(seed) -> None:
    """Raise a one-line ``ValueError`` unless ``seed`` is an int (a bool is not).

    The seed enters the fingerprint as given, so ``"3"``, ``3.0`` or
    ``np.int64(3)`` would build seed 3's instance under another
    fingerprint (or fail to hash at all).
    """
    if isinstance(seed, bool) or not isinstance(seed, int):
        raise ValueError(f"seed must be an int, got {seed!r}")


def _digest(payload: dict) -> str:
    encoded = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(encoded.encode("utf-8")).hexdigest()


def _seed_from(fingerprint: str, stream: str) -> int:
    """A 64-bit RNG seed bound to one fingerprint and stream name.

    Reduction and optimization draw from *separate* derived streams so a
    shared (skipped) reduction cannot shift the optimizer's draws -- the
    keystone of batched/sequential bit-identity.
    """
    digest = hashlib.sha256(f"{fingerprint}/{stream}".encode("utf-8")).hexdigest()
    return int(digest[:16], 16)


@dataclass(frozen=True, eq=False)
class JobSpec:
    """One batch job: a workload instance plus the pipeline configuration.

    Exactly one of ``graph`` (MaxCut on a weighted graph, the paper's
    workload) and ``problem`` (any diagonal Ising/QUBO problem) must be
    set.  ``seed`` distinguishes deliberate re-runs of the same instance;
    ``label`` is free-form reporting text and never enters the
    fingerprint.  Config fields mirror :class:`~repro.core.pipeline.RedQAOA`
    (``and_ratio_threshold`` configures the reducer) and are checked on
    construction with the pipeline's own checks, so a bad config fails
    before it is queued; ``shots`` and ``seed`` must be ints here.

    Frozen: fingerprints and the canonical form are cached on first
    access, so a mutable spec could silently dedup under a stale
    fingerprint after a config edit -- build a new spec instead.
    """

    graph: nx.Graph | None = None
    problem: DiagonalProblem | None = None
    p: int = 1
    restarts: int = 3
    maxiter: int = 40
    finetune_maxiter: int = 0
    shots: int = 1024
    warm_start: bool = False
    and_ratio_threshold: float = DEFAULT_AND_RATIO_THRESHOLD
    seed: int = 0
    label: str = ""
    _canonical: CanonicalInstance | None = field(
        default=None, init=False, repr=False, compare=False
    )
    _instance_fingerprint: str | None = field(
        default=None, init=False, repr=False, compare=False
    )
    _fingerprint: str | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if (self.graph is None) == (self.problem is None):
            raise ValueError("pass exactly one of graph= or problem=")
        if self.graph is not None:
            ensure_graph(self.graph)
        check_config(
            self.p, self.restarts, self.maxiter, self.finetune_maxiter, self.shots,
            self.warm_start,
        )
        check_and_ratio_threshold(self.and_ratio_threshold)
        check_seed(self.seed)

    # -- identity ------------------------------------------------------------

    @property
    def kind(self) -> str:
        return "graph" if self.graph is not None else "problem"

    @property
    def num_qubits(self) -> int:
        if self.graph is not None:
            return self.graph.number_of_nodes()
        return self.problem.num_qubits

    def canonical(self) -> CanonicalInstance:
        """The canonicalized workload (computed once, then cached)."""
        if self._canonical is None:
            if self.graph is not None:
                ordering, instance = canonical_graph(self.graph)
                payload = {
                    "kind": "graph",
                    "n": len(ordering),
                    "edges": [list(edge) for edge in weighted_edge_list(instance)],
                }
            else:
                ordering, instance = canonical_problem_form(self.problem)
                payload = {
                    "kind": "problem",
                    "n": instance.num_qubits,
                    "couplings": [
                        [u, v, j] for (u, v), j in instance.couplings.items()
                    ],
                    "fields": [[u, h] for u, h in instance.fields.items()],
                    "constant": instance.constant,
                }
            object.__setattr__(self, "_canonical", CanonicalInstance(ordering, instance, payload))
        return self._canonical

    @property
    def instance_fingerprint(self) -> str:
        """Content hash of the canonical instance plus the reduction config.

        Jobs sharing it reduce identically (same canonical coupling
        structure, same threshold, same derived reduction seed), so the
        scheduler computes their reduction once.
        """
        if self._instance_fingerprint is None:
            payload = {
                "schema": FINGERPRINT_SCHEMA,
                "instance": self.canonical().payload,
                "reduction": {"and_ratio_threshold": self.and_ratio_threshold},
                "seed": self.seed,
            }
            object.__setattr__(self, "_instance_fingerprint", _digest(payload))
        return self._instance_fingerprint

    @property
    def fingerprint(self) -> str:
        """Content hash identifying the full job (instance + QAOA config)."""
        if self._fingerprint is None:
            payload = {
                "schema": FINGERPRINT_SCHEMA,
                "instance_fingerprint": self.instance_fingerprint,
                "config": {
                    "p": self.p,
                    "restarts": self.restarts,
                    "maxiter": self.maxiter,
                    "finetune_maxiter": self.finetune_maxiter,
                    "shots": self.shots,
                    "warm_start": self.warm_start,
                },
            }
            object.__setattr__(self, "_fingerprint", _digest(payload))
        return self._fingerprint

    @property
    def reduction_seed(self) -> int:
        return _seed_from(self.instance_fingerprint, "reduce")

    @property
    def optimize_seed(self) -> int:
        return _seed_from(self.fingerprint, "optimize")

    # -- execution helpers ---------------------------------------------------

    def pipeline(self, plan_cache=None) -> RedQAOA:
        """A configured pipeline with fingerprint-derived seeds: its reducer
        draws from the instance's reduction stream, the rest from the job's
        optimization stream."""
        return RedQAOA(
            p=self.p,
            reducer=GraphReducer(
                and_ratio_threshold=self.and_ratio_threshold, seed=self.reduction_seed
            ),
            restarts=self.restarts,
            maxiter=self.maxiter,
            finetune_maxiter=self.finetune_maxiter,
            shots=self.shots,
            warm_start=self.warm_start,
            seed=self.optimize_seed,
            plan_cache=plan_cache,
        )


# -- job results ---------------------------------------------------------------


@dataclass
class JobResult:
    """The canonical outcome of one job, in store-portable form.

    ``bits[i]`` is the sampled bit of canonical qubit ``i`` (empty when
    readout was skipped, e.g. problems beyond the dense sampling cap);
    :meth:`assignment_for` maps it back onto a spec's own labels.  All
    floats survive the JSON store round trip exactly (``repr``-based
    encoding), so resumed results compare bit-identical to recomputed
    ones.  ``source`` says where the result came from: ``"computed"``,
    ``"store"``, or ``"bank"`` for a run on another instance's banked
    reduction (approximate, so never stored).
    """

    fingerprint: str
    instance_fingerprint: str
    gammas: list[float]
    betas: list[float]
    expectation: float
    best_value: float
    bits: list[int]
    reduced_qubits: int
    and_ratio: float
    reduced_evaluations: int
    original_evaluations: int
    source: str = "computed"

    @classmethod
    def from_run(cls, spec: JobSpec, result: RedQAOAResult) -> "JobResult":
        n = spec.num_qubits
        if result.assignment:
            bits = [int(result.assignment[index]) for index in range(n)]
        else:
            bits = []
        reduction = result.reduction
        return cls(
            fingerprint=spec.fingerprint,
            instance_fingerprint=spec.instance_fingerprint,
            gammas=[float(g) for g in result.gammas],
            betas=[float(b) for b in result.betas],
            expectation=float(result.expectation),
            best_value=float(result.cut_value),
            bits=bits,
            reduced_qubits=len(reduction.nodes),
            and_ratio=float(reduction.and_ratio),
            reduced_evaluations=result.num_reduced_evaluations,
            original_evaluations=result.num_original_evaluations,
            source="bank" if reduction.banked else "computed",
        )

    def assignment_for(self, spec: JobSpec) -> dict:
        """The sampled assignment in ``spec``'s own labels."""
        if not self.bits:
            return {}
        ordering = spec.canonical().ordering
        return {label: self.bits[index] for index, label in enumerate(ordering)}

    def report_fields(self, assignment: dict) -> dict:
        """The JSON fields batch reports and daemon replies print, in order:
        NaN best value as ``None``, ``assignment`` (:meth:`assignment_for`) str-keyed."""
        return {
            "expectation": self.expectation,
            "best_value": None if math.isnan(self.best_value) else self.best_value,
            "gammas": self.gammas,
            "betas": self.betas,
            "bits": self.bits,
            "reduced_qubits": self.reduced_qubits,
            "and_ratio": self.and_ratio,
            "assignment": {str(k): v for k, v in assignment.items()},
        }

    def to_payload(self) -> dict:
        """JSON-serializable body for the result store (NaN encoded as None)."""
        return {
            "gammas": self.gammas,
            "betas": self.betas,
            "expectation": self.expectation,
            "best_value": None if math.isnan(self.best_value) else self.best_value,
            "bits": self.bits,
            "reduced_qubits": self.reduced_qubits,
            "and_ratio": self.and_ratio,
            "reduced_evaluations": self.reduced_evaluations,
            "original_evaluations": self.original_evaluations,
        }

    @classmethod
    def from_payload(
        cls,
        fingerprint: str,
        instance_fingerprint: str,
        payload: dict,
        source: str = "store",
    ) -> "JobResult":
        best = payload["best_value"]
        return cls(
            fingerprint=fingerprint,
            instance_fingerprint=instance_fingerprint,
            gammas=[float(g) for g in payload["gammas"]],
            betas=[float(b) for b in payload["betas"]],
            expectation=float(payload["expectation"]),
            best_value=float("nan") if best is None else float(best),
            bits=[int(b) for b in payload["bits"]],
            reduced_qubits=int(payload["reduced_qubits"]),
            and_ratio=float(payload["and_ratio"]),
            reduced_evaluations=int(payload["reduced_evaluations"]),
            original_evaluations=int(payload["original_evaluations"]),
            source=source,
        )


def run_pipeline(spec: JobSpec, *, reduction=None, plan_cache=None) -> RedQAOAResult:
    """The :class:`~repro.core.pipeline.RedQAOA` run behind :func:`run_job`.

    Runs on the canonical instance with fingerprint-derived seeds.
    ``reduction`` optionally injects the (shared) reduction of this spec's
    instance -- bit-identical to the one the pipeline would make after its
    engine dispatch, which ``result.reduction`` holds either way.
    ``plan_cache`` shares compiled lightcone plans across jobs.
    """
    pipeline = spec.pipeline(plan_cache=plan_cache)
    instance = spec.canonical().instance
    if spec.graph is not None:
        return pipeline.run(instance, reduction=reduction)
    return pipeline.run(problem=instance, reduction=reduction)


def run_job(spec: JobSpec, *, reduction=None, plan_cache=None) -> JobResult:
    """Execute one job spec deterministically: :func:`run_pipeline`, stored form."""
    return JobResult.from_run(
        spec, run_pipeline(spec, reduction=reduction, plan_cache=plan_cache)
    )
