"""Lightcone (subgraph) evaluation of QAOA expectations.

The expectation of a p-layer QAOA decomposes edge by edge (paper Eq. 7),
and each edge term ``E_<jk>`` depends only on the subgraph induced by nodes
within graph distance ``p`` of the edge (paper Sec. 3.3, following Farhi et
al.).  Evaluating each edge term on its own small subgraph makes exact
expectations possible for graphs far beyond full-statevector reach, as long
as the graph is sparse enough that the distance-p neighborhoods stay small.

Edge weights (the ``weight`` edge attribute, default 1) are honored
throughout: the lightcone state evolves under the weighted cost Hamiltonian
of the subgraph, the edge term is ``w_uv * P(edge cut)``, and the
memoization signature embeds the canonical weighted edge list so lightcones
that differ only in weights never share a cached value.

Structure discovery is separated from evaluation by :class:`LightconePlan`:
``build`` walks the graph once, dedups lightcones into signature classes
with multiplicities, and compiles each class into a batched evaluator;
``evaluate`` / ``evaluate_batch`` then price any number of parameter points
against the compiled classes, so a 1024-point landscape sweep pays the
structure cost once instead of 1024 times.

Each class is compiled to one of two exact kernels:

- **statevector**: the full induced lightcone, batched over parameter
  points through :func:`~repro.qaoa.fast_sim.qaoa_expectation_batch` with
  the marked edge's cut indicator as the measured observable;
- **core density matrix**: only nodes within distance ``p - 1`` of the
  marked edge (the *core*) are simulated.  Distance-p *frontier* qubits
  receive nothing but diagonal cost phases, so tracing them out is exact
  and turns each into a dephasing factor ``cos(gamma * (a(z) - a(z')))``
  on its core neighbors.  Gates outside an operator's backward lightcone
  cancel in the expectation, which also prunes later layers: cost layer
  ``k`` (0-indexed) keeps only edges touching the distance-``(p-1-k)``
  ball of the marked edge, and mixer layer ``k`` only qubits inside it.
  For a 3-regular graph at p=2 this replaces a 14-qubit statevector with a
  6-qubit density matrix -- an order of magnitude less work per point.

Both kernels agree to better than 1e-12 with the straightforward per-call
form -- one full statevector per signature class per point -- which the
test suite keeps as the plan's oracle.
"""

from __future__ import annotations

import time
from collections import deque
from collections.abc import Sequence
from dataclasses import dataclass

import networkx as nx
import numpy as np

from repro.obs.metrics import KERNEL_BUCKETS, REGISTRY
from repro.obs.trace import span
from repro.qaoa.fast_sim import qaoa_expectation_batch
from repro.qaoa.hamiltonian import MaxCutHamiltonian
from repro.utils.graphs import ensure_graph

# Module-level metric handles: registration happens once at import, hot
# paths below pay one attribute access + one float add per event.
_PLAN_HITS = REGISTRY.counter(
    "redqaoa_plan_cache_hits_total", "compiled lightcone plans served from the cache"
)
_PLAN_MISSES = REGISTRY.counter(
    "redqaoa_plan_cache_misses_total", "plan-cache lookups that had to compile"
)
_PLAN_BUILDS = REGISTRY.counter(
    "redqaoa_plan_builds_total", "lightcone plans compiled"
)
_PLAN_BUILD_SECONDS = REGISTRY.counter(
    "redqaoa_plan_build_seconds_total", "seconds spent compiling lightcone plans"
)
_LC_POINTS = REGISTRY.counter(
    "redqaoa_lightcone_points_total", "parameter points priced through compiled plans"
)
_LC_EVALS = REGISTRY.counter(
    "redqaoa_lightcone_evaluations_total",
    "class-kernel evaluations (signature classes x parameter points)",
)
_LC_SECONDS = REGISTRY.counter(
    "redqaoa_lightcone_seconds_total", "seconds spent in plan evaluation"
)
_PLAN_BUILD_DURATION = REGISTRY.histogram(
    "redqaoa_plan_build_duration_seconds",
    "per-plan compile latency",
    buckets=KERNEL_BUCKETS,
)
_LC_EVAL_DURATION = REGISTRY.histogram(
    "redqaoa_lightcone_evaluate_seconds",
    "per-call batched evaluation latency",
    buckets=KERNEL_BUCKETS,
)


def _popcount(values: np.ndarray) -> np.ndarray:
    """Elementwise population count of a non-negative integer array."""
    result = np.zeros(values.shape, dtype=np.int64)
    work = values.astype(np.int64)
    while work.any():
        result += work & 1
        work >>= 1
    return result

__all__ = [
    "LightconePlan",
    "LightconeTooLargeError",
    "PlanCache",
    "bfs_canonical_order",
    "edge_lightcone",
    "refine_keys",
    "weighted_edge_list",
]


class LightconeTooLargeError(ValueError):
    """A distance-p neighborhood exceeds the exact-simulation qubit cap."""


def edge_lightcone(graph: nx.Graph, edge: tuple[int, int], p: int) -> set:
    """Nodes within graph distance ``p`` of either endpoint of ``edge``."""
    u, v = edge
    nodes = {u, v}
    frontier = {u, v}
    for _ in range(p):
        nxt = set()
        for node in frontier:
            nxt.update(graph.neighbors(node))
        nxt -= nodes
        nodes |= nxt
        frontier = nxt
        if not frontier:
            break
    return nodes


@dataclass
class LightconePlan:
    """Compiled per-graph lightcone structure, reusable across evaluations.

    ``classes`` holds one compiled evaluator per distinct weighted
    lightcone signature; ``num_edges`` counts the edge terms the classes
    cover (with multiplicity).  Build once per (graph, p, max_qubits),
    evaluate at any number of parameter points.
    """

    p: int
    max_qubits: int
    num_edges: int
    classes: list

    @classmethod
    def build(cls, graph: nx.Graph, p: int, max_qubits: int = 20) -> "LightconePlan":
        """Discover, dedup, and compile the lightcone classes of ``graph``."""
        ensure_graph(graph)
        if p < 1:
            raise ValueError(f"p must be >= 1, got {p}")
        t0 = time.perf_counter()
        with span("plan_build", n=graph.number_of_nodes(), p=p):
            representatives: dict[object, list] = {}
            num_edges = 0
            for edge in graph.edges():
                nodes = edge_lightcone(graph, edge, p)
                if len(nodes) > max_qubits:
                    raise LightconeTooLargeError(
                        f"edge {edge} has a distance-{p} lightcone of {len(nodes)} nodes "
                        f"(> {max_qubits}); the graph is too dense for lightcone evaluation"
                    )
                key = _signature(graph, edge, nodes)
                entry = representatives.get(key)
                if entry is None:
                    representatives[key] = [edge, nodes, 1]
                else:
                    entry[2] += 1
                num_edges += 1
            classes = [
                _compile_class(graph, edge, nodes, p, count)
                for edge, nodes, count in representatives.values()
            ]
        _PLAN_BUILDS.inc()
        build_seconds = time.perf_counter() - t0
        _PLAN_BUILD_SECONDS.inc(build_seconds)
        _PLAN_BUILD_DURATION.observe(build_seconds)
        return cls(p=p, max_qubits=max_qubits, num_edges=num_edges, classes=classes)

    @classmethod
    def build_cached(
        cls,
        graph: nx.Graph,
        p: int,
        max_qubits: int = 20,
        cache: "PlanCache | None" = None,
    ) -> "LightconePlan":
        """:meth:`build`, consulting a :class:`PlanCache` when one is given.

        The batch-serving entry point: with ``cache=None`` this is exactly
        :meth:`build`; with a cache, structurally identical graphs share
        one compiled plan across any number of jobs.
        """
        if cache is None:
            return cls.build(graph, p, max_qubits=max_qubits)
        return cache.get_or_build(graph, p, max_qubits=max_qubits)

    @property
    def stats(self) -> dict:
        """Memoization counts: ``edges`` (terms summed), ``evaluations``
        (distinct classes simulated) and ``hits`` (class reuses)."""
        return {
            "edges": self.num_edges,
            "evaluations": len(self.classes),
            "hits": self.num_edges - len(self.classes),
        }

    def evaluate(self, gammas: Sequence[float], betas: Sequence[float]) -> float:
        """Expectation at one parameter point (validated by :meth:`evaluate_batch`)."""
        return float(
            self.evaluate_batch(
                np.asarray(gammas, dtype=float)[None, :],
                np.asarray(betas, dtype=float)[None, :],
            )[0]
        )

    def evaluate_batch(self, gammas: np.ndarray, betas: np.ndarray) -> np.ndarray:
        """Expectations for parameter sets of shape ``(batch, p)``.

        Each compiled class is simulated once per parameter point through
        its batched kernel; the edge terms are recombined with their class
        multiplicities.
        """
        gammas = np.atleast_2d(np.asarray(gammas, dtype=float))
        betas = np.atleast_2d(np.asarray(betas, dtype=float))
        if gammas.shape != betas.shape:
            raise ValueError(f"shape mismatch: {gammas.shape} vs {betas.shape}")
        if gammas.shape[1] != self.p:
            raise ValueError(f"plan was built for p={self.p}, got p={gammas.shape[1]}")
        t0 = time.perf_counter()
        out = np.zeros(gammas.shape[0])
        for compiled in self.classes:
            out += compiled.count * compiled.evaluate(gammas, betas)
        eval_seconds = time.perf_counter() - t0
        _LC_SECONDS.inc(eval_seconds)
        _LC_EVAL_DURATION.observe(eval_seconds)
        _LC_POINTS.inc(gammas.shape[0])
        _LC_EVALS.inc(gammas.shape[0] * len(self.classes))
        return out


# -- class compilation ---------------------------------------------------------


def _compile_class(graph, edge, nodes, p, count):
    """Pick the cheaper exact kernel for one signature class.

    The core density matrix costs ``4**|core|`` amplitudes per point, the
    statevector ``2**|lightcone|``; the core kernel wins exactly when the
    frontier is at least half the lightcone.
    """
    sub = graph.subgraph(nodes)
    dist = _distances(sub, edge)
    core = sorted(x for x in sub.nodes() if dist[x] <= p - 1)
    if 2 * len(core) <= len(nodes):
        return _CoreDensityClass(sub, edge, dist, core, p, count)
    return _StatevectorClass(sub, edge, p, count)


def _distances(sub: nx.Graph, edge: tuple) -> dict:
    """Graph distance from the marked edge within the lightcone subgraph."""
    u, v = edge
    dist = {u: 0, v: 0}
    queue = deque((u, v))
    while queue:
        node = queue.popleft()
        for nbr in sub.neighbors(node):
            if nbr not in dist:
                dist[nbr] = dist[node] + 1
                queue.append(nbr)
    return dist


class _StatevectorClass:
    """Full-lightcone batched statevector kernel for one signature class."""

    def __init__(self, sub: nx.Graph, edge: tuple, p: int, count: int) -> None:
        self.count = count
        self.weight = _edge_weight(sub, *edge)
        ordered = sorted(sub.nodes())
        mapping = {node: index for index, node in enumerate(ordered)}
        self.hamiltonian = MaxCutHamiltonian(sub)
        u, v = mapping[edge[0]], mapping[edge[1]]
        z = np.arange(self.hamiltonian.diagonal.size, dtype=np.uint64)
        self.cut_mask = (((z >> np.uint64(u)) ^ (z >> np.uint64(v))) & np.uint64(1)).astype(float)

    def evaluate(self, gammas: np.ndarray, betas: np.ndarray) -> np.ndarray:
        return self.weight * qaoa_expectation_batch(
            self.hamiltonian, gammas, betas, observable=self.cut_mask
        )


class _CoreDensityClass:
    """Density-matrix kernel on the distance-(p-1) core of one class.

    The whole p-layer evolution collapses into per-point matrix algebra on
    the ``2**|core|``-dimensional core:

    - the initial density matrix ``rho0[z, z'] = F[z, z'] / dim`` carries
      the frontier dephasing exactly: frontier qubits sharing a (core
      neighbors, weights) pattern collapse into one factor
      ``cos(gamma_0 * (a(z) - a(z')))**multiplicity`` gathered from a table
      over the distinct values of ``a(z) - a(z')``;
    - layer ``k`` is one matrix ``M_k = (RX tensor) . diag(phase_k)``: the
      subset RX tensor is a gather of ``cos(beta)**(|S|-h) (-i sin(beta))**h``
      over the masked XOR popcount ``h`` (zero off the subset block), and
      ``phase_k`` is the in-core cut diagonal restricted to edges touching
      the distance-``(p-1-k)`` ball;
    - the readout contracts everything without ever forming the evolved
      density matrix: with ``A = M_p[cut rows] @ M_{p-1} @ ... @ M_1``,
      ``P(cut) = sum((A @ rho0) * conj(A))`` -- one half-height matmul
      chain per point, executed batched through BLAS.
    """

    def __init__(self, sub, edge, dist, core, p, count) -> None:
        self.count = count
        self.weight = _edge_weight(sub, *edge)
        self.p = p
        mc = len(core)
        self.dim = 1 << mc
        position = {node: i for i, node in enumerate(core)}
        dim = self.dim
        bits = (np.arange(dim)[:, None] >> np.arange(mc)[None, :]) & 1

        # Cost-layer diagonals over core-core edges, pruned per layer.
        self.phase_tables: list[tuple[np.ndarray, np.ndarray] | None] = []
        for k in range(p):
            radius = p - 1 - k
            diag = np.zeros(dim)
            for a, b, data in sub.edges(data=True):
                if a == b or a not in position or b not in position:
                    continue
                if min(dist[a], dist[b]) > radius:
                    continue
                cut = bits[:, position[a]] ^ bits[:, position[b]]
                diag = diag + float(data.get("weight", 1.0)) * cut
            if diag.any():
                values, inverse = np.unique(diag, return_inverse=True)
                self.phase_tables.append((values, inverse.astype(np.intp)))
            else:
                self.phase_tables.append(None)

        # Frontier dephasing groups (only the first cost layer reaches them).
        groups: dict[tuple, int] = {}
        for node in sub.nodes():
            if dist[node] != p:
                continue
            pattern = tuple(
                sorted(
                    (position[nbr], _edge_weight(sub, node, nbr))
                    for nbr in sub.neighbors(node)
                    if nbr in position
                )
            )
            groups[pattern] = groups.get(pattern, 0) + 1
        self.channels = []
        for pattern, multiplicity in groups.items():
            avec = np.zeros(dim)
            for qpos, weight in pattern:
                avec = avec + weight * bits[:, qpos]
            delta = avec[:, None] - avec[None, :]
            values, inverse = np.unique(delta, return_inverse=True)
            index_dtype = np.uint16 if len(values) < 2**16 else np.intp
            self.channels.append(
                (values, inverse.reshape(-1).astype(index_dtype), multiplicity)
            )

        # Subset RX tensors: masked XOR popcount index per mixer layer, with
        # a sentinel column (coefficient 0) off the subset block.  Mixer
        # layers shrink toward the marked edge.
        z = np.arange(dim)
        xor = z[:, None] ^ z[None, :]
        self.mixers = []
        for k in range(p):
            qubits = [position[x] for x in core if dist[x] <= p - 1 - k]
            mask = 0
            for qpos in qubits:
                mask |= 1 << qpos
            num = len(qubits)
            index = np.where(
                (xor & ~mask) == 0,
                _popcount(xor & mask),
                num + 1,
            ).astype(np.uint16 if num + 2 < 2**16 else np.intp)
            self.mixers.append((num, index))

        u, v = edge
        self.cut_rows = np.flatnonzero(bits[:, position[u]] ^ bits[:, position[v]])

    def evaluate(self, gammas: np.ndarray, betas: np.ndarray) -> np.ndarray:
        batch = gammas.shape[0]
        dim = self.dim
        chunk = max(1, min(batch, 2**20 // (dim * dim)))
        out = np.empty(batch)
        for start in range(0, batch, chunk):
            stop = min(start + chunk, batch)
            size = stop - start
            gc = gammas[start:stop]
            bc = betas[start:stop]
            rho0 = np.full((size, dim, dim), 1.0 / dim)
            g0 = gc[:, 0][:, None]
            for values, inverse, multiplicity in self.channels:
                factor = np.cos(g0 * values[None, :])
                if multiplicity > 1:
                    factor = factor**multiplicity
                rho0 *= factor[:, inverse].reshape(size, dim, dim)
            a = None
            for k in range(self.p - 1, -1, -1):
                layer = self._layer_matrix(gc, bc, k, size)
                if a is None:
                    a = np.ascontiguousarray(layer[:, self.cut_rows, :])
                else:
                    a = a @ layer
            out[start:stop] = np.einsum(
                "bij,bij->b", a @ rho0, a.conj()
            ).real
        return self.weight * out

    def _layer_matrix(self, gammas, betas, k, size) -> np.ndarray:
        """``M_k = (subset RX tensor) . diag(exp(-i gamma_k cut_k))``."""
        num, index = self.mixers[k]
        c = np.cos(betas[:, k])[:, None]
        js = (-1j) * np.sin(betas[:, k])[:, None]
        h = np.arange(num + 1)[None, :]
        coeff = np.concatenate(
            [c ** (num - h) * js**h, np.zeros((size, 1), dtype=complex)], axis=1
        )
        matrix = coeff[:, index]
        table = self.phase_tables[k]
        if table is not None:
            values, inverse = table
            g = gammas[:, k][:, None]
            matrix = matrix * np.exp(-1j * g * values[None, :])[:, inverse][:, None, :]
        return matrix


# -- plan reuse across evaluations ---------------------------------------------


PLAN_CACHE_ENTRIES = 256


class PlanCache:
    """Bank of compiled :class:`LightconePlan` objects keyed by exact structure.

    The compile-once/run-many hook for batch serving: a plan is a pure
    function of the weighted edge list, so reusing a compiled plan across
    jobs that share a graph (e.g. the same instance priced under several
    optimizer budgets) is result-neutral -- evaluations are bit-identical
    to rebuilding.  Keys embed node labels as-is, so callers should pass
    canonically relabeled (``0..n-1``) graphs; the pipeline already does.

    Entries are evicted least-recently-used beyond ``PLAN_CACHE_ENTRIES``.
    """

    def __init__(self) -> None:
        self._plans: dict[tuple, LightconePlan] = {}
        self.hits = 0
        self.misses = 0

    @staticmethod
    def plan_key(graph: nx.Graph, p: int, max_qubits: int) -> tuple:
        """Exact cache key: qubit count, depth, cap, weighted edge list."""
        return (graph.number_of_nodes(), p, max_qubits, weighted_edge_list(graph))

    def get_or_build(self, graph: nx.Graph, p: int, max_qubits: int = 20) -> LightconePlan:
        """The banked plan for ``graph``, compiling (and banking) on a miss."""
        key = self.plan_key(graph, p, max_qubits)
        plan = self._plans.pop(key, None)
        if plan is not None:
            self.hits += 1
            _PLAN_HITS.inc()
            self._plans[key] = plan  # re-insert as most recently used
            return plan
        self.misses += 1
        _PLAN_MISSES.inc()
        plan = LightconePlan.build(graph, p, max_qubits=max_qubits)
        self._plans[key] = plan
        while len(self._plans) > PLAN_CACHE_ENTRIES:
            del self._plans[next(iter(self._plans))]
        return plan

    @property
    def size(self) -> int:
        return len(self._plans)


# -- signatures ----------------------------------------------------------------


def _edge_weight(graph: nx.Graph, u, v) -> float:
    return float(graph[u][v].get("weight", 1.0))


def weighted_edge_list(graph: nx.Graph) -> tuple:
    """Sorted ``(u, v, w)`` edge tuple with ``u <= v``, default weight 1.

    The one weighted-edge-list normalization shared by plan-cache keys and
    the service layer's canonical forms, so they can never disagree on
    weight defaults.  Labels are used as-is and must be mutually sortable.
    """
    edges = []
    for a, b, data in graph.edges(data=True):
        u, v = (a, b) if a <= b else (b, a)
        edges.append((u, v, float(data.get("weight", 1.0))))
    return tuple(sorted(edges))


def refine_keys(graph: nx.Graph, key: dict) -> dict:
    """Sharpen label-independent node keys by two Weisfeiler-Leman-style rounds.

    Each round replaces a node's key with ``(old key, sorted multiset of
    (neighbor key, edge weight))``.  Starting from any label-independent
    ``key`` (degree, weight multisets, distances, ...), the refined keys
    stay label-independent, so isomorphic graphs refine identically.
    Shared by the lightcone signature below and the whole-graph canonical
    form behind :class:`repro.service.JobSpec` fingerprints.
    """
    for _ in range(2):
        key = {
            node: (
                key[node],
                tuple(
                    sorted(
                        (key[nbr], _edge_weight(graph, node, nbr))
                        for nbr in graph.neighbors(node)
                    )
                ),
            )
            for node in graph.nodes()
        }
    return key


def bfs_canonical_order(graph: nx.Graph, key: dict, start_nodes) -> dict:
    """Deterministic BFS numbering from ``start_nodes``, ordered by ``key``.

    Nodes are assigned ``0..k-1`` in BFS order; at every step candidates are
    sorted by their structural ``key`` with the original label as the
    tiebreak, so labels only decide between exact structural ties -- which
    costs canonicality on tie-heavy graphs, never correctness, because the
    caller compares the resulting relabeled edge lists.  Only nodes
    reachable from the start set are numbered.
    """
    order: dict = {}
    queue = deque()
    for node in sorted(sorted(start_nodes), key=lambda x: key[x]):
        if node not in order:
            order[node] = len(order)
            queue.append(node)
    while queue:
        node = queue.popleft()
        nbrs = sorted(
            sorted(n for n in graph.neighbors(node) if n not in order),
            key=lambda x: key[x],
        )
        for n in nbrs:
            order[n] = len(order)
            queue.append(n)
    return order


def _signature(graph: nx.Graph, edge: tuple[int, int], nodes: set) -> object:
    """Hashable key for a weighted (subgraph, marked edge) pair after relabeling.

    A cheap canonical form: relabel nodes by BFS from the marked edge,
    ordering by a label-independent structural key -- distance to the edge,
    subgraph degree, and the multiset of incident edge weights, sharpened by
    two rounds of Weisfeiler-Leman-style neighborhood refinement.  The key
    never consults original node labels (they only break exact structural
    ties, which costs cache hits, never correctness), so isomorphic
    lightcones with different labelings normally hash identically.

    Collisions across genuinely distinct lightcones cannot cause a wrong
    merge: the signature embeds the full relabeled *weighted* edge list, and
    the weighted edge list determines the subgraph, so equal signatures mean
    the lightcones are isomorphic (marked edge fixed, weights matching) and
    their edge terms are equal.
    """
    sub = graph.subgraph(nodes)
    u, v = edge

    dist = {u: 0, v: 0}
    frontier = [u, v]
    while frontier:
        nxt = []
        for node in frontier:
            for nbr in sub.neighbors(node):
                if nbr not in dist:
                    dist[nbr] = dist[node] + 1
                    nxt.append(nbr)
        frontier = nxt

    key = refine_keys(
        sub,
        {
            node: (
                dist[node],
                sub.degree(node),
                tuple(sorted(_edge_weight(sub, node, nbr) for nbr in sub.neighbors(node))),
            )
            for node in sub.nodes()
        },
    )

    order = bfs_canonical_order(sub, key, [u, v])
    edges = tuple(
        sorted(
            (min(order[a], order[b]), max(order[a], order[b]), _edge_weight(sub, a, b))
            for a, b in sub.edges()
        )
    )
    marked = (min(order[u], order[v]), max(order[u], order[v]))
    return (marked, edges)
