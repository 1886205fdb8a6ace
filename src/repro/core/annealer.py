"""Algorithm 1: simulated annealing for graph reduction.

Faithful implementation of the paper's pseudocode: start from a random
connected ``k``-node subgraph, repeatedly propose swapping one subgraph
node for an outside node, accept improvements always and regressions with
Metropolis probability ``exp(-(f' - f) / T)``, and cool from ``T0 = 1``
until ``Tf = 1e-3``.  The objective is the AND difference against the
original graph, ``|AND(subgraph) - AND(G)|`` on node strengths (the
per-call reference, ``and_difference_objective``, lives in
``tests/_kernel_oracles.py``).

:func:`simulated_annealing` keeps **incremental state**: a flat CSR
adjacency built once per call, the subgraph strength sum, the outside set,
and per-node edge counts and strengths into the subgraph are maintained
under each swap, so pricing a proposal costs a few adds and committing it
``O(deg(removed) + deg(added))``, instead of ``O(n + k * deg)`` of
networkx scans and subgraph copies.  Connectivity is exact without a
search per proposal: a swap can only disconnect the subgraph when the
removed node is one of its articulation points, which lazily computed
Tarjan flags answer; the remaining cases run a BFS that stops as soon as
every subgraph neighbour of the removed node is reached.

The annealing loop itself lives in ``_anneal(..., state_factory)``, which
draws every random number and makes every acceptance and cooling decision;
the state object only proposes, commits and snapshots.  The test suite
runs a per-call networkx state (``tests/_kernel_oracles.py``) through the
same driver, and same-seed runs of the two states return bit-identical
:class:`AnnealResult` values (nodes, objective, steps, history): they draw
the same RNG sequence, and both compute objectives as correctly-rounded
strength sums -- the oracle via ``math.fsum``, the incremental state via
exact dyadic-integer arithmetic -- which agree on every subgraph
regardless of summation order.
"""

from __future__ import annotations

import math
import time
from bisect import bisect_left, insort
from dataclasses import dataclass, field

import networkx as nx
import numpy as np

from repro.core.cooling import AdaptiveCooling, ConstantCooling, CoolingSchedule
from repro.obs.metrics import REGISTRY, STAGE_BUCKETS

_SA_RUNS = REGISTRY.counter("redqaoa_sa_runs_total", "simulated-annealing runs")
_SA_STEPS = REGISTRY.counter("redqaoa_sa_steps_total", "simulated-annealing steps")
_SA_SECONDS = REGISTRY.counter(
    "redqaoa_sa_seconds_total", "seconds spent inside the annealing loop"
)
_SA_RUN_DURATION = REGISTRY.histogram(
    "redqaoa_sa_run_seconds", "per-run annealing latency", buckets=STAGE_BUCKETS
)
from repro.utils.graphs import (
    average_node_strength,
    connected_random_subgraph,
    ensure_graph,
    induced_subgraph,
    sorted_labels,
)
from repro.utils.rng import as_generator

__all__ = ["AnnealResult", "simulated_annealing"]

_MAX_SWAP_ATTEMPTS = 200  # swap trials per proposal before keeping the subgraph
INITIAL_TEMPERATURE = 1.0  # Algorithm 1's T0
FINAL_TEMPERATURE = 1e-3  # Algorithm 1's Tf


@dataclass
class AnnealResult:
    """Outcome of one annealing run.

    ``nodes`` is the selected node subset of the original graph; ``subgraph``
    is the induced subgraph (a copy); ``objective`` is its AND difference;
    ``history`` holds the best-so-far objective at each step for convergence
    inspection; ``steps`` is the number of temperature updates.
    """

    nodes: set
    subgraph: nx.Graph
    objective: float
    steps: int
    history: list[float] = field(default_factory=list)


def simulated_annealing(
    graph: nx.Graph,
    k: int,
    cooling: CoolingSchedule | str = "adaptive",
    seed: int | np.random.Generator | None = None,
    max_steps: int | None = None,
) -> AnnealResult:
    """Find a connected ``k``-node subgraph whose AND matches ``graph``'s.

    On weighted graphs the AND is strength-based (see
    :func:`~repro.utils.graphs.average_node_strength`), so the annealer
    preserves weighted connectivity; unit weights reproduce the paper's
    unweighted objective bit for bit.

    The temperature falls from ``INITIAL_TEMPERATURE`` (T0) to
    ``FINAL_TEMPERATURE`` (Tf) under ``cooling`` -- either a
    :class:`~repro.core.cooling.CoolingSchedule` or one of the strings
    ``"adaptive"`` / ``"constant"`` (the paper's ``is_adaptive`` flag).
    ``max_steps`` is a safety bound on top of the temperature loop.

    Returns the best subgraph seen across the whole run (not merely the
    final state), which only improves on the pseudocode.
    """
    return _anneal(graph, k, cooling, seed, max_steps, _IncrementalState)


def _anneal(graph, k, cooling, seed, max_steps, state_factory):
    ensure_graph(graph)
    if not 1 <= k <= graph.number_of_nodes():
        raise ValueError(f"k must be in [1, {graph.number_of_nodes()}], got {k}")
    schedule = _resolve_cooling(cooling)
    schedule.reset()
    rng = as_generator(seed)
    target_and = average_node_strength(graph)
    t0 = time.perf_counter()

    start = connected_random_subgraph(graph, k, rng)
    state = state_factory(graph, start, target_and)
    current_obj = state.objective
    best = set(start)
    best_obj = current_obj
    history = [best_obj]

    temperature = INITIAL_TEMPERATURE
    steps = 0
    limit = max_steps if max_steps is not None else _default_step_limit(graph, schedule)
    while temperature > FINAL_TEMPERATURE and steps < limit:
        neighbor_obj = state.propose(rng)
        accepted = False
        if neighbor_obj < current_obj:
            accepted = True
        else:
            delta = neighbor_obj - current_obj
            if rng.random() < math.exp(-delta / temperature):
                accepted = True
        if accepted:
            state.commit()
            current_obj = neighbor_obj
            if current_obj < best_obj:
                best, best_obj = state.snapshot(), current_obj
        history.append(best_obj)
        temperature = schedule.next_temperature(temperature, accepted)
        steps += 1
        if best_obj == 0.0:
            break  # exact AND match cannot be improved further

    _SA_RUNS.inc()
    _SA_STEPS.inc(steps)
    run_seconds = time.perf_counter() - t0
    _SA_SECONDS.inc(run_seconds)
    _SA_RUN_DURATION.observe(run_seconds)
    return AnnealResult(
        nodes=best,
        subgraph=induced_subgraph(graph, best),
        objective=best_obj,
        steps=steps,
        history=history,
    )


class _IncrementalState:
    """CSR adjacency + incrementally maintained swap/objective state.

    Draws the RNG sequence of the straightforward per-call swap (one
    ``integers`` call for the removed node per attempt, one for the added
    node -- uniform over the sorted outside nodes with an edge into the
    kept subgraph -- whenever that list is non-empty) and computes the
    exact AND-difference objective, with no networkx scans and no
    subgraph copies:

    - ``cnt[v]`` / ``sin[v]`` count and weigh ``v``'s edges into the
      subgraph, so a swap is priced with a few adds and one
      ``w(added, removed)`` lookup, and ``commit`` updates both in
      ``O(deg(removed) + deg(added))``.
    - Connectivity needs no search for most swaps.  The current subgraph
      is connected (a connected start, and only connected swaps commit),
      and ``added`` always has a neighbour in ``subgraph - removed``, so
      the swap stays connected unless ``removed`` is an articulation point
      of the subgraph.  A subgraph leaf never is one.  Otherwise the
      articulation flags (iterative Tarjan over the CSR, restricted to the
      subgraph) answer, computed lazily at the second connectivity query
      against an unchanged subgraph -- a commit only drops them, so runs
      where most proposals commit never pay for them.
    - The remaining queries run a BFS from ``added`` that stops once every
      in-subgraph neighbour of ``removed`` is reached: every component of
      ``subgraph - removed`` holds one of them.

    Objective exactness: every ``|weight|`` is a dyadic rational, so the
    subgraph strength sum is maintained as an exact integer numerator over
    a common power-of-two denominator.  ``numerator / denominator`` is
    correctly rounded, hence bit-equal to a ``math.fsum`` of the weights.
    """

    def __init__(self, graph: nx.Graph, start: set, target_and: float) -> None:
        labels = sorted_labels(graph.nodes())
        index = {node: i for i, node in enumerate(labels)}
        n = len(labels)
        self._labels = labels
        self._target = target_and

        # CSR adjacency with exact integer |weight| scaling.  Neighbor rows
        # are sorted by index so candidate scans match sorted-label order.
        indptr = [0] * (n + 1)
        nbr: list[int] = []
        w_int: list[int] = []
        self_int = [0] * n
        ratio_cache: dict[float, tuple[int, int]] = {}
        denom = 1
        rows: list[list[tuple[int, float]]] = [[] for _ in range(n)]
        for node, adjacency in graph.adjacency():
            i = index[node]
            for other, data in adjacency.items():
                weight = abs(float(data.get("weight", 1.0)))
                if not math.isfinite(weight):
                    raise ValueError(f"edge weight on ({node}, {other}) is not finite")
                ratio = ratio_cache.get(weight)
                if ratio is None:
                    ratio = weight.as_integer_ratio()
                    ratio_cache[weight] = ratio
                    if ratio[1] > denom:
                        denom = ratio[1]
                rows[i].append((index[other], weight))
        for i in range(n):
            rows[i].sort()
            for j, weight in rows[i]:
                num, den = ratio_cache[weight]
                scaled = num * (denom // den)
                if j == i:
                    self_int[i] = scaled
                else:
                    nbr.append(j)
                    w_int.append(scaled)
            indptr[i + 1] = len(nbr)
        self._indptr = indptr
        self._nbr = nbr
        self._w_int = w_int
        self._self_int = self_int
        self._denom = denom

        members = sorted(index[node] for node in start)
        self._k = len(members)
        in_sub = bytearray(n)
        for i in members:
            in_sub[i] = 1
        self._in_sub = in_sub
        cnt = [0] * n
        sin = [0] * n
        for i in range(n):
            for pos in range(indptr[i], indptr[i + 1]):
                if in_sub[nbr[pos]]:
                    cnt[i] += 1
                    sin[i] += w_int[pos]
        self._cnt = cnt
        self._sin = sin
        self._inside = members
        self._outside = [i for i in range(n) if not in_sub[i]]
        self._active = [i for i in self._outside if cnt[i] > 0]
        self._seen = [0] * n
        self._bfs_id = 0
        self._disc = [0] * n
        self._low = [0] * n
        self._clock = 0
        self._cut: bytearray | None = None  # articulation flags, None when stale
        self._queries = 0  # connectivity queries against the current subgraph

        s2 = sum(sin[i] for i in members)
        self._s_int = (s2 >> 1) + sum(self_int[i] for i in members)
        self.objective = self._objective_of(self._s_int)
        self._pending: tuple[int, int, int] | None = None

    def _objective_of(self, s_int: int) -> float:
        # ``s_int / denom`` is the correctly rounded strength sum, matching
        # a ``math.fsum`` of the weights; the remaining float ops mirror
        # ``and_difference_objective`` exactly.
        return abs(2.0 * (s_int / self._denom) / self._k - self._target)

    # -- proposal ----------------------------------------------------------

    def propose(self, rng: np.random.Generator) -> float:
        self._pending = None
        inside = self._inside
        if not self._outside:
            return self.objective
        indptr, nbr = self._indptr, self._nbr
        in_sub, cnt, active = self._in_sub, self._cnt, self._active
        for _ in range(_MAX_SWAP_ATTEMPTS):
            removed = inside[int(rng.integers(len(inside)))]
            # Outside nodes whose only edge into the subgraph is `removed`:
            # they drop out of the candidate list for this proposal.
            disq = [
                u
                for u in nbr[indptr[removed]:indptr[removed + 1]]
                if not in_sub[u] and cnt[u] == 1
            ]
            num_candidates = len(active) - len(disq)
            if num_candidates <= 0:
                continue
            pick = int(rng.integers(num_candidates))
            if disq:
                for pos in sorted(bisect_left(active, u) for u in disq):
                    if pos <= pick:
                        pick += 1
                    else:
                        break
            added = active[pick]
            if self._k == 1 or self._connected_after(removed, added):
                sin, self_int = self._sin, self._self_int
                s_new = (
                    self._s_int
                    - self_int[removed] - sin[removed]
                    + self_int[added] + sin[added] - self._weight(added, removed)
                )
                self._pending = (removed, added, s_new)
                return self._objective_of(s_new)
        return self.objective

    def _weight(self, u: int, v: int) -> int:
        """Scaled ``|w(u, v)|``, 0 when the edge is absent."""
        lo, hi = self._indptr[u], self._indptr[u + 1]
        pos = bisect_left(self._nbr, v, lo, hi)
        return self._w_int[pos] if pos < hi and self._nbr[pos] == v else 0

    def _connected_after(self, removed: int, added: int) -> bool:
        """Whether ``(subgraph - removed) + added`` is connected."""
        if self._cnt[removed] == 1:
            return True  # a leaf is never an articulation point
        cut = self._cut
        if cut is None:
            self._queries += 1
            if self._queries < 2:
                return self._reaches_neighbors(removed, added)
            cut = self._cut = self._articulation_flags()
        return not cut[removed] or self._reaches_neighbors(removed, added)

    def _reaches_neighbors(self, removed: int, added: int) -> bool:
        """BFS over the CSR from ``added`` through ``subgraph - removed``,
        stopping once every in-subgraph neighbour of ``removed`` is reached."""
        indptr, nbr, in_sub = self._indptr, self._nbr, self._in_sub
        seen = self._seen
        goal = self._bfs_id + 1
        mark = self._bfs_id + 2
        self._bfs_id = mark
        for u in nbr[indptr[removed]:indptr[removed + 1]]:
            if in_sub[u]:
                seen[u] = goal
        missing = self._cnt[removed]
        stack = [added]
        seen[added] = mark
        while stack:
            v = stack.pop()
            for u in nbr[indptr[v]:indptr[v + 1]]:
                if in_sub[u] and u != removed:
                    tag = seen[u]
                    if tag != mark:
                        if tag == goal:
                            missing -= 1
                            if not missing:
                                return True
                        seen[u] = mark
                        stack.append(u)
        return False

    def _articulation_flags(self) -> bytearray:
        """Articulation points of the (connected) subgraph, by iterative
        Tarjan over the CSR restricted to ``in_sub``.

        Discovery times run on a clock shared across calls, so a node is
        unvisited in this call iff its ``disc`` is at most the clock's value
        on entry; no per-call arrays are cleared.
        """
        indptr, nbr, in_sub = self._indptr, self._nbr, self._in_sub
        disc, low = self._disc, self._low
        cut = bytearray(len(in_sub))
        base = self._clock
        root = self._inside[0]
        clock = base + 1
        disc[root] = low[root] = clock
        path = [root]
        scan = [indptr[root]]  # next CSR position to scan, per path entry
        root_children = 0
        while path:
            v = path[-1]
            pos, end = scan[-1], indptr[v + 1]
            child = -1
            while pos < end:
                u = nbr[pos]
                pos += 1
                if in_sub[u]:
                    d = disc[u]
                    if d <= base:
                        child = u
                        break
                    if d < low[v]:
                        low[v] = d
            if child >= 0:
                scan[-1] = pos
                clock += 1
                disc[child] = low[child] = clock
                path.append(child)
                scan.append(indptr[child])
                continue
            path.pop()
            scan.pop()
            if path:
                parent = path[-1]
                if low[v] < low[parent]:
                    low[parent] = low[v]
                if len(path) == 1:
                    root_children += 1
                elif low[v] >= disc[parent]:
                    cut[parent] = 1
        if root_children > 1:
            cut[root] = 1
        self._clock = clock
        assert clock - base == self._k, "the current subgraph must be connected"
        return cut

    # -- commit / snapshot -------------------------------------------------

    def commit(self) -> None:
        if self._pending is None:
            return
        removed, added, s_new = self._pending
        self._s_int = s_new
        self._cut = None
        self._queries = 0
        indptr, nbr, w_int = self._indptr, self._nbr, self._w_int
        cnt, sin, in_sub = self._cnt, self._sin, self._in_sub
        in_sub[removed] = 0
        in_sub[added] = 1
        for pos in range(indptr[removed], indptr[removed + 1]):
            u = nbr[pos]
            cnt[u] -= 1
            sin[u] -= w_int[pos]
        for pos in range(indptr[added], indptr[added + 1]):
            u = nbr[pos]
            cnt[u] += 1
            sin[u] += w_int[pos]
        inside, outside, active = self._inside, self._outside, self._active
        del inside[bisect_left(inside, removed)]
        insort(inside, added)
        del outside[bisect_left(outside, added)]
        insort(outside, removed)
        # `active` (outside nodes with an edge into the subgraph) changes
        # only where a count crossed zero, plus the two swapped nodes.
        del active[bisect_left(active, added)]
        if cnt[removed]:
            insort(active, removed)
        for u in nbr[indptr[removed]:indptr[removed + 1]]:
            if not cnt[u] and not in_sub[u]:
                del active[bisect_left(active, u)]
        for u in nbr[indptr[added]:indptr[added + 1]]:
            if cnt[u] == 1 and not in_sub[u] and u != removed:
                pos = bisect_left(active, u)
                if pos == len(active) or active[pos] != u:
                    active.insert(pos, u)

    def snapshot(self) -> set:
        labels = self._labels
        return {labels[i] for i in self._inside}


def _resolve_cooling(cooling: CoolingSchedule | str) -> CoolingSchedule:
    if isinstance(cooling, CoolingSchedule):
        return cooling
    if cooling == "adaptive":
        return AdaptiveCooling()
    if cooling == "constant":
        return ConstantCooling()
    raise ValueError(f"unknown cooling schedule {cooling!r}")


def _default_step_limit(graph: nx.Graph, schedule: CoolingSchedule) -> int:
    """A generous bound: enough steps for the slowest schedule to freeze."""
    base = 200 * max(1, graph.number_of_nodes())
    return min(base, 20_000)
