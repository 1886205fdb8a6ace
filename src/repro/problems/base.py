"""The diagonal Ising/QUBO problem abstraction.

Every classic QAOA workload -- MaxCut, Max-Independent-Set, vertex cover,
number partitioning, SK spin glasses, arbitrary QUBOs -- is a *diagonal*
cost Hamiltonian: a polynomial of degree two in Pauli-Z operators,

``H = constant + sum_u h_u Z_u + sum_{u<v} J_uv Z_u Z_v``,

whose basis-state value is read off from spins ``s_u = 1 - 2 z_u`` (bit 0
maps to spin +1, matching the bit convention of
:func:`repro.qaoa.hamiltonian.cut_values`).  :class:`DiagonalProblem`
captures exactly that data -- quadratic couplings ``J``, linear fields
``h``, and a constant -- as the objective *to maximize*, and provides the
bridges the rest of the pipeline needs:

- :attr:`~DiagonalProblem.diagonal` -- the dense value vector over the
  computational basis, duck-type compatible with
  :class:`~repro.qaoa.hamiltonian.MaxCutHamiltonian` so every statevector
  engine in :mod:`repro.qaoa.fast_sim` works unchanged (the phase-table
  machinery picks up linear-Z terms automatically since they live in the
  diagonal);
- :meth:`~DiagonalProblem.coupling_graph` -- the interaction graph the SA
  reducer distills, with MaxCut-equivalent edge weights ``w = -2 J`` and
  (optionally) fields as self-loops so node strength is field-aware;
- :meth:`~DiagonalProblem.subproblem` -- the restriction to a node subset,
  which is what parameter transfer optimizes on;
- :meth:`~DiagonalProblem.from_qubo` / :meth:`~DiagonalProblem.to_qubo` --
  exact QUBO round-trip converters (``x_u = (1 - s_u) / 2``).

The ``w = -2 J`` weight convention makes a unit-weight MaxCut edge
(``J = -1/2``) carry coupling-graph weight exactly 1, so the problem layer
reduces and lightcone-evaluates weighted MaxCut bit-identically to the
pre-existing graph path.
"""

from __future__ import annotations

import math
from collections.abc import Mapping, Sequence

import networkx as nx
import numpy as np

from repro.qaoa.hamiltonian import MAX_DENSE_QUBITS
from repro.utils.rng import as_generator

__all__ = ["MAX_DENSE_QUBITS", "DiagonalProblem", "local_search_value"]

_DENSE_BEST_LIMIT = 20


class DiagonalProblem:
    """A diagonal Ising cost function ``constant + sum h_u s_u + sum J_uv s_u s_v``.

    Parameters
    ----------
    num_qubits:
        Number of binary variables; qubits are labeled ``0..n-1``.
    couplings:
        Mapping ``(u, v) -> J_uv`` of quadratic coefficients.  Keys are
        canonicalized to ``u < v``; duplicate keys (either orientation) are
        summed; zero couplings are dropped.
    fields:
        Mapping ``u -> h_u`` of linear coefficients (zeros dropped), or a
        length-``n`` sequence.
    constant:
        Additive constant (identity coefficient).
    name:
        Short workload tag (``"maxcut"``, ``"mis"``, ...) used in reprs and
        CLI output.

    The stored value is the objective **to maximize**, matching the
    convention of every optimizer and expectation engine in the package.
    """

    def __init__(
        self,
        num_qubits: int,
        couplings: Mapping[tuple[int, int], float] | None = None,
        fields: Mapping[int, float] | Sequence[float] | None = None,
        constant: float = 0.0,
        name: str = "ising",
    ) -> None:
        if num_qubits < 1:
            raise ValueError(f"num_qubits must be >= 1, got {num_qubits}")
        self.num_qubits = int(num_qubits)
        self.name = str(name)
        if not math.isfinite(constant):
            raise ValueError(f"constant must be finite, got {constant!r}")
        self.constant = float(constant)

        merged: dict[tuple[int, int], float] = {}
        for (u, v), value in (couplings or {}).items():
            u, v = int(u), int(v)
            if u == v:
                raise ValueError(f"coupling ({u}, {v}) is a self-pair; use fields")
            if not (0 <= u < num_qubits and 0 <= v < num_qubits):
                raise ValueError(f"coupling ({u}, {v}) out of range for n={num_qubits}")
            value = float(value)
            if not math.isfinite(value):
                raise ValueError(f"coupling ({u}, {v}) must be finite, got {value!r}")
            key = (u, v) if u < v else (v, u)
            merged[key] = merged.get(key, 0.0) + value
        self.couplings: dict[tuple[int, int], float] = {
            key: value for key, value in sorted(merged.items()) if value != 0.0
        }

        if fields is None:
            field_items: list[tuple[int, float]] = []
        elif isinstance(fields, Mapping):
            field_items = [(int(u), float(h)) for u, h in fields.items()]
        else:
            field_items = [(u, float(h)) for u, h in enumerate(fields)]
        cleaned: dict[int, float] = {}
        for u, h in field_items:
            if not 0 <= u < num_qubits:
                raise ValueError(f"field on qubit {u} out of range for n={num_qubits}")
            if not math.isfinite(h):
                raise ValueError(f"field on qubit {u} must be finite, got {h!r}")
            cleaned[u] = cleaned.get(u, 0.0) + h
        self.fields: dict[int, float] = {
            u: h for u, h in sorted(cleaned.items()) if h != 0.0
        }
        self._diagonal: np.ndarray | None = None

    # -- basic views ---------------------------------------------------------

    @property
    def num_couplings(self) -> int:
        return len(self.couplings)

    @property
    def is_field_free(self) -> bool:
        """Whether the problem has no linear-Z terms (pure coupling problem).

        Field-free problems are exactly the ones the lightcone engine can
        price: their phase layer is a weighted-MaxCut diagonal up to a
        global phase.
        """
        return not self.fields

    @property
    def edges(self) -> list[tuple[int, int]]:
        """Coupled qubit pairs, sorted -- the interaction topology."""
        return list(self.couplings)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"DiagonalProblem(name={self.name!r}, n={self.num_qubits}, "
            f"couplings={self.num_couplings}, fields={len(self.fields)})"
        )

    # -- evaluation ----------------------------------------------------------

    def value(self, bits: Sequence[int]) -> float:
        """Objective value of one assignment (sequence of ``n`` bits)."""
        bits = np.asarray(bits)
        if bits.shape != (self.num_qubits,):
            raise ValueError(
                f"expected {self.num_qubits} bits, got shape {bits.shape}"
            )
        spins = 1.0 - 2.0 * (bits & 1)
        total = self.constant
        for u, h in self.fields.items():
            total += h * spins[u]
        for (u, v), j in self.couplings.items():
            total += j * spins[u] * spins[v]
        return float(total)

    @property
    def diagonal(self) -> np.ndarray:
        """Objective value of every basis state: array of shape ``(2**n,)``.

        Bit ``u`` of the basis index is variable ``u`` (the
        :func:`~repro.qaoa.hamiltonian.cut_values` convention), so this
        vector drops straight into the fast statevector engines as both the
        phase diagonal and the measured observable.  Built qubit by qubit
        (each new qubit mirrors the existing block and adds its field plus
        its couplings into the block), which costs ``O(sum_e 2**max(e))``
        instead of ``O(m 2**n)`` -- an order of magnitude less for the
        dense SK instances.  Cached; guarded at ``n <= 26``.
        """
        if self._diagonal is None:
            self._diagonal = self._build_diagonal()
        return self._diagonal

    def _build_diagonal(self) -> np.ndarray:
        n = self.num_qubits
        if n > MAX_DENSE_QUBITS:
            raise ValueError(
                f"refusing to materialize 2**{n} diagonal values; "
                "use the lightcone engine (field-free) or sampling instead"
            )
        by_high: dict[int, list[tuple[int, float]]] = {}
        for (u, v), j in self.couplings.items():
            by_high.setdefault(v, []).append((u, j))
        diag = np.full(1, self.constant)
        for k in range(n):
            term = np.full(1 << k, self.fields.get(k, 0.0))
            incoming = by_high.get(k)
            if incoming:
                z = np.arange(1 << k, dtype=np.uint64)
                for u, j in incoming:
                    spins = 1.0 - 2.0 * ((z >> np.uint64(u)) & np.uint64(1)).astype(float)
                    term += j * spins
            grown = np.empty(1 << (k + 1))
            grown[: 1 << k] = diag + term  # bit k = 0 -> spin +1
            grown[1 << k :] = diag - term
            diag = grown
        return diag

    def best_value(self, method: str = "auto", seed=None) -> float:
        """The true optimum (``method="dense"``) or a strong lower bound.

        ``"auto"`` uses the dense diagonal when it is already cached or the
        problem is small (``n <= 20``), and falls back to randomized 1-flip
        local search (:func:`local_search_value`) beyond that.
        """
        if method not in ("auto", "dense", "local"):
            raise ValueError(f"unknown method {method!r}")
        if method == "dense" or (
            method == "auto"
            and (self._diagonal is not None or self.num_qubits <= _DENSE_BEST_LIMIT)
        ):
            return float(self.diagonal.max())
        value, _ = local_search_value(self, seed=seed)
        return value

    def brute_force(self) -> tuple[float, np.ndarray]:
        """Exact ``(best value, best bit assignment)`` via the dense diagonal."""
        best = int(np.argmax(self.diagonal))
        bits = (best >> np.arange(self.num_qubits)) & 1
        return float(self.diagonal[best]), bits.astype(np.int64)

    # -- graphs and restrictions ---------------------------------------------

    def coupling_graph(self, include_fields: bool = False) -> nx.Graph:
        """The interaction graph with MaxCut-equivalent edge weights.

        Nodes are ``0..n-1``; each coupling ``J_uv`` becomes an edge of
        weight ``-2 J_uv`` (so a unit-weight MaxCut edge, ``J = -1/2``, maps
        back to weight exactly 1, and the graph doubles as the equivalent
        weighted-MaxCut instance for the lightcone engine).  With
        ``include_fields=True`` each nonzero field adds a self-loop of
        weight ``2 h_u``, making the SA reducer's node-strength objective
        field-aware -- both annealing engines handle self-loops exactly
        (strength counts ``|2 h_u|`` once per kept node; connectivity is
        unaffected).
        """
        graph = nx.Graph()
        graph.add_nodes_from(range(self.num_qubits))
        for (u, v), j in self.couplings.items():
            graph.add_edge(u, v, weight=-2.0 * j)
        if include_fields:
            for u, h in self.fields.items():
                graph.add_edge(u, u, weight=2.0 * h)
        return graph

    def subproblem(self, nodes: Sequence[int]) -> "DiagonalProblem":
        """The restriction to ``nodes``, relabeled to ``0..k-1`` in sorted order.

        Keeps couplings with both endpoints inside, fields on kept nodes,
        and the constant (a shift cannot change which parameters optimize
        the surrogate).  This is the instance Red-QAOA optimizes on before
        transferring parameters back.
        """
        kept = sorted(set(int(node) for node in nodes))
        if not kept:
            raise ValueError("node subset must be non-empty")
        if kept[0] < 0 or kept[-1] >= self.num_qubits:
            raise ValueError(f"nodes out of range for n={self.num_qubits}: {kept}")
        mapping = {node: index for index, node in enumerate(kept)}
        couplings = {
            (mapping[u], mapping[v]): j
            for (u, v), j in self.couplings.items()
            if u in mapping and v in mapping
        }
        fields = {mapping[u]: h for u, h in self.fields.items() if u in mapping}
        return DiagonalProblem(
            len(kept), couplings, fields, constant=self.constant, name=self.name
        )

    # -- QUBO round trip -----------------------------------------------------

    @classmethod
    def from_qubo(
        cls,
        matrix: np.ndarray,
        offset: float = 0.0,
        maximize: bool = True,
        name: str = "qubo",
    ) -> "DiagonalProblem":
        """Ising form of the QUBO objective ``x^T Q x + offset``, ``x in {0,1}^n``.

        ``matrix`` may be any square real matrix; ``Q_uv + Q_vu`` is the
        coefficient of ``x_u x_v`` and the diagonal holds the linear terms.
        With ``maximize=False`` the objective is negated first, so the
        stored problem is always a maximization.  Substituting
        ``x_u = (1 - s_u) / 2`` gives ``J_uv = (Q_uv + Q_vu) / 4``,
        ``h_u = -Q_uu / 2 - sum_v (Q_uv + Q_vu) / 4`` and the matching
        constant; :meth:`to_qubo` inverts the map exactly.
        """
        matrix = np.asarray(matrix, dtype=float)
        if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
            raise ValueError(f"QUBO matrix must be square, got shape {matrix.shape}")
        if not np.isfinite(matrix).all() or not math.isfinite(offset):
            raise ValueError("QUBO matrix and offset must be finite")
        sign = 1.0 if maximize else -1.0
        n = matrix.shape[0]
        linear = sign * np.diag(matrix)
        pair = sign * (matrix + matrix.T)  # pair[u, v] is the x_u x_v coefficient
        np.fill_diagonal(pair, 0.0)
        couplings = {
            (u, v): pair[u, v] / 4.0
            for u in range(n)
            for v in range(u + 1, n)
            if pair[u, v] != 0.0
        }
        fields = {
            u: -linear[u] / 2.0 - pair[u].sum() / 4.0
            for u in range(n)
        }
        constant = (
            sign * offset + linear.sum() / 2.0 + sum(couplings.values())
        )
        return cls(n, couplings, fields, constant=constant, name=name)

    def to_qubo(self) -> tuple[np.ndarray, float]:
        """The ``(Q, offset)`` pair with ``x^T Q x + offset`` equal to the value.

        ``Q`` is symmetric (pair coefficients split evenly across
        ``Q_uv``/``Q_vu``); ``offset`` absorbs the spin-side constant.
        ``DiagonalProblem.from_qubo(*problem.to_qubo())`` reproduces the
        problem's diagonal (up to float round-off in the re-derived
        constant and fields).
        """
        n = self.num_qubits
        matrix = np.zeros((n, n))
        for (u, v), j in self.couplings.items():
            matrix[u, v] += 2.0 * j
            matrix[v, u] += 2.0 * j
        row_coupling = matrix.sum(axis=1)  # = 2 * sum_v J_uv per node
        for u in range(n):
            h = self.fields.get(u, 0.0)
            matrix[u, u] = -2.0 * h - row_coupling[u]
        offset = (
            self.constant
            + sum(self.fields.values())
            + sum(self.couplings.values())
        )
        return matrix, offset


def local_search_value(
    problem: DiagonalProblem,
    restarts: int = 20,
    seed=None,
) -> tuple[float, np.ndarray]:
    """Randomized 1-flip local search over spin assignments.

    Flip any variable whose flip gain ``-2 s_u (h_u + sum_v J_uv s_v)`` is
    positive until no single flip improves, over ``restarts`` random
    starts; on :func:`~repro.problems.encodings.maxcut_problem` this is the
    weighted MaxCut 1-flip search.  Returns the best
    ``(value, bits)`` found -- a strong lower bound on
    :meth:`DiagonalProblem.best_value` for instances too large for the
    dense diagonal.
    """
    if restarts < 1:
        raise ValueError(f"restarts must be >= 1, got {restarts}")
    rng = as_generator(seed)
    n = problem.num_qubits
    neighbors: list[list[tuple[int, float]]] = [[] for _ in range(n)]
    for (u, v), j in problem.couplings.items():
        neighbors[u].append((v, j))
        neighbors[v].append((u, j))
    fields = np.zeros(n)
    for u, h in problem.fields.items():
        fields[u] = h
    best_value = -np.inf
    best_bits: np.ndarray | None = None
    for _ in range(restarts):
        spins = 1.0 - 2.0 * rng.integers(0, 2, size=n)
        improved = True
        while improved:
            improved = False
            for u in range(n):
                local = fields[u] + sum(j * spins[v] for v, j in neighbors[u])
                if -2.0 * spins[u] * local > 0.0:
                    spins[u] = -spins[u]
                    improved = True
        bits = ((1.0 - spins) / 2.0).astype(np.int64)
        value = problem.value(bits)
        if value > best_value:
            best_value = value
            best_bits = bits
    assert best_bits is not None
    return float(best_value), best_bits
