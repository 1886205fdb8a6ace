"""Fast QAOA-for-MaxCut simulation.

The MaxCut cost layer is diagonal, so a p-layer QAOA circuit reduces to
``p`` rounds of (elementwise phase multiply, per-qubit RX) on the state.
This engine is exact and one to two orders of magnitude faster than walking
the gate-level IR, which makes the paper's 1024-point landscape grids cheap
on a laptop.  The gate-level references it is checked against live with
the tests, in ``tests/_gate_oracles.py``.

The module also provides the *fast noisy path*: Pauli-trajectory noise
injected at the QAOA-layer granularity (one two-qubit error channel per
edge per cost layer -- matching the RZZ/CX pairs a transpiled circuit would
execute -- and one single-qubit channel per qubit per mixer layer, plus
readout error).  :class:`FastNoiseSpec` captures those rates and can be
derived from a :class:`~repro.quantum.backends.FakeBackend`.

The ideal engines only touch ``hamiltonian.num_qubits`` and
``hamiltonian.diagonal``, so any diagonal cost function duck-types here --
in particular :class:`~repro.problems.DiagonalProblem`, whose linear-Z
fields simply appear as extra distinct diagonal values (the phase-table
gather absorbs them at no extra cost).
"""

from __future__ import annotations

import hashlib
import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from repro.qaoa.hamiltonian import MaxCutHamiltonian, cut_diagonal
from repro.utils.rng import as_generator

__all__ = [
    "FastNoiseSpec",
    "qaoa_expectation_fast",
    "qaoa_expectation_batch",
    "qaoa_probabilities",
    "qaoa_statevector",
]


def _check_params(gammas: Sequence[float], betas: Sequence[float]) -> tuple[np.ndarray, np.ndarray]:
    gammas = np.atleast_1d(np.asarray(gammas, dtype=float))
    betas = np.atleast_1d(np.asarray(betas, dtype=float))
    if gammas.shape != betas.shape or gammas.ndim != 1 or gammas.size == 0:
        raise ValueError(
            f"gammas and betas must be equal-length 1-D sequences, got "
            f"{gammas.shape} and {betas.shape}"
        )
    return gammas, betas


# Qubits whose RX pairs stay inside one block of the blocked statevector:
# 2**14 complex amplitudes = 256 KB, which stays resident in L2 while the
# phase and every low-qubit RX run over it.
_LOW_QUBITS = 14
# Amplitude pairs per chunk of a high-qubit RX pass: two 64 KB halves plus
# two 64 KB scratch buffers.
_CHUNK = 1 << 12


def _rx_update(a: np.ndarray, b: np.ndarray, c, s, top=None, tmp=None) -> None:
    """In-place ``RX`` pair update: ``(a, b) <- (c a - i s b, c b - i s a)``.

    ``a`` and ``b`` are the two half-state views for one qubit; ``c`` and
    ``s`` are ``cos(beta)`` / ``sin(beta)`` -- scalars, or arrays that
    broadcast against the views (the batched engine passes per-point
    columns).  ``top`` and ``tmp`` are optional scratch arrays shaped like
    the views; without them the update allocates its temporaries.
    """
    js = 1j * s
    top = np.multiply(c, a, out=top)
    tmp = np.multiply(js, b, out=tmp)
    np.subtract(top, tmp, out=top)
    b *= c
    np.multiply(js, a, out=tmp)
    b -= tmp
    a[...] = top


def _apply_rx_qubit(state: np.ndarray, qubit: int, c: float, s: float) -> None:
    """Apply ``RX`` with precomputed cosine/sine to one qubit in place."""
    view = state.reshape(-1, 2, 2**qubit)
    _rx_update(view[:, 0, :], view[:, 1, :], c, s)


def _apply_rx_high(
    state: np.ndarray, qubit: int, c: float, s: float, top: np.ndarray, tmp: np.ndarray
) -> None:
    """``RX`` on a high qubit, streaming the state through small buffers.

    The amplitude pairs ``(i, i + 2**qubit)`` are updated ``top.size`` at a
    time with ``top``/``tmp`` as ``out=`` scratch (``2**qubit`` must be a
    multiple of ``top.size``) instead of three fresh half-state
    temporaries.  Every amplitude sees the same arithmetic as in one
    whole-state update, so the result is bit-identical to it.
    """
    chunk = top.size
    for row in state.reshape(-1, 2, 2**qubit):
        for start in range(0, 2**qubit, chunk):
            stop = start + chunk
            _rx_update(row[0, start:stop], row[1, start:stop], c, s, top, tmp)


def qaoa_statevector(
    hamiltonian: MaxCutHamiltonian,
    gammas: Sequence[float],
    betas: Sequence[float],
) -> np.ndarray:
    """Exact final statevector of p-layer QAOA (paper Eq. 3).

    Cache-blocked: per layer, the cost phase and the RX on the low
    :data:`_LOW_QUBITS` qubits run one ``2**14``-amplitude block at a time
    (those RX pairs never leave a block), then the high qubits' RX passes
    stream the whole state through small preallocated buffers.  Each
    amplitude receives the same operations in the same order as the
    unblocked layer (phase multiply, then RX qubit by qubit), so the state
    is bit-identical to it.
    """
    gammas, betas = _check_params(gammas, betas)
    n = hamiltonian.num_qubits
    diag = hamiltonian.diagonal
    size = 2**n
    state = np.full(size, 1.0 / math.sqrt(size), dtype=complex)
    low = min(n, _LOW_QUBITS)
    block = 2**low
    phase = np.empty(block, dtype=complex)
    top = np.empty(_CHUNK, dtype=complex)
    tmp = np.empty(_CHUNK, dtype=complex)
    for gamma, beta in zip(gammas, betas):
        factor = -1j * gamma
        c = math.cos(beta)
        s = math.sin(beta)
        for start in range(0, size, block):
            amplitudes = state[start : start + block]
            np.multiply(factor, diag[start : start + block], out=phase)
            amplitudes *= np.exp(phase, out=phase)
            for q in range(low):
                _apply_rx_qubit(amplitudes, q, c, s)
        for q in range(low, n):
            _apply_rx_high(state, q, c, s, top, tmp)
    return state


def qaoa_probabilities(
    hamiltonian: MaxCutHamiltonian,
    gammas: Sequence[float],
    betas: Sequence[float],
) -> np.ndarray:
    """Ideal measurement probabilities of the QAOA trial state."""
    state = qaoa_statevector(hamiltonian, gammas, betas)
    return np.abs(state) ** 2


def qaoa_expectation_fast(
    hamiltonian: MaxCutHamiltonian,
    gammas: Sequence[float],
    betas: Sequence[float],
) -> float:
    """Ideal expected cut value ``<psi| H_c |psi>``."""
    probs = qaoa_probabilities(hamiltonian, gammas, betas)
    return float(probs @ hamiltonian.diagonal)


def _phase_table(diag: np.ndarray) -> tuple[np.ndarray, np.ndarray] | None:
    """Distinct diagonal values and inverse index, when few enough to pay off.

    Cut-value diagonals take at most ``m + 1`` distinct values on unweighted
    graphs, so ``exp(-i g v)`` over the distinct values plus a gather beats
    a transcendental per amplitude by one to two orders of magnitude.
    """
    values, inverse = np.unique(diag, return_inverse=True)
    if len(values) * 8 > diag.size:
        return None
    return values, inverse.astype(np.intp)


BATCH_CHUNK = 32  # parameter sets per batched statevector chunk


def qaoa_expectation_batch(
    hamiltonian: MaxCutHamiltonian,
    gammas: np.ndarray,
    betas: np.ndarray,
    observable: np.ndarray | None = None,
) -> np.ndarray:
    """Vectorized expectations for many parameter sets.

    ``gammas`` and ``betas`` have shape ``(batch, p)``.  Batches are chunked
    so the working set stays cache-sized (at most ``BATCH_CHUNK`` states
    and near ``2**19`` amplitudes).  ``observable`` overrides the measured
    diagonal (default: the cut-value diagonal); the phase layers always use
    the Hamiltonian's own diagonal.  The lightcone plan uses this to read a marked edge's cut
    probability from a class subgraph.
    """
    gammas = np.atleast_2d(np.asarray(gammas, dtype=float))
    betas = np.atleast_2d(np.asarray(betas, dtype=float))
    if gammas.shape != betas.shape:
        raise ValueError(f"shape mismatch: {gammas.shape} vs {betas.shape}")
    batch, p = gammas.shape
    n = hamiltonian.num_qubits
    diag = hamiltonian.diagonal
    measured = diag if observable is None else np.asarray(observable, dtype=float)
    if measured.shape != diag.shape:
        raise ValueError(
            f"observable shape {measured.shape} does not match the "
            f"{n}-qubit Hamiltonian (expected shape {diag.shape})"
        )
    table = _phase_table(diag)
    # Keep the per-chunk working set near 2**19 amplitudes (cache-resident).
    chunk_size = max(1, min(BATCH_CHUNK, 2**19 // 2**n))
    out = np.empty(batch, dtype=float)
    for start in range(0, batch, chunk_size):
        stop = min(start + chunk_size, batch)
        size = stop - start
        states = np.full((size, 2**n), 1.0 / math.sqrt(2**n), dtype=complex)
        for layer in range(p):
            g = gammas[start:stop, layer][:, None]
            if table is None:
                states *= np.exp(-1j * g * diag[None, :])
            else:
                values, inverse = table
                states *= np.exp(-1j * g * values[None, :])[:, inverse]
            c = np.cos(betas[start:stop, layer])[:, None, None]
            s = np.sin(betas[start:stop, layer])[:, None, None]
            for q in range(n):
                view = states.reshape(size, -1, 2, 2**q)
                _rx_update(view[:, :, 0, :], view[:, :, 1, :], c, s)
        out[start:stop] = np.einsum("bi,i->b", np.abs(states) ** 2, measured)
    return out


@dataclass(frozen=True)
class FastNoiseSpec:
    """Layer-granular noise for the fast noisy path.

    Stochastic (incoherent) components:

    - ``edge_error``: probability of a random two-qubit Pauli after each
      edge interaction in a cost layer (a transpiled RZZ costs two CX
      gates, so this is roughly ``2 x`` the device CX error, times a
      routing overhead);
    - ``node_error``: probability of a random single-qubit Pauli per qubit
      per mixer layer;
    - ``readout_error``: symmetric per-qubit assignment error.

    Systematic (coherent) components -- these are what actually *warp* the
    landscape shape and displace optima, as seen on real hardware (paper
    Fig. 2); incoherent Pauli noise mostly damps the landscape uniformly,
    which normalization cancels:

    - ``edge_phase_bias``: per-edge multiplicative error on the cost phase
      (``gamma -> gamma * (1 + bias_e)``), from calibration drift, residual
      ZZ crosstalk, and SWAP-chain decomposition angle errors;
    - ``node_mixer_bias``: per-qubit multiplicative error on the mixer angle.

    Biases are fixed per spec (drawn once by :meth:`for_graph`), making the
    distortion systematic across a landscape rather than re-randomized per
    evaluation point.
    """

    edge_error: float = 0.0
    node_error: float = 0.0
    readout_error: float = 0.0
    edge_phase_bias: tuple[float, ...] | None = None
    node_mixer_bias: tuple[float, ...] | None = None

    def __post_init__(self) -> None:
        for name in ("edge_error", "node_error", "readout_error"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {value}")
        for name in ("edge_phase_bias", "node_mixer_bias"):
            biases = getattr(self, name)
            if biases is None:
                continue
            for index, bias in enumerate(biases):
                if not math.isfinite(bias):
                    raise ValueError(
                        f"{name}[{index}] must be finite, got {bias!r}"
                    )

    @classmethod
    def from_backend(cls, backend, routing_overhead: float = 1.5) -> "FastNoiseSpec":
        """Derive layer rates from a fake backend's calibration.

        ``routing_overhead`` multiplies the two-qubit error to account for
        SWAP insertion on sparse topologies (SABRE-routed QAOA circuits on
        heavy-hex devices typically add ~0.5 extra CX per logical CX).
        Purely incoherent; use :meth:`for_graph` for the coherent warp.
        """
        edge = min(1.0, 2.0 * backend.error_2q * routing_overhead)
        return cls(
            edge_error=edge,
            node_error=min(1.0, backend.error_1q),
            readout_error=min(1.0, backend.error_readout),
        )

    @classmethod
    def for_graph(cls, backend, graph) -> "FastNoiseSpec":
        """Graph-size-aware noise, modeling transpilation overhead.

        Routing cost grows with circuit width and with how much the graph's
        connectivity exceeds the device's (every extra logical neighbor
        forces SWAP chains on a degree-<=3 heavy-hex lattice).  Both the
        incoherent rates and the coherent bias magnitudes scale with that
        overhead, which is the mechanism behind the paper's Fig. 10: the
        distilled graph's smaller, shallower circuit is distorted less.

        Biases are drawn from a generator seeded by (backend, graph shape),
        so the same (device, graph) pair always sees the same systematic
        error -- as a real calibration snapshot would.  A graph with more
        nodes than the device has qubits raises ``ValueError``, as
        :func:`~repro.quantum.transpiler.transpile` does.
        """
        n = graph.number_of_nodes()
        m = graph.number_of_edges()
        if n == 0:
            raise ValueError("graph must have nodes")
        if n > backend.num_qubits:
            raise ValueError(
                f"a {n}-node graph needs {n} qubits but device {backend.name!r} "
                f"has {backend.num_qubits}"
            )
        graph_degree = 2.0 * m / n
        device_degree = 2.0 * len(backend.coupling_map.edges) / backend.num_qubits
        overhead = 1.0 + 0.15 * n + 0.3 * max(0.0, graph_degree - device_degree)
        quality = backend.error_2q / 0.01
        # Coherent angle error accumulates along SWAP chains, so its
        # magnitude scales with both the routing overhead and the circuit
        # area (sqrt of the edge count); the 3.5% base and the scalings are
        # calibrated so 7-14-node graphs under the toronto preset show the
        # ~0.02-0.1 noisy-landscape MSE range of the paper's Fig. 10, with
        # the reduced circuit distorted visibly less.
        sigma = 0.035 * overhead * quality * math.sqrt(max(m, 1) / 10.0)
        # Stable across processes (built-in hash() is salted per run).
        digest = hashlib.sha256(f"{backend.name}:{n}:{m}".encode()).digest()
        rng = np.random.default_rng(int.from_bytes(digest[:4], "big"))
        edge_bias = tuple(float(b) for b in rng.normal(0.0, sigma, size=max(m, 1)))
        node_bias = tuple(float(b) for b in rng.normal(0.0, sigma, size=n))
        return cls(
            edge_error=min(1.0, 2.0 * backend.error_2q * overhead),
            node_error=min(1.0, backend.error_1q * (1.0 + 0.02 * n)),
            readout_error=min(1.0, backend.error_readout),
            edge_phase_bias=edge_bias,
            node_mixer_bias=node_bias,
        )

    @property
    def is_trivial(self) -> bool:
        return (
            self.edge_error == 0.0
            and self.node_error == 0.0
            and self.readout_error == 0.0
            and self.edge_phase_bias is None
            and self.node_mixer_bias is None
        )


_PAULI_OPS = ("x", "y", "z")


def _apply_pauli_fast(state: np.ndarray, num_qubits: int, qubit: int, op: str) -> None:
    """Apply a single Pauli in place via slice manipulation."""
    view = state.reshape(-1, 2, 2**qubit)
    if op == "x":
        tmp = view[:, 0, :].copy()
        view[:, 0, :] = view[:, 1, :]
        view[:, 1, :] = tmp
    elif op == "y":
        tmp = view[:, 0, :].copy()
        view[:, 0, :] = -1j * view[:, 1, :]
        view[:, 1, :] = 1j * tmp
    elif op == "z":
        view[:, 1, :] *= -1.0
    else:  # pragma: no cover - internal
        raise ValueError(f"unknown Pauli {op!r}")


def _biased_cost_diagonal(hamiltonian: MaxCutHamiltonian, noise: FastNoiseSpec) -> np.ndarray:
    """Cost-layer phase diagonal including coherent per-edge biases.

    The implemented circuit rotates edge ``e`` by ``gamma * (1 + bias_e)``
    rather than ``gamma``; equivalently the phase diagonal is the weighted
    cut-value vector with weights ``1 + bias_e``.  The *measured observable*
    remains the unweighted cut count.
    """
    if noise.edge_phase_bias is None:
        return hamiltonian.diagonal
    edges = hamiltonian.edges
    if len(noise.edge_phase_bias) < len(edges):
        raise ValueError(
            f"edge_phase_bias has {len(noise.edge_phase_bias)} entries for "
            f"{len(edges)} edges"
        )
    return cut_diagonal(
        hamiltonian.num_qubits,
        edges,
        [
            (1.0 + bias) * weight
            for weight, bias in zip(hamiltonian.weights, noise.edge_phase_bias)
        ],
    )


def _apply_biased_mixer(
    state: np.ndarray, num_qubits: int, beta: float, noise: FastNoiseSpec
) -> np.ndarray:
    """Mixer layer, with coherent per-qubit angle biases when the spec has them."""
    biases = noise.node_mixer_bias
    if biases is not None and len(biases) < num_qubits:
        raise ValueError(
            f"node_mixer_bias has {len(biases)} entries for {num_qubits} qubits"
        )
    for q in range(num_qubits):
        angle = beta if biases is None else beta * (1.0 + biases[q])
        _apply_rx_qubit(state, q, math.cos(angle), math.sin(angle))
    return state


def _noisy_trajectory_probs(
    hamiltonian: MaxCutHamiltonian,
    gammas: np.ndarray,
    betas: np.ndarray,
    noise: FastNoiseSpec,
    rng: np.random.Generator,
    cost_diag: np.ndarray | None = None,
) -> np.ndarray:
    """One noisy trajectory; returns measurement probabilities."""
    n = hamiltonian.num_qubits
    diag = cost_diag if cost_diag is not None else _biased_cost_diagonal(hamiltonian, noise)
    state = np.full(2**n, 1.0 / math.sqrt(2**n), dtype=complex)
    for gamma, beta in zip(gammas, betas):
        state *= np.exp(-1j * gamma * diag)
        if noise.edge_error > 0.0:
            for u, v in hamiltonian.edges:
                if rng.random() < noise.edge_error:
                    # Uniform non-identity two-qubit Pauli: draw from the 16
                    # products and reject II.
                    while True:
                        pu, pv = rng.integers(0, 4, size=2)
                        if pu or pv:
                            break
                    if pu:
                        _apply_pauli_fast(state, n, u, _PAULI_OPS[pu - 1])
                    if pv:
                        _apply_pauli_fast(state, n, v, _PAULI_OPS[pv - 1])
        state = _apply_biased_mixer(state, n, beta, noise)
        if noise.node_error > 0.0:
            for q in range(n):
                if rng.random() < noise.node_error:
                    _apply_pauli_fast(state, n, q, _PAULI_OPS[rng.integers(0, 3)])
    return np.abs(state) ** 2


def _apply_symmetric_readout(probs: np.ndarray, num_qubits: int, p_flip: float) -> np.ndarray:
    """Apply a symmetric bit-flip confusion matrix to every qubit."""
    if p_flip <= 0.0:
        return probs
    tensor = probs.reshape((2,) * num_qubits)
    matrix = np.array([[1 - p_flip, p_flip], [p_flip, 1 - p_flip]])
    for axis in range(num_qubits):
        tensor = np.moveaxis(np.tensordot(matrix, tensor, axes=([1], [axis])), 0, axis)
    return np.ascontiguousarray(tensor).reshape(-1)


def noisy_qaoa_probabilities(
    hamiltonian: MaxCutHamiltonian,
    gammas: Sequence[float],
    betas: Sequence[float],
    noise: FastNoiseSpec,
    trajectories: int = 8,
    seed: int | np.random.Generator | None = None,
) -> np.ndarray:
    """Trajectory-averaged noisy measurement probabilities."""
    gammas, betas = _check_params(gammas, betas)
    if trajectories < 1:
        raise ValueError(f"trajectories must be >= 1, got {trajectories}")
    rng = as_generator(seed)
    n = hamiltonian.num_qubits
    if noise.is_trivial:
        probs = qaoa_probabilities(hamiltonian, gammas, betas)
    else:
        cost_diag = _biased_cost_diagonal(hamiltonian, noise)
        if noise.edge_error == 0.0 and noise.node_error == 0.0:
            trajectories = 1  # purely coherent noise is deterministic
        acc = np.zeros(2**n)
        for _ in range(trajectories):
            acc += _noisy_trajectory_probs(
                hamiltonian, gammas, betas, noise, rng, cost_diag
            )
        probs = acc / trajectories
    return _apply_symmetric_readout(probs, n, noise.readout_error)


def noisy_qaoa_expectation_fast(
    hamiltonian: MaxCutHamiltonian,
    gammas: Sequence[float],
    betas: Sequence[float],
    noise: FastNoiseSpec,
    trajectories: int = 8,
    shots: int | None = None,
    seed: int | np.random.Generator | None = None,
) -> float:
    """Noisy expected cut value, optionally with shot sampling noise."""
    rng = as_generator(seed)
    probs = noisy_qaoa_probabilities(hamiltonian, gammas, betas, noise, trajectories, rng)
    if shots is None:
        return float(probs @ hamiltonian.diagonal)
    if shots < 1:
        raise ValueError(f"shots must be >= 1, got {shots}")
    outcomes = rng.choice(len(probs), size=shots, p=probs / probs.sum())
    return float(hamiltonian.diagonal[outcomes].mean())
