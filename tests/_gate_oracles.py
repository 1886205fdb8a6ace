"""Gate-level reference oracles: the slow, faithful forms of the simulation.

The library simulates QAOA only through :mod:`repro.qaoa.fast_sim` and
:class:`~repro.qaoa.fast_sim.FastNoiseSpec`.  These walk a
:class:`~repro.quantum.circuit.QuantumCircuit` gate by gate instead, and
are what the fast engines, :mod:`repro.qaoa.circuit_builder` and the
transpiler are checked against:

- :class:`StatevectorSimulator` -- exact pure-state evolution;
- :class:`DensityMatrixSimulator` -- exact noisy evolution, Kraus maps;
- :class:`TrajectorySimulator` -- sampled Pauli-error trajectories, which
  converge to the density-matrix result for Pauli channels;
- :class:`NoiseModel` and the channel constructors, and
  :func:`device_noise_model`, which builds one from a fake backend's
  calibration;
- :func:`routed_cut_diagonal` -- the cut observable read through a
  transpiled circuit's final layout.

States are little-endian: basis index ``z`` holds qubit ``q`` in bit ``q``,
so as a rank-``n`` tensor qubit ``q`` lives on axis ``n - 1 - q``.
Two-qubit matrices act in the basis ``|q1 q0>`` where ``q0`` is the first
qubit argument.
"""

from __future__ import annotations

import cmath
import itertools
import math
from collections.abc import Iterable, Sequence
from dataclasses import dataclass, field

import numpy as np

from repro.mitigation.readout import ReadoutError
from repro.quantum.backends import _SINGLE_QUBIT_GATES, _TWO_QUBIT_GATES, FakeBackend
from repro.quantum.circuit import GATE_ARITY, PARAM_COUNT, Instruction, QuantumCircuit
from repro.quantum.transpiler import TranspileResult
from repro.utils.rng import as_generator

# -- gate matrices -----------------------------------------------------------

_SQ2 = 1.0 / math.sqrt(2.0)

_FIXED: dict[str, np.ndarray] = {
    "i": np.eye(2, dtype=complex),
    "x": np.array([[0, 1], [1, 0]], dtype=complex),
    "y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "z": np.array([[1, 0], [0, -1]], dtype=complex),
    "h": np.array([[_SQ2, _SQ2], [_SQ2, -_SQ2]], dtype=complex),
    "s": np.array([[1, 0], [0, 1j]], dtype=complex),
    "sdg": np.array([[1, 0], [0, -1j]], dtype=complex),
    "t": np.array([[1, 0], [0, cmath.exp(1j * math.pi / 4)]], dtype=complex),
    "tdg": np.array([[1, 0], [0, cmath.exp(-1j * math.pi / 4)]], dtype=complex),
    "sx": 0.5 * np.array([[1 + 1j, 1 - 1j], [1 - 1j, 1 + 1j]], dtype=complex),
    # Control is the first qubit (q0), target the second (q1); basis |q1 q0>.
    "cx": np.array(
        [[1, 0, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0], [0, 1, 0, 0]], dtype=complex
    ),
    "cz": np.diag([1, 1, 1, -1]).astype(complex),
    "swap": np.array(
        [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=complex
    ),
}


def gate_matrix(name: str, params: Sequence[float] = ()) -> np.ndarray:
    """Unitary for gate ``name``; ``KeyError`` if unknown, ``ValueError``
    on a parameter count that does not match ``PARAM_COUNT``."""
    if name not in GATE_ARITY:
        raise KeyError(f"unknown gate: {name!r}")
    if len(params) != PARAM_COUNT[name]:
        raise ValueError(
            f"gate {name!r} takes {PARAM_COUNT[name]} parameter(s), got {len(params)}"
        )
    if name in _FIXED:
        return _FIXED[name].copy()
    if name == "u3":
        theta, phi, lam = params
        c, s = math.cos(theta / 2), math.sin(theta / 2)
        return np.array(
            [
                [c, -cmath.exp(1j * lam) * s],
                [cmath.exp(1j * phi) * s, cmath.exp(1j * (phi + lam)) * c],
            ],
            dtype=complex,
        )
    (theta,) = params
    c, s = math.cos(theta / 2), math.sin(theta / 2)
    phase = cmath.exp(-0.5j * theta)
    if name == "rx":
        return np.array([[c, -1j * s], [-1j * s, c]], dtype=complex)
    if name == "ry":
        return np.array([[c, -s], [s, c]], dtype=complex)
    if name == "rz":
        return np.array([[phase, 0], [0, phase.conjugate()]], dtype=complex)
    return np.diag([phase, phase.conjugate(), phase.conjugate(), phase]).astype(complex)


# -- tensor kernels ----------------------------------------------------------


def apply_matrix(
    state: np.ndarray, matrix: np.ndarray, qubits: Sequence[int], num_qubits: int
) -> np.ndarray:
    """Apply ``matrix`` on ``qubits`` of a flat statevector (a new array)."""
    k = len(qubits)
    if matrix.shape != (2**k, 2**k):
        raise ValueError(f"matrix shape {matrix.shape} does not act on {k} qubit(s)")
    tensor = state.reshape((2,) * num_qubits)
    # Gate input axes are most-significant-first: reversed(qubits).
    in_axes = [num_qubits - 1 - q for q in reversed(qubits)]
    gate = matrix.reshape((2,) * (2 * k))
    moved = np.tensordot(gate, tensor, axes=(list(range(k, 2 * k)), in_axes))
    result = np.moveaxis(moved, range(k), in_axes)
    return np.ascontiguousarray(result).reshape(-1)


def apply_matrix_rho(
    rho: np.ndarray, matrix: np.ndarray, qubits: Sequence[int], num_qubits: int
) -> np.ndarray:
    """``U rho U^dagger`` on a flat ``(2**n, 2**n)`` density matrix."""
    k = len(qubits)
    dim = 2**num_qubits
    if rho.shape != (dim, dim):
        raise ValueError(f"rho shape {rho.shape} does not match {num_qubits} qubits")
    tensor = rho.reshape((2,) * (2 * num_qubits))
    row_axes = [num_qubits - 1 - q for q in reversed(qubits)]
    col_axes = [num_qubits + a for a in row_axes]
    contract = list(range(k, 2 * k))
    for gate, axes in (
        (matrix.reshape((2,) * (2 * k)), row_axes),
        (matrix.conj().reshape((2,) * (2 * k)), col_axes),
    ):
        moved = np.tensordot(gate, tensor, axes=(contract, axes))
        tensor = np.moveaxis(moved, range(k), axes)
    return np.ascontiguousarray(tensor).reshape(dim, dim)


# -- noise channels ----------------------------------------------------------

_PAULI_1Q = {label: _FIXED[label.lower()] for label in "XYZ"} | {"I": _FIXED["i"]}

_PAULI_PRODUCT = {
    (a, b): c
    for a, row in zip("IXYZ", ("IXYZ", "XIZY", "YZIX", "ZYXI"))
    for b, c in zip("IXYZ", row)
}


def pauli_string_matrix(label: str) -> np.ndarray:
    """Kron product for a Pauli label like ``"XZ"`` (most significant first)."""
    matrix = np.array([[1.0 + 0j]])
    for ch in label:
        matrix = np.kron(matrix, _PAULI_1Q[ch])
    return matrix


@dataclass
class QuantumError:
    """A channel on ``num_qubits`` qubits: Kraus operators, plus the Pauli
    probabilities (identity label included) when it is a Pauli channel."""

    kraus: list[np.ndarray]
    num_qubits: int
    pauli_probs: dict[str, float] | None = None

    def __post_init__(self) -> None:
        dim = 2**self.num_qubits
        total = np.zeros((dim, dim), dtype=complex)
        for k in self.kraus:
            if k.shape != (dim, dim):
                raise ValueError(f"Kraus operator shape {k.shape} != ({dim}, {dim})")
            total += k.conj().T @ k
        if not np.allclose(total, np.eye(dim), atol=1e-8):
            raise ValueError("Kraus operators do not satisfy the completeness relation")
        if self.pauli_probs is not None:
            s = sum(self.pauli_probs.values())
            if not math.isclose(s, 1.0, abs_tol=1e-8):
                raise ValueError(f"Pauli probabilities sum to {s}, expected 1")

    def to_pauli(self) -> dict[str, float]:
        """Pauli form, twirled when needed: ``p_P = sum_k |tr(P K_k)|^2 / d^2``
        (exact for a Pauli channel, the standard approximation otherwise)."""
        if self.pauli_probs is not None:
            return dict(self.pauli_probs)
        dim = 2**self.num_qubits
        probs: dict[str, float] = {}
        for chars in itertools.product("IXYZ", repeat=self.num_qubits):
            label = "".join(chars)
            pmat = pauli_string_matrix(label)
            weight = sum(abs(np.trace(pmat.conj().T @ k)) ** 2 for k in self.kraus)
            if float(weight) / dim**2 > 1e-15:
                probs[label] = float(weight) / dim**2
        total = sum(probs.values())
        return {k: v / total for k, v in probs.items()}

    def compose(self, other: QuantumError) -> QuantumError:
        """``other`` after ``self`` (same width)."""
        if other.num_qubits != self.num_qubits:
            raise ValueError("cannot compose errors of different widths")
        kraus = [b @ a for a in self.kraus for b in other.kraus]
        pauli = None
        if self.pauli_probs is not None and other.pauli_probs is not None:
            pauli = compose_pauli(self.pauli_probs, other.pauli_probs)
        return QuantumError(kraus, self.num_qubits, pauli)


def compose_pauli(a: dict[str, float], b: dict[str, float]) -> dict[str, float]:
    """Compose two Pauli channels (labels multiply up to phase)."""
    out: dict[str, float] = {}
    for la, pa in a.items():
        for lb, pb in b.items():
            label = "".join(_PAULI_PRODUCT[(x, y)] for x, y in zip(la, lb))
            out[label] = out.get(label, 0.0) + pa * pb
    return out


def pauli_error(probs: dict[str, float]) -> QuantumError:
    """Pauli channel from ``{label: probability}`` (must sum to 1)."""
    if not probs:
        raise ValueError("probs must be non-empty")
    widths = {len(label) for label in probs}
    if len(widths) != 1:
        raise ValueError(f"inconsistent Pauli label widths: {widths}")
    total = sum(probs.values())
    if not math.isclose(total, 1.0, abs_tol=1e-8):
        raise ValueError(f"probabilities sum to {total}, expected 1")
    kraus = [math.sqrt(p) * pauli_string_matrix(label) for label, p in probs.items() if p > 0]
    return QuantumError(kraus, widths.pop(), dict(probs))


def depolarizing_error(param: float, num_qubits: int) -> QuantumError:
    """Replace the state by the maximally mixed one with probability ``param``."""
    if not 0.0 <= param <= 1.0:
        raise ValueError(f"param must be in [0, 1], got {param}")
    p_each = param / 4**num_qubits
    probs = {"".join(p): p_each for p in itertools.product("IXYZ", repeat=num_qubits)}
    probs["I" * num_qubits] = 1.0 - param + p_each
    return pauli_error(probs)


def amplitude_damping_error(gamma: float) -> QuantumError:
    """Single-qubit amplitude damping (T1 decay) with rate ``gamma``."""
    if not 0.0 <= gamma <= 1.0:
        raise ValueError(f"gamma must be in [0, 1], got {gamma}")
    k0 = np.array([[1, 0], [0, math.sqrt(1 - gamma)]], dtype=complex)
    k1 = np.array([[0, math.sqrt(gamma)], [0, 0]], dtype=complex)
    return QuantumError([k0, k1], 1)


def phase_damping_error(lam: float) -> QuantumError:
    """Pure dephasing: the Pauli-Z channel with ``p_z = (1 - sqrt(1-lam)) / 2``."""
    if not 0.0 <= lam <= 1.0:
        raise ValueError(f"lambda must be in [0, 1], got {lam}")
    p_z = (1.0 - math.sqrt(1.0 - lam)) / 2.0
    return pauli_error({"I": 1.0 - p_z, "Z": p_z})


def thermal_relaxation_error(t1: float, t2: float, gate_time: float) -> QuantumError:
    """Relaxation of a cold qubit during ``gate_time``: amplitude damping
    composed with the residual pure dephasing (``t2 <= 2 * t1``)."""
    if t1 <= 0 or t2 <= 0:
        raise ValueError("t1 and t2 must be positive")
    if t2 > 2 * t1 + 1e-12:
        raise ValueError(f"t2={t2} exceeds physical limit 2*t1={2 * t1}")
    if gate_time < 0:
        raise ValueError(f"gate_time must be non-negative, got {gate_time}")
    gamma = 1.0 - math.exp(-gate_time / t1)
    # exp(-t/T2) = exp(-t/(2 T1)) * sqrt(1 - lam_phi); the exponents are
    # combined first so long gate times do not underflow.
    ratio = math.exp(gate_time * (1.0 / (2.0 * t1) - 1.0 / t2))
    lam_phi = max(0.0, 1.0 - ratio**2)
    return amplitude_damping_error(gamma).compose(phase_damping_error(lam_phi))


@dataclass
class NoiseModel:
    """Channels after each gate, by name (all qubits) or by (name, qubits),
    the specific entry winning; readout errors per qubit."""

    _all_qubit_errors: dict[str, list[QuantumError]] = field(default_factory=dict)
    _local_errors: dict[tuple[str, tuple[int, ...]], list[QuantumError]] = field(
        default_factory=dict
    )
    _readout_errors: dict[int, ReadoutError] = field(default_factory=dict)

    def add_all_qubit_quantum_error(
        self, error: QuantumError, gate_names: str | Iterable[str]
    ) -> None:
        if isinstance(gate_names, str):
            gate_names = [gate_names]
        for name in gate_names:
            self._all_qubit_errors.setdefault(name, []).append(error)

    def add_quantum_error(
        self, error: QuantumError, gate_name: str, qubits: Sequence[int]
    ) -> None:
        key = (gate_name, tuple(int(q) for q in qubits))
        self._local_errors.setdefault(key, []).append(error)

    def add_readout_error(self, error: ReadoutError, qubit: int) -> None:
        self._readout_errors[int(qubit)] = error

    def errors_for(self, inst: Instruction) -> list[QuantumError]:
        local = self._local_errors.get((inst.name, inst.qubits))
        if local is not None:
            return list(local)
        return list(self._all_qubit_errors.get(inst.name, []))

    def readout_error(self, qubit: int) -> ReadoutError | None:
        return self._readout_errors.get(qubit)

    @property
    def is_trivial(self) -> bool:
        return not (self._all_qubit_errors or self._local_errors or self._readout_errors)

    def noisy_gate_names(self) -> set[str]:
        return set(self._all_qubit_errors) | {name for name, _ in self._local_errors}

    def apply_readout_to_probs(self, probs: np.ndarray, num_qubits: int) -> np.ndarray:
        """Push basis probabilities through each qubit's confusion matrix."""
        probs = np.asarray(probs, dtype=float)
        if probs.shape != (2**num_qubits,):
            raise ValueError(f"probs must have shape ({2**num_qubits},)")
        tensor = probs.reshape((2,) * num_qubits)
        for qubit, error in self._readout_errors.items():
            if qubit >= num_qubits:
                continue
            axis = num_qubits - 1 - qubit
            tensor = np.moveaxis(
                np.tensordot(error.confusion_matrix, tensor, axes=([1], [axis])), 0, axis
            )
        return np.ascontiguousarray(tensor).reshape(-1).copy()


def device_noise_model(backend: FakeBackend) -> NoiseModel:
    """Depolarizing gate error, twirled thermal relaxation and readout error
    from ``backend``'s calibration -- Pauli channels only, so the
    trajectory simulator samples it exactly."""
    model = NoiseModel()
    relax_1q = thermal_relaxation_error(backend.t1, backend.t2, backend.time_1q).to_pauli()
    relax_2q = thermal_relaxation_error(backend.t1, backend.t2, backend.time_2q).to_pauli()
    probs_1q = compose_pauli(depolarizing_error(backend.error_1q, 1).to_pauli(), relax_1q)
    # rz is virtual (a frame change) on IBM hardware: error-free.
    noisy_1q = tuple(g for g in _SINGLE_QUBIT_GATES if g != "rz")
    model.add_all_qubit_quantum_error(pauli_error(probs_1q), noisy_1q)
    relax_pair = {
        la + lb: pa * pb for la, pa in relax_2q.items() for lb, pb in relax_2q.items()
    }
    probs_2q = compose_pauli(depolarizing_error(backend.error_2q, 2).to_pauli(), relax_pair)
    model.add_all_qubit_quantum_error(pauli_error(probs_2q), _TWO_QUBIT_GATES)
    readout = ReadoutError(p01=backend.error_readout, p10=backend.error_readout)
    for qubit in range(backend.num_qubits):
        model.add_readout_error(readout, qubit)
    return model


# -- simulators --------------------------------------------------------------


def _expectation(probs: np.ndarray, diagonal: np.ndarray) -> float:
    diagonal = np.asarray(diagonal, dtype=float)
    if diagonal.shape != probs.shape:
        raise ValueError(f"diagonal shape {diagonal.shape} != {probs.shape}")
    return float(probs @ diagonal)


def _check_width(circuit: QuantumCircuit, max_qubits: int) -> int:
    if circuit.num_qubits > max_qubits:
        raise ValueError(
            f"circuit has {circuit.num_qubits} qubits, exceeding max_qubits={max_qubits}"
        )
    return circuit.num_qubits


class StatevectorSimulator:
    """Exact pure-state simulation, ``O(len(circuit) * 2**n)``."""

    def __init__(self, max_qubits: int = 24) -> None:
        self.max_qubits = max_qubits

    def run(self, circuit: QuantumCircuit, initial_state: np.ndarray | None = None) -> np.ndarray:
        """Final statevector; ``initial_state`` defaults to ``|0...0>``."""
        n = _check_width(circuit, self.max_qubits)
        if initial_state is None:
            state = np.zeros(2**n, dtype=complex)
            state[0] = 1.0
        else:
            state = np.array(initial_state, dtype=complex)
            if state.shape != (2**n,):
                raise ValueError(f"initial_state must have shape ({2**n},), got {state.shape}")
        for inst in circuit:
            state = apply_matrix(state, gate_matrix(inst.name, inst.params), inst.qubits, n)
        return state

    def probabilities(self, circuit: QuantumCircuit) -> np.ndarray:
        return np.abs(self.run(circuit)) ** 2

    def expectation_diagonal(self, circuit: QuantumCircuit, diagonal: np.ndarray) -> float:
        return _expectation(self.probabilities(circuit), diagonal)

    def sample_counts(
        self, circuit: QuantumCircuit, shots: int, seed: int | None = None
    ) -> dict[int, int]:
        """``shots`` sampled outcomes as ``{basis index: count}``."""
        if shots < 1:
            raise ValueError(f"shots must be >= 1, got {shots}")
        probs = self.probabilities(circuit)
        outcomes = as_generator(seed).choice(len(probs), size=shots, p=probs / probs.sum())
        values, counts = np.unique(outcomes, return_counts=True)
        return {int(v): int(c) for v, c in zip(values, counts)}


class DensityMatrixSimulator:
    """Exact mixed-state simulation: each gate a conjugation, each attached
    channel a Kraus map; ``O(4**n)`` memory."""

    def __init__(self, max_qubits: int = 10) -> None:
        self.max_qubits = max_qubits

    def run(self, circuit: QuantumCircuit, noise_model: NoiseModel | None = None) -> np.ndarray:
        n = _check_width(circuit, self.max_qubits)
        rho = np.zeros((2**n, 2**n), dtype=complex)
        rho[0, 0] = 1.0
        for inst in circuit:
            rho = apply_matrix_rho(rho, gate_matrix(inst.name, inst.params), inst.qubits, n)
            if noise_model is not None:
                for error in noise_model.errors_for(inst):
                    rho = _apply_channel(rho, error, inst.qubits, n)
        return rho

    def probabilities(
        self, circuit: QuantumCircuit, noise_model: NoiseModel | None = None
    ) -> np.ndarray:
        """Measurement probabilities, readout error included."""
        probs = np.real(np.diag(self.run(circuit, noise_model))).clip(min=0.0)
        probs = probs / probs.sum()
        if noise_model is not None:
            probs = noise_model.apply_readout_to_probs(probs, circuit.num_qubits)
        return probs

    def expectation_diagonal(
        self,
        circuit: QuantumCircuit,
        diagonal: np.ndarray,
        noise_model: NoiseModel | None = None,
    ) -> float:
        return _expectation(self.probabilities(circuit, noise_model), diagonal)


def _apply_channel(
    rho: np.ndarray, error: QuantumError, qubits: tuple[int, ...], num_qubits: int
) -> np.ndarray:
    """Kraus map on ``qubits``; a 1-qubit channel on a wider gate acts on
    each gate qubit independently."""
    if error.num_qubits == len(qubits):
        targets: list[tuple[int, ...]] = [qubits]
    elif error.num_qubits == 1:
        targets = [(q,) for q in qubits]
    else:
        raise ValueError(
            f"cannot apply a {error.num_qubits}-qubit channel to gate qubits {qubits}"
        )
    for target in targets:
        rho = sum(apply_matrix_rho(rho, k, target, num_qubits) for k in error.kraus)
    return rho


class TrajectorySimulator:
    """Averages statevector runs with Pauli errors sampled from each gate's
    (twirled) channel; the twirl is exact for the device models."""

    def __init__(self, trajectories: int = 16, max_qubits: int = 24) -> None:
        if trajectories < 1:
            raise ValueError(f"trajectories must be >= 1, got {trajectories}")
        self.trajectories = trajectories
        self.max_qubits = max_qubits

    def run_single(
        self, circuit: QuantumCircuit, noise_model: NoiseModel | None, rng: np.random.Generator
    ) -> np.ndarray:
        """One noisy trajectory's final statevector."""
        n = _check_width(circuit, self.max_qubits)
        state = np.zeros(2**n, dtype=complex)
        state[0] = 1.0
        for inst in circuit:
            state = apply_matrix(state, gate_matrix(inst.name, inst.params), inst.qubits, n)
            for error in noise_model.errors_for(inst) if noise_model is not None else ():
                probs = error.to_pauli()
                labels = sorted(probs)
                cum = np.cumsum([probs[label] for label in labels])
                cum[-1] = 1.0 + 1e-12  # guard float round-off in searchsorted
                label = labels[int(np.searchsorted(cum, rng.random(), side="right"))]
                state = _inject_pauli(state, label, error, inst.qubits, n)
        return state

    def probabilities(
        self,
        circuit: QuantumCircuit,
        noise_model: NoiseModel | None = None,
        seed: int | np.random.Generator | None = None,
    ) -> np.ndarray:
        """Trajectory-averaged probabilities, readout error included."""
        rng = as_generator(seed)
        n = circuit.num_qubits
        count = 1 if noise_model is None or noise_model.is_trivial else self.trajectories
        acc = np.zeros(2**n, dtype=float)
        for _ in range(count):
            acc += np.abs(self.run_single(circuit, noise_model, rng)) ** 2
        probs = acc / count
        if noise_model is not None:
            probs = noise_model.apply_readout_to_probs(probs, n)
        return probs

    def expectation_diagonal(
        self,
        circuit: QuantumCircuit,
        diagonal: np.ndarray,
        noise_model: NoiseModel | None = None,
        seed: int | np.random.Generator | None = None,
    ) -> float:
        return _expectation(self.probabilities(circuit, noise_model, seed), diagonal)


def _inject_pauli(
    state: np.ndarray,
    label: str,
    error: QuantumError,
    gate_qubits: tuple[int, ...],
    num_qubits: int,
) -> np.ndarray:
    """Apply a sampled Pauli ``label``.  A 1-qubit channel on a 2-qubit gate
    targets the first gate qubit only (the device models attach full-width
    channels to 2-qubit gates)."""
    if set(label) == {"I"}:
        return state
    if error.num_qubits == len(gate_qubits):
        targets = gate_qubits
    elif error.num_qubits == 1:
        targets = (gate_qubits[0],)
    else:
        raise ValueError(
            f"cannot inject a {error.num_qubits}-qubit Pauli on gate qubits {gate_qubits}"
        )
    return apply_matrix(state, pauli_string_matrix(label), targets, num_qubits)


# -- routed observables ------------------------------------------------------


def routed_cut_diagonal(result: TranspileResult, graph) -> np.ndarray:
    """Weighted cut values over ``result.circuit``'s register, each logical
    edge read through the final layout.  ``graph`` carries the logical
    labels ``0..n-1`` the routed circuit was built from."""
    z = np.arange(2**result.circuit.num_qubits, dtype=np.uint64)
    diagonal = np.zeros(z.size)
    for u, v, data in graph.edges(data=True):
        pu, pv = np.uint64(result.final_layout[u]), np.uint64(result.final_layout[v])
        diagonal += float(data.get("weight", 1.0)) * (((z >> pu) ^ (z >> pv)) & np.uint64(1))
    return diagonal
