"""Quantum circuit intermediate representation.

A :class:`QuantumCircuit` is an ordered list of :class:`Instruction` records
over ``num_qubits`` wires.  The IR is intentionally simple: gates append in
program order, depth is computed on demand, and the transpiler rewrites
the list.

Example
-------
>>> qc = QuantumCircuit(2)
>>> qc.h(0)
>>> qc.cx(0, 1)
>>> qc.depth()
2
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass, field

__all__ = ["GATE_ARITY", "PARAM_COUNT", "Instruction", "QuantumCircuit"]

# The gate set: what QAOA circuits and their transpiled forms need.  Gates
# are lowercase names; a two-qubit gate on (q0, q1) with q0 the control.
GATE_ARITY: dict[str, int] = {
    **dict.fromkeys(("i", "x", "y", "z", "h", "s", "sdg", "t", "tdg", "sx"), 1),
    **dict.fromkeys(("rx", "ry", "rz", "u3"), 1),
    **dict.fromkeys(("cx", "cz", "swap", "rzz"), 2),
}

PARAM_COUNT: dict[str, int] = {
    **dict.fromkeys(GATE_ARITY, 0), "rx": 1, "ry": 1, "rz": 1, "rzz": 1, "u3": 3,
}


@dataclass(frozen=True)
class Instruction:
    """One gate application: name, target qubits, and rotation parameters."""

    name: str
    qubits: tuple[int, ...]
    params: tuple[float, ...] = ()

    def __post_init__(self) -> None:
        if self.name not in GATE_ARITY:
            raise KeyError(f"unknown gate: {self.name!r}")
        if len(self.qubits) != GATE_ARITY[self.name]:
            raise ValueError(
                f"gate {self.name!r} acts on {GATE_ARITY[self.name]} qubit(s), "
                f"got {len(self.qubits)}"
            )
        if len(set(self.qubits)) != len(self.qubits):
            raise ValueError(f"duplicate qubits in {self.qubits}")
        if len(self.params) != PARAM_COUNT[self.name]:
            raise ValueError(
                f"gate {self.name!r} takes {PARAM_COUNT[self.name]} parameter(s), "
                f"got {len(self.params)}"
            )


@dataclass
class QuantumCircuit:
    """An ordered gate list over ``num_qubits`` qubits."""

    num_qubits: int
    instructions: list[Instruction] = field(default_factory=list)

    def __post_init__(self) -> None:
        if self.num_qubits < 1:
            raise ValueError(f"num_qubits must be >= 1, got {self.num_qubits}")
        for inst in self.instructions:
            self._check_qubits(inst.qubits)

    # -- building ---------------------------------------------------------

    def append(self, name: str, qubits: Sequence[int], params: Sequence[float] = ()) -> None:
        """Append gate ``name`` on ``qubits`` with ``params``."""
        qubits = tuple(int(q) for q in qubits)
        self._check_qubits(qubits)
        self.instructions.append(Instruction(name, qubits, tuple(float(p) for p in params)))

    def h(self, qubit: int) -> None:
        self.append("h", (qubit,))

    def x(self, qubit: int) -> None:
        self.append("x", (qubit,))

    def y(self, qubit: int) -> None:
        self.append("y", (qubit,))

    def z(self, qubit: int) -> None:
        self.append("z", (qubit,))

    def sx(self, qubit: int) -> None:
        self.append("sx", (qubit,))

    def rx(self, theta: float, qubit: int) -> None:
        self.append("rx", (qubit,), (theta,))

    def ry(self, theta: float, qubit: int) -> None:
        self.append("ry", (qubit,), (theta,))

    def rz(self, theta: float, qubit: int) -> None:
        self.append("rz", (qubit,), (theta,))

    def u3(self, theta: float, phi: float, lam: float, qubit: int) -> None:
        self.append("u3", (qubit,), (theta, phi, lam))

    def cx(self, control: int, target: int) -> None:
        self.append("cx", (control, target))

    def cz(self, a: int, b: int) -> None:
        self.append("cz", (a, b))

    def swap(self, a: int, b: int) -> None:
        self.append("swap", (a, b))

    def rzz(self, theta: float, a: int, b: int) -> None:
        self.append("rzz", (a, b), (theta,))

    def extend(self, other: "QuantumCircuit") -> None:
        """Append all instructions of ``other`` (same width required)."""
        if other.num_qubits > self.num_qubits:
            raise ValueError(
                f"cannot extend a {self.num_qubits}-qubit circuit with a "
                f"{other.num_qubits}-qubit circuit"
            )
        self.instructions.extend(other.instructions)

    # -- inspection -------------------------------------------------------

    def __iter__(self) -> Iterator[Instruction]:
        return iter(self.instructions)

    def __len__(self) -> int:
        return len(self.instructions)

    def depth(self) -> int:
        """Circuit depth: the longest chain of dependent gates."""
        levels = [0] * self.num_qubits
        for inst in self.instructions:
            level = 1 + max(levels[q] for q in inst.qubits)
            for q in inst.qubits:
                levels[q] = level
        return max(levels, default=0)

    def count_ops(self) -> dict[str, int]:
        """Histogram of gate names."""
        counts: dict[str, int] = {}
        for inst in self.instructions:
            counts[inst.name] = counts.get(inst.name, 0) + 1
        return counts

    def two_qubit_gate_count(self) -> int:
        """Number of two-qubit gates (the dominant error source on NISQ)."""
        return sum(1 for inst in self.instructions if len(inst.qubits) == 2)

    def copy(self) -> "QuantumCircuit":
        """A deep-enough copy (instructions are immutable)."""
        return QuantumCircuit(self.num_qubits, list(self.instructions))

    def used_qubits(self) -> set[int]:
        """Qubits touched by at least one instruction."""
        used: set[int] = set()
        for inst in self.instructions:
            used.update(inst.qubits)
        return used

    # -- internals --------------------------------------------------------

    def _check_qubits(self, qubits: Iterable[int]) -> None:
        for q in qubits:
            if not 0 <= q < self.num_qubits:
                raise ValueError(f"qubit {q} out of range [0, {self.num_qubits})")

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        ops = ", ".join(f"{k}:{v}" for k, v in sorted(self.count_ops().items()))
        return f"QuantumCircuit(num_qubits={self.num_qubits}, gates=[{ops}])"
