"""Quantum circuits and devices: describe a circuit and route it.

This subpackage stands in for the Qiskit pieces the paper's Sec. 5.3 flow
uses to map QAOA onto hardware: a circuit IR (:mod:`repro.quantum.circuit`),
fake device backends with coupling maps and calibration data
(:mod:`repro.quantum.backends`, :mod:`repro.quantum.coupling`), and a
SABRE-style transpiler (:mod:`repro.quantum.transpiler`).  It simulates
nothing: QAOA runs through :mod:`repro.qaoa.fast_sim`, whose
:class:`~repro.qaoa.fast_sim.FastNoiseSpec` reads a backend's error rates.
"""

from repro.quantum.circuit import Instruction, QuantumCircuit
from repro.quantum.backends import FakeBackend, get_backend, list_backends
from repro.quantum.coupling import CouplingMap
from repro.quantum.transpiler import TranspileResult, transpile

__all__ = [
    "CouplingMap",
    "FakeBackend",
    "Instruction",
    "QuantumCircuit",
    "TranspileResult",
    "get_backend",
    "list_backends",
    "transpile",
]
