"""Fake device backends with coupling maps and calibration data.

The paper simulates against Qiskit fake backends (FakeToronto et al.) and
runs on real ibmq_kolkata / Rigetti Aspen-M-3 hardware.  Offline, we encode
each device as a :class:`FakeBackend`: topology, basis gates, gate times,
coherence times, and error rates in the ballpark of published calibrations.
The transpiler routes onto the topology, and
:meth:`~repro.qaoa.fast_sim.FastNoiseSpec.for_graph` turns the error rates
into QAOA-layer noise.

Exact calibration values are irrelevant to the paper's claims -- what
matters is (a) realistic topology for the transpiler and (b) an error-rate
*ordering* across devices for the Fig. 24 sweep (Kolkata best ... Toronto /
Melbourne worst).  Both are preserved.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.quantum.coupling import (
    FALCON_27_EDGES,
    GUADALUPE_16_EDGES,
    MELBOURNE_14_EDGES,
    CouplingMap,
    aspen_octagonal_map,
    heavy_hex_map,
)

__all__ = ["FakeBackend", "get_backend", "list_backends"]

_SINGLE_QUBIT_GATES = ("x", "sx", "rz", "rx", "ry", "h", "u3")
_TWO_QUBIT_GATES = ("cx", "cz", "rzz", "swap")


@dataclass
class FakeBackend:
    """A quantum device: topology, basis gates and calibration.

    Times are in seconds; error rates are per-gate probabilities.
    """

    name: str
    coupling_map: CouplingMap
    error_1q: float
    error_2q: float
    error_readout: float
    t1: float = 110e-6
    t2: float = 90e-6
    time_1q: float = 35e-9
    time_2q: float = 350e-9
    time_readout: float = 700e-9
    basis_gates: tuple[str, ...] = ("rz", "sx", "x", "cx")
    description: str = ""

    @property
    def num_qubits(self) -> int:
        return self.coupling_map.num_qubits

    def gate_time(self, gate_name: str) -> float:
        """Duration of one gate, used by the throughput model."""
        if gate_name in _TWO_QUBIT_GATES:
            return self.time_2q
        if gate_name in _SINGLE_QUBIT_GATES:
            return self.time_1q
        raise KeyError(f"unknown gate {gate_name!r}")

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"FakeBackend({self.name!r}, qubits={self.num_qubits})"


def _falcon(name: str, e1: float, e2: float, ro: float, t1: float, t2: float,
            description: str) -> FakeBackend:
    return FakeBackend(
        name=name,
        coupling_map=CouplingMap(FALCON_27_EDGES, 27),
        error_1q=e1,
        error_2q=e2,
        error_readout=ro,
        t1=t1,
        t2=t2,
        description=description,
    )


def _registry() -> dict[str, FakeBackend]:
    backends = [
        _falcon("kolkata", 2.3e-4, 7.5e-3, 1.1e-2, 120e-6, 100e-6,
                "27-qubit IBM Falcon r5.11; among the lowest-error IBM devices"),
        _falcon("auckland", 2.6e-4, 8.5e-3, 1.3e-2, 115e-6, 95e-6,
                "27-qubit IBM Falcon r5.11"),
        _falcon("cairo", 3.0e-4, 9.5e-3, 1.6e-2, 105e-6, 85e-6,
                "27-qubit IBM Falcon r5.11"),
        _falcon("mumbai", 3.6e-4, 1.1e-2, 2.0e-2, 100e-6, 80e-6,
                "27-qubit IBM Falcon r5.10"),
        _falcon("toronto", 7.0e-4, 1.7e-2, 3.3e-2, 85e-6, 65e-6,
                "27-qubit IBM Falcon r4 (retired); substantially higher errors"),
        FakeBackend(
            name="guadalupe",
            coupling_map=CouplingMap(GUADALUPE_16_EDGES, 16),
            error_1q=4.0e-4, error_2q=1.2e-2, error_readout=2.3e-2,
            t1=95e-6, t2=80e-6,
            description="16-qubit IBM Falcon r4P",
        ),
        FakeBackend(
            name="melbourne",
            coupling_map=CouplingMap(MELBOURNE_14_EDGES, 14),
            error_1q=1.1e-3, error_2q=2.6e-2, error_readout=4.2e-2,
            t1=55e-6, t2=60e-6,
            description="14-qubit IBM Canary (retired); highest error rates",
        ),
        FakeBackend(
            name="eagle_33",
            coupling_map=heavy_hex_map(33),
            error_1q=2.8e-4, error_2q=9.0e-3, error_readout=1.4e-2,
            description="33-qubit Eagle-class heavy-hex device (Fig. 25)",
        ),
        FakeBackend(
            name="hummingbird_65",
            coupling_map=heavy_hex_map(65),
            error_1q=4.5e-4, error_2q=1.3e-2, error_readout=2.4e-2,
            description="65-qubit IBM Hummingbird r2 heavy-hex",
        ),
        FakeBackend(
            name="eagle_127",
            coupling_map=heavy_hex_map(127),
            error_1q=2.5e-4, error_2q=8.0e-3, error_readout=1.2e-2,
            description="127-qubit IBM Eagle r3 heavy-hex",
        ),
        FakeBackend(
            name="sherbrooke",
            coupling_map=heavy_hex_map(127),
            error_1q=2.2e-4, error_2q=7.4e-3, error_readout=1.1e-2,
            t1=260e-6, t2=180e-6,
            time_2q=533e-9,
            description="127-qubit IBM Eagle r3; used for the Fig. 18 runtime anchor",
        ),
        FakeBackend(
            name="aspen_m3",
            coupling_map=aspen_octagonal_map(79),
            error_1q=1.6e-3, error_2q=2.9e-2, error_readout=5.0e-2,
            t1=25e-6, t2=20e-6,
            time_1q=40e-9, time_2q=240e-9,
            basis_gates=("rz", "rx", "cz"),
            description="79-qubit Rigetti Aspen-M-3 octagonal lattice",
        ),
    ]
    return {b.name: b for b in backends}


_BACKENDS = _registry()


def list_backends() -> list[str]:
    """Names of all registered fake backends."""
    return sorted(_BACKENDS)


def get_backend(name: str) -> FakeBackend:
    """Look up a fake backend by name (see :func:`list_backends`)."""
    try:
        return _BACKENDS[name]
    except KeyError:
        raise KeyError(
            f"unknown backend {name!r}; available: {', '.join(list_backends())}"
        ) from None
