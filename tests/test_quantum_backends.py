"""Tests for repro.quantum.backends."""

import pytest

from _gate_oracles import device_noise_model
from repro.quantum.backends import get_backend, list_backends
from repro.quantum.circuit import Instruction


EXPECTED_SIZES = {
    "kolkata": 27,
    "auckland": 27,
    "cairo": 27,
    "mumbai": 27,
    "toronto": 27,
    "guadalupe": 16,
    "melbourne": 14,
    "eagle_33": 33,
    "hummingbird_65": 65,
    "eagle_127": 127,
    "sherbrooke": 127,
    "aspen_m3": 79,
}


class TestRegistry:
    def test_all_expected_backends_present(self):
        assert set(list_backends()) == set(EXPECTED_SIZES)

    @pytest.mark.parametrize("name", sorted(EXPECTED_SIZES))
    def test_qubit_counts(self, name):
        assert get_backend(name).num_qubits == EXPECTED_SIZES[name]

    def test_unknown_backend(self):
        with pytest.raises(KeyError):
            get_backend("not_a_device")

    def test_fig24_error_ordering(self):
        """Kolkata has the lowest error, retired Toronto/Melbourne highest."""
        errors = {name: get_backend(name).error_2q for name in (
            "kolkata", "auckland", "cairo", "mumbai", "toronto", "melbourne"
        )}
        assert errors["kolkata"] == min(errors.values())
        assert errors["toronto"] > errors["mumbai"]
        assert errors["melbourne"] == max(errors.values())

    def test_rigetti_basis_differs(self):
        assert "cz" in get_backend("aspen_m3").basis_gates
        assert "cx" in get_backend("kolkata").basis_gates


class TestNoiseModelConstruction:
    def test_model_covers_gates(self):
        model = device_noise_model(get_backend("kolkata"))
        names = model.noisy_gate_names()
        assert "cx" in names
        assert "sx" in names
        assert "rz" not in names  # virtual gate: error-free

    def test_two_qubit_error_dominates(self):
        model = device_noise_model(get_backend("kolkata"))
        err_1q = model.errors_for(Instruction("x", (0,)))[0].to_pauli()
        err_2q = model.errors_for(Instruction("cx", (0, 1)))[0].to_pauli()
        assert (1 - err_2q["II"]) > (1 - err_1q["I"])

    def test_readout_error_on_all_qubits(self):
        backend = get_backend("guadalupe")
        model = device_noise_model(backend)
        for q in range(backend.num_qubits):
            assert model.readout_error(q) is not None

    def test_pauli_probabilities_normalized(self):
        model = device_noise_model(get_backend("toronto"))
        for inst in (Instruction("x", (0,)), Instruction("cx", (0, 1))):
            for error in model.errors_for(inst):
                assert sum(error.to_pauli().values()) == pytest.approx(1.0)

    def test_gate_time_lookup(self):
        backend = get_backend("kolkata")
        assert backend.gate_time("cx") == backend.time_2q
        assert backend.gate_time("sx") == backend.time_1q
        with pytest.raises(KeyError):
            backend.gate_time("nope")
