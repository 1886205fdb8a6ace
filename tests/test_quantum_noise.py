"""Tests for the Kraus channels and noise model of the gate-level references."""

import math

import numpy as np
import pytest

from _gate_oracles import (
    NoiseModel,
    QuantumError,
    amplitude_damping_error,
    depolarizing_error,
    pauli_error,
    phase_damping_error,
    thermal_relaxation_error,
)
from repro.mitigation import ReadoutError
from repro.quantum.circuit import Instruction


class TestPauliError:
    def test_identity_channel(self):
        err = pauli_error({"I": 1.0})
        assert err.num_qubits == 1
        assert len(err.kraus) == 1

    def test_bit_flip(self):
        err = pauli_error({"I": 0.9, "X": 0.1})
        probs = err.to_pauli()
        assert probs["X"] == pytest.approx(0.1)

    def test_probs_must_sum_to_one(self):
        with pytest.raises(ValueError):
            pauli_error({"I": 0.5, "X": 0.1})

    def test_inconsistent_widths(self):
        with pytest.raises(ValueError):
            pauli_error({"I": 0.5, "XX": 0.5})

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            pauli_error({})

    def test_two_qubit_labels(self):
        err = pauli_error({"II": 0.8, "XZ": 0.2})
        assert err.num_qubits == 2
        assert err.kraus[0].shape == (4, 4)


class TestDepolarizing:
    def test_zero_param_is_identity(self):
        probs = depolarizing_error(0.0, 1).to_pauli()
        assert probs["I"] == pytest.approx(1.0)

    def test_uniform_nonidentity(self):
        probs = depolarizing_error(0.3, 1).to_pauli()
        for label in ("X", "Y", "Z"):
            assert probs[label] == pytest.approx(0.3 / 4)

    def test_two_qubit_support(self):
        probs = depolarizing_error(0.16, 2).to_pauli()
        assert len(probs) == 16
        assert probs["II"] == pytest.approx(1 - 0.16 + 0.16 / 16)

    def test_param_range_checked(self):
        with pytest.raises(ValueError):
            depolarizing_error(-0.1, 1)
        with pytest.raises(ValueError):
            depolarizing_error(1.1, 1)

    def test_completeness(self):
        err = depolarizing_error(0.2, 2)
        total = sum(k.conj().T @ k for k in err.kraus)
        assert np.allclose(total, np.eye(4))


class TestDampingChannels:
    def test_amplitude_damping_completeness(self):
        err = amplitude_damping_error(0.3)
        total = sum(k.conj().T @ k for k in err.kraus)
        assert np.allclose(total, np.eye(2))

    def test_amplitude_damping_decays_one(self):
        gamma = 0.25
        err = amplitude_damping_error(gamma)
        rho1 = np.array([[0, 0], [0, 1]], dtype=complex)
        out = sum(k @ rho1 @ k.conj().T for k in err.kraus)
        assert out[0, 0] == pytest.approx(gamma)
        assert out[1, 1] == pytest.approx(1 - gamma)

    def test_phase_damping_is_pauli_z_channel(self):
        lam = 0.36
        probs = phase_damping_error(lam).to_pauli()
        expected_pz = (1 - math.sqrt(1 - lam)) / 2
        assert probs["Z"] == pytest.approx(expected_pz)

    def test_gamma_range(self):
        with pytest.raises(ValueError):
            amplitude_damping_error(1.5)
        with pytest.raises(ValueError):
            phase_damping_error(-0.1)


class TestThermalRelaxation:
    def test_zero_time_is_identity(self):
        err = thermal_relaxation_error(50e-6, 70e-6, 0.0)
        rho = np.array([[0.3, 0.2], [0.2, 0.7]], dtype=complex)
        out = sum(k @ rho @ k.conj().T for k in err.kraus)
        assert np.allclose(out, rho)

    def test_long_time_decays_to_ground(self):
        err = thermal_relaxation_error(1e-6, 1e-6, 1.0)
        rho = np.array([[0, 0], [0, 1]], dtype=complex)
        out = sum(k @ rho @ k.conj().T for k in err.kraus)
        assert out[0, 0] == pytest.approx(1.0, abs=1e-6)

    def test_t2_bound_enforced(self):
        with pytest.raises(ValueError):
            thermal_relaxation_error(10e-6, 25e-6, 1e-7)

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError):
            thermal_relaxation_error(1e-5, 1e-5, -1e-9)

    def test_twirl_probabilities_sum_to_one(self):
        probs = thermal_relaxation_error(100e-6, 80e-6, 300e-9).to_pauli()
        assert sum(probs.values()) == pytest.approx(1.0)
        assert probs["I"] > 0.99  # short gate: mostly no error


class TestQuantumError:
    def test_bad_completeness_rejected(self):
        bad = [np.array([[1, 0], [0, 0.5]], dtype=complex)]
        with pytest.raises(ValueError):
            QuantumError(bad, 1)

    def test_wrong_shape_rejected(self):
        with pytest.raises(ValueError):
            QuantumError([np.eye(2, dtype=complex)], 2)

    def test_compose_pauli_channels(self):
        a = pauli_error({"I": 0.9, "X": 0.1})
        b = pauli_error({"I": 0.8, "X": 0.2})
        composed = a.compose(b).to_pauli()
        # X survives if exactly one applies: 0.9*0.2 + 0.1*0.8 = 0.26
        assert composed["X"] == pytest.approx(0.26)
        assert composed["I"] == pytest.approx(0.74)

    def test_compose_width_mismatch(self):
        with pytest.raises(ValueError):
            pauli_error({"I": 1.0}).compose(pauli_error({"II": 1.0}))

    def test_twirl_of_pauli_channel_is_exact(self):
        probs = {"I": 0.7, "X": 0.1, "Y": 0.05, "Z": 0.15}
        err = QuantumError(pauli_error(probs).kraus, 1)  # drop pauli annotation
        twirled = err.to_pauli()
        for label, p in probs.items():
            assert twirled[label] == pytest.approx(p, abs=1e-10)


class TestReadoutError:
    def test_confusion_matrix_columns_sum_to_one(self):
        ro = ReadoutError(0.02, 0.05)
        assert np.allclose(ro.confusion_matrix.sum(axis=0), [1, 1])

    def test_probability_bounds(self):
        with pytest.raises(ValueError):
            ReadoutError(1.2, 0.0)
        with pytest.raises(ValueError):
            ReadoutError(0.0, -0.1)


class TestNoiseModel:
    def test_trivial_by_default(self):
        assert NoiseModel().is_trivial

    def test_all_qubit_error_lookup(self):
        model = NoiseModel()
        err = depolarizing_error(0.1, 1)
        model.add_all_qubit_quantum_error(err, "x")
        inst = Instruction("x", (2,))
        assert model.errors_for(inst) == [err]
        assert model.errors_for(Instruction("h", (0,))) == []

    def test_local_error_overrides_global(self):
        model = NoiseModel()
        global_err = depolarizing_error(0.1, 1)
        local_err = depolarizing_error(0.5, 1)
        model.add_all_qubit_quantum_error(global_err, "x")
        model.add_quantum_error(local_err, "x", (3,))
        assert model.errors_for(Instruction("x", (3,))) == [local_err]
        assert model.errors_for(Instruction("x", (1,))) == [global_err]

    def test_multiple_gate_names(self):
        model = NoiseModel()
        err = depolarizing_error(0.05, 1)
        model.add_all_qubit_quantum_error(err, ["x", "sx"])
        assert model.errors_for(Instruction("sx", (0,))) == [err]

    def test_noisy_gate_names(self):
        model = NoiseModel()
        model.add_all_qubit_quantum_error(depolarizing_error(0.1, 2), "cx")
        model.add_quantum_error(depolarizing_error(0.1, 1), "x", (0,))
        assert model.noisy_gate_names() == {"cx", "x"}

    def test_readout_application_uniform_flip(self):
        model = NoiseModel()
        model.add_readout_error(ReadoutError(0.5, 0.5), 0)
        probs = np.array([1.0, 0.0])
        flipped = model.apply_readout_to_probs(probs, 1)
        assert np.allclose(flipped, [0.5, 0.5])

    def test_readout_only_affects_registered_qubit(self):
        model = NoiseModel()
        model.add_readout_error(ReadoutError(1.0, 1.0), 1)
        probs = np.zeros(4)
        probs[0] = 1.0  # |00>
        flipped = model.apply_readout_to_probs(probs, 2)
        # qubit 1 always flips: |00> -> |10> = index 2
        assert flipped[2] == pytest.approx(1.0)

    def test_readout_shape_checked(self):
        model = NoiseModel()
        with pytest.raises(ValueError):
            model.apply_readout_to_probs(np.array([1.0, 0.0]), 2)

    def test_readout_preserves_total_probability(self):
        model = NoiseModel()
        model.add_readout_error(ReadoutError(0.03, 0.08), 0)
        model.add_readout_error(ReadoutError(0.02, 0.02), 2)
        rng = np.random.default_rng(0)
        probs = rng.random(8)
        probs /= probs.sum()
        out = model.apply_readout_to_probs(probs, 3)
        assert out.sum() == pytest.approx(1.0)
