"""Tests for the tensor kernels of the gate-level reference simulators."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _gate_oracles import apply_matrix, apply_matrix_rho, gate_matrix


def _random_state(n, seed):
    rng = np.random.default_rng(seed)
    state = rng.normal(size=2**n) + 1j * rng.normal(size=2**n)
    return state / np.linalg.norm(state)


class TestApplyMatrix:
    def test_identity_is_noop(self):
        state = _random_state(3, 0)
        out = apply_matrix(state, np.eye(2, dtype=complex), (1,), 3)
        assert np.allclose(out, state)

    def test_input_not_mutated(self):
        state = _random_state(2, 1)
        snapshot = state.copy()
        apply_matrix(state, gate_matrix("x"), (0,), 2)
        assert np.array_equal(state, snapshot)

    def test_x_on_qubit0_swaps_pairs(self):
        state = np.array([1, 2, 3, 4], dtype=complex)
        out = apply_matrix(state, gate_matrix("x"), (0,), 2)
        assert np.allclose(out, [2, 1, 4, 3])

    def test_x_on_qubit1_swaps_blocks(self):
        state = np.array([1, 2, 3, 4], dtype=complex)
        out = apply_matrix(state, gate_matrix("x"), (1,), 2)
        assert np.allclose(out, [3, 4, 1, 2])

    def test_two_qubit_gate_ordering(self):
        # CX with control=q1, target=q0 on |10> (index 2) gives |11>.
        state = np.zeros(4, dtype=complex)
        state[2] = 1.0
        out = apply_matrix(state, gate_matrix("cx"), (1, 0), 2)
        assert np.allclose(np.abs(out) ** 2, [0, 0, 0, 1])

    def test_wrong_matrix_shape(self):
        with pytest.raises(ValueError):
            apply_matrix(_random_state(2, 2), np.eye(4, dtype=complex), (0,), 2)

    def test_norm_preserved_by_unitaries(self):
        state = _random_state(4, 3)
        out = apply_matrix(state, gate_matrix("rzz", [1.3]), (1, 3), 4)
        assert np.linalg.norm(out) == pytest.approx(1.0)

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=10**6))
    def test_property_unitarity_preserved(self, seed):
        rng = np.random.default_rng(seed)
        n = 3
        state = _random_state(n, seed)
        for _ in range(5):
            name = ["h", "rx", "cx", "rzz"][rng.integers(4)]
            if name in ("h",):
                out = apply_matrix(state, gate_matrix(name), (int(rng.integers(n)),), n)
            elif name == "rx":
                out = apply_matrix(
                    state, gate_matrix("rx", [float(rng.uniform(0, 6))]),
                    (int(rng.integers(n)),), n,
                )
            else:
                a, b = rng.choice(n, size=2, replace=False)
                params = [float(rng.uniform(0, 6))] if name == "rzz" else []
                out = apply_matrix(state, gate_matrix(name, params), (int(a), int(b)), n)
            assert np.linalg.norm(out) == pytest.approx(1.0, abs=1e-10)
            state = out


class TestApplyMatrixRho:
    def test_pure_state_consistency(self):
        """U rho U^dag on |psi><psi| equals the statevector evolution."""
        state = _random_state(3, 4)
        rho = np.outer(state, state.conj())
        u = gate_matrix("rzz", [0.9])
        evolved_state = apply_matrix(state, u, (0, 2), 3)
        evolved_rho = apply_matrix_rho(rho, u, (0, 2), 3)
        assert np.allclose(evolved_rho, np.outer(evolved_state, evolved_state.conj()))

    def test_trace_preserved(self):
        state = _random_state(2, 5)
        rho = np.outer(state, state.conj())
        out = apply_matrix_rho(rho, gate_matrix("h"), (1,), 2)
        assert np.trace(out).real == pytest.approx(1.0)

    def test_hermiticity_preserved(self):
        state = _random_state(2, 6)
        rho = np.outer(state, state.conj())
        out = apply_matrix_rho(rho, gate_matrix("rx", [0.7]), (0,), 2)
        assert np.allclose(out, out.conj().T)

    def test_shape_checked(self):
        with pytest.raises(ValueError):
            apply_matrix_rho(np.eye(3, dtype=complex), gate_matrix("x"), (0,), 2)

    def test_nonunitary_kraus_supported(self):
        """The kernel applies K rho K^dag without requiring unitarity."""
        k1 = np.array([[0, 1], [0, 0]], dtype=complex)  # lowering operator
        rho = np.array([[0, 0], [0, 1]], dtype=complex)  # |1><1|
        out = apply_matrix_rho(rho, k1, (0,), 1)
        assert np.allclose(out, [[1, 0], [0, 0]])
