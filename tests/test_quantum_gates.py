"""Tests for the gate set: the circuit IR's tables and the reference matrices."""

import numpy as np
import pytest

from _gate_oracles import gate_matrix
from repro.quantum.circuit import GATE_ARITY, PARAM_COUNT


def _is_unitary(m: np.ndarray) -> bool:
    return np.allclose(m.conj().T @ m, np.eye(m.shape[0]), atol=1e-12)


class TestFixedGates:
    @pytest.mark.parametrize("name", [n for n, k in PARAM_COUNT.items() if k == 0])
    def test_all_fixed_gates_unitary(self, name):
        assert _is_unitary(gate_matrix(name))

    def test_x_flips(self):
        x = gate_matrix("x")
        assert np.allclose(x @ np.array([1, 0]), np.array([0, 1]))
        assert np.allclose(x @ np.array([0, 1]), np.array([1, 0]))

    def test_h_creates_superposition(self):
        h = gate_matrix("h")
        plus = h @ np.array([1, 0])
        assert np.allclose(plus, np.array([1, 1]) / np.sqrt(2))

    def test_hh_is_identity(self):
        h = gate_matrix("h")
        assert np.allclose(h @ h, np.eye(2))

    def test_s_squared_is_z(self):
        s = gate_matrix("s")
        assert np.allclose(s @ s, gate_matrix("z"))

    def test_t_squared_is_s(self):
        t = gate_matrix("t")
        assert np.allclose(t @ t, gate_matrix("s"))

    def test_sdg_inverts_s(self):
        assert np.allclose(gate_matrix("s") @ gate_matrix("sdg"), np.eye(2))

    def test_sx_squared_is_x(self):
        sx = gate_matrix("sx")
        assert np.allclose(sx @ sx, gate_matrix("x"))

    def test_cx_truth_table(self):
        cx = gate_matrix("cx")
        # basis |q1 q0>, control = q0: |01> (q0=1, index 1) -> |11> (index 3)
        state = np.zeros(4)
        state[1] = 1.0
        assert np.allclose(cx @ state, np.eye(4)[3])
        # |00> unchanged
        assert np.allclose(cx @ np.eye(4)[0], np.eye(4)[0])

    def test_swap_exchanges(self):
        swap = gate_matrix("swap")
        assert np.allclose(swap @ np.eye(4)[1], np.eye(4)[2])

    def test_cz_phase(self):
        cz = gate_matrix("cz")
        assert cz[3, 3] == -1
        assert np.allclose(np.diag(cz)[:3], [1, 1, 1])


class TestRotationGates:
    def test_rx_zero_is_identity(self):
        assert np.allclose(gate_matrix("rx", [0.0]), np.eye(2))

    def test_rx_2pi_is_minus_identity(self):
        assert np.allclose(gate_matrix("rx", [2 * np.pi]), -np.eye(2))

    def test_rx_pi_is_minus_i_x(self):
        assert np.allclose(gate_matrix("rx", [np.pi]), -1j * gate_matrix("x"))

    def test_ry_pi_is_minus_i_y(self):
        assert np.allclose(gate_matrix("ry", [np.pi]), -1j * gate_matrix("y"))

    def test_rz_pi_is_minus_i_z(self):
        assert np.allclose(gate_matrix("rz", [np.pi]), -1j * gate_matrix("z"))

    @pytest.mark.parametrize("name", ["rx", "ry", "rz"])
    @pytest.mark.parametrize("theta", [0.1, 1.0, np.pi, 4.5])
    def test_rotations_unitary(self, name, theta):
        assert _is_unitary(gate_matrix(name, [theta]))

    @pytest.mark.parametrize("name", ["rx", "ry", "rz"])
    def test_rotation_composition(self, name):
        a = gate_matrix(name, [0.4])
        b = gate_matrix(name, [0.7])
        assert np.allclose(a @ b, gate_matrix(name, [1.1]))

    def test_u3_reduces_to_ry(self):
        assert np.allclose(gate_matrix("u3", [0.8, 0.0, 0.0]), gate_matrix("ry", [0.8]))

    def test_u3_unitary(self):
        assert _is_unitary(gate_matrix("u3", [0.3, 1.1, 2.2]))

    def test_rzz_diagonal_phases(self):
        theta = 0.6
        m = gate_matrix("rzz", [theta])
        expected = np.diag(
            np.exp(-0.5j * theta * np.array([1, -1, -1, 1]))
        )
        assert np.allclose(m, expected)

    def test_rzz_unitary(self):
        assert _is_unitary(gate_matrix("rzz", [1.3]))


class TestValidation:
    def test_unknown_gate_raises(self):
        with pytest.raises(KeyError):
            gate_matrix("nope")

    def test_wrong_param_count(self):
        with pytest.raises(ValueError):
            gate_matrix("rx", [])
        with pytest.raises(ValueError):
            gate_matrix("h", [0.1])
        with pytest.raises(ValueError):
            gate_matrix("u3", [0.1])

    def test_arity_table_consistent(self):
        for name in GATE_ARITY:
            params = [0.1] * PARAM_COUNT[name]
            matrix = gate_matrix(name, params)
            assert matrix.shape == (2 ** GATE_ARITY[name],) * 2


def _is_diagonal(name: str) -> bool:
    m = gate_matrix(name, [0.3] * PARAM_COUNT[name])
    return np.allclose(m, np.diag(np.diag(m)))


class TestDiagonalGates:
    @pytest.mark.parametrize("name", ["z", "s", "t", "rz", "cz", "rzz"])
    def test_diagonal_names(self, name):
        assert _is_diagonal(name)

    @pytest.mark.parametrize("name", ["x", "h", "cx", "swap", "rx", "ry"])
    def test_non_diagonal_names(self, name):
        assert not _is_diagonal(name)

    def test_diagonal_matrices_are_diagonal(self):
        for name in ["z", "s", "t", "cz"]:
            m = gate_matrix(name)
            assert np.allclose(m, np.diag(np.diag(m)))
