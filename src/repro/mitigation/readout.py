"""Measurement-error mitigation by confusion-matrix inversion.

Each qubit's readout is characterized by a 2x2 confusion matrix
``M[observed, true]``.  The observed probability vector is the tensor
product of these maps applied to the true one; mitigation applies the
inverse maps and projects back onto the probability simplex (inverses can
produce small negative entries).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["ReadoutError", "ReadoutMitigator"]


@dataclass
class ReadoutError:
    """Measurement assignment error for one qubit.

    ``p01`` is P(read 1 | prepared 0); ``p10`` is P(read 0 | prepared 1).
    """

    p01: float
    p10: float

    def __post_init__(self) -> None:
        for name, p in (("p01", self.p01), ("p10", self.p10)):
            if not 0.0 <= p <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {p}")

    @property
    def confusion_matrix(self) -> np.ndarray:
        """2x2 matrix ``M[observed, true]``."""
        return np.array(
            [[1 - self.p01, self.p10], [self.p01, 1 - self.p10]], dtype=float
        )


class ReadoutMitigator:
    """Per-qubit confusion-matrix inversion for ``num_qubits`` qubits."""

    def __init__(self, errors: list[ReadoutError | None]):
        self.num_qubits = len(errors)
        if self.num_qubits == 0:
            raise ValueError("need at least one qubit")
        self._inverses: list[np.ndarray | None] = []
        for error in errors:
            if error is None:
                self._inverses.append(None)
                continue
            matrix = error.confusion_matrix
            if abs(np.linalg.det(matrix)) < 1e-12:
                raise ValueError(
                    "confusion matrix is singular (50/50 readout cannot be inverted)"
                )
            self._inverses.append(np.linalg.inv(matrix))

    @classmethod
    def symmetric(cls, p_flip: float, num_qubits: int) -> "ReadoutMitigator":
        """Uniform symmetric flip probability on every qubit."""
        error = ReadoutError(p_flip, p_flip)
        return cls([error] * num_qubits)

    def apply(self, probs: np.ndarray) -> np.ndarray:
        """Mitigated probability vector (clipped and renormalized)."""
        probs = np.asarray(probs, dtype=float)
        if probs.shape != (2**self.num_qubits,):
            raise ValueError(
                f"probs must have shape ({2**self.num_qubits},), got {probs.shape}"
            )
        tensor = probs.reshape((2,) * self.num_qubits)
        for qubit, inverse in enumerate(self._inverses):
            if inverse is None:
                continue
            axis = self.num_qubits - 1 - qubit
            tensor = np.moveaxis(
                np.tensordot(inverse, tensor, axes=([1], [axis])), 0, axis
            )
        flat = np.ascontiguousarray(tensor).reshape(-1)
        flat = flat.clip(min=0.0)
        total = flat.sum()
        if total <= 0:
            raise ValueError("mitigation produced an empty distribution")
        return flat / total

    def expectation_diagonal(self, probs: np.ndarray, diagonal: np.ndarray) -> float:
        """Mitigated expectation of a diagonal observable."""
        mitigated = self.apply(probs)
        diagonal = np.asarray(diagonal, dtype=float)
        if diagonal.shape != mitigated.shape:
            raise ValueError(f"diagonal shape {diagonal.shape} != {mitigated.shape}")
        return float(mitigated @ diagonal)
