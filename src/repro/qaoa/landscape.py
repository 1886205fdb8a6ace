"""Energy landscapes: grids, random parameter sets, normalization, MSE.

An *energy landscape* (paper Sec. 3.3) is the QAOA expectation as a
function of the circuit parameters.  For p=1 it is the 2-D surface over
``gamma in [0, 2*pi]``, ``beta in [0, pi]`` that all the paper's landscape
figures draw; for p > 1 the paper samples random parameter sets instead
(1024 by default) and compares the resulting energy vectors.

The similarity metric is the MSE between *normalized* landscapes (paper
Eq. 12); normalization rescales each landscape to [0, 1] so instances with
different edge counts become comparable.
"""

from __future__ import annotations

from dataclasses import dataclass

import networkx as nx
import numpy as np

from repro.qaoa.expectation import EXACT_LIMIT, maxcut_expectation, noisy_maxcut_expectation
from repro.qaoa.fast_sim import FastNoiseSpec, qaoa_expectation_batch
from repro.qaoa.hamiltonian import MaxCutHamiltonian
from repro.qaoa.lightcone import LightconePlan, LightconeTooLargeError
from repro.utils.graphs import ensure_graph, relabel_to_range
from repro.utils.rng import as_generator

__all__ = [
    "GAMMA_RANGE",
    "BETA_RANGE",
    "Landscape",
    "compute_landscape",
    "compute_noisy_landscape",
    "evaluate_parameter_sets",
    "landscape_mse",
    "normalize_landscape",
    "optimal_points",
    "optimal_point_distance",
    "sample_parameter_sets",
]

GAMMA_RANGE = (0.0, 2.0 * np.pi)
BETA_RANGE = (0.0, np.pi)


@dataclass
class Landscape:
    """A p=1 energy landscape on a regular (gamma, beta) grid.

    ``values[i, j]`` is the expectation at ``(gammas[i], betas[j])``.
    """

    gammas: np.ndarray
    betas: np.ndarray
    values: np.ndarray

    def __post_init__(self) -> None:
        expected = (len(self.gammas), len(self.betas))
        if self.values.shape != expected:
            raise ValueError(f"values shape {self.values.shape} != {expected}")

    @property
    def width(self) -> int:
        return len(self.gammas)

    def normalized(self) -> "Landscape":
        return Landscape(self.gammas, self.betas, normalize_landscape(self.values))

    def best_parameters(self) -> tuple[float, float]:
        """(gamma, beta) of the landscape maximum."""
        i, j = np.unravel_index(int(np.argmax(self.values)), self.values.shape)
        return float(self.gammas[i]), float(self.betas[j])


def grid_axes(width: int) -> tuple[np.ndarray, np.ndarray]:
    """Evenly spaced (gamma, beta) axes over the standard QAOA ranges."""
    if width < 2:
        raise ValueError(f"width must be >= 2, got {width}")
    gammas = np.linspace(GAMMA_RANGE[0], GAMMA_RANGE[1], width, endpoint=False)
    betas = np.linspace(BETA_RANGE[0], BETA_RANGE[1], width, endpoint=False)
    return gammas, betas


def compute_landscape(graph: nx.Graph, width: int = 32) -> Landscape:
    """Ideal p=1 landscape on a ``width x width`` grid (1024 points at 32).

    Uses the batched statevector engine when the graph is small enough; for
    larger graphs a :class:`~repro.qaoa.lightcone.LightconePlan` is built
    once and evaluated at every grid point, so the whole grid pays the
    structure-discovery cost a single time.  Graphs too dense for the
    lightcone cap fall back to the dispatching scalar engine per point.
    """
    ensure_graph(graph)
    gammas, betas = grid_axes(width)
    gg, bb = np.meshgrid(gammas, betas, indexing="ij")
    flat = _ideal_batch(graph, gg.reshape(-1, 1), bb.reshape(-1, 1))
    return Landscape(gammas, betas, flat.reshape(width, width))


def compute_noisy_landscape(
    graph: nx.Graph,
    noise: FastNoiseSpec,
    width: int = 32,
    trajectories: int = 8,
    shots: int | None = None,
    seed: int | np.random.Generator | None = None,
) -> Landscape:
    """Noisy p=1 landscape under the fast trajectory path."""
    ensure_graph(graph)
    rng = as_generator(seed)
    gammas, betas = grid_axes(width)
    relabeled = relabel_to_range(graph)
    values = np.empty((width, width))
    for i, gamma in enumerate(gammas):
        for j, beta in enumerate(betas):
            values[i, j] = noisy_maxcut_expectation(
                relabeled, [gamma], [beta], noise,
                trajectories=trajectories, shots=shots, seed=rng,
            )
    return Landscape(gammas, betas, values)


def sample_parameter_sets(
    p: int,
    count: int,
    seed: int | np.random.Generator | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """``count`` random parameter sets: gammas, betas of shape (count, p).

    Uniform over the standard ranges, matching the paper's "1024 random
    parameter sets" protocol for p > 1 comparisons.
    """
    if p < 1 or count < 1:
        raise ValueError("p and count must be >= 1")
    rng = as_generator(seed)
    gammas = rng.uniform(GAMMA_RANGE[0], GAMMA_RANGE[1], size=(count, p))
    betas = rng.uniform(BETA_RANGE[0], BETA_RANGE[1], size=(count, p))
    return gammas, betas


def evaluate_parameter_sets(
    graph: nx.Graph,
    gammas: np.ndarray,
    betas: np.ndarray,
) -> np.ndarray:
    """Ideal energy vector for many parameter sets (the p > 1 "landscape").

    Fully batched: the statevector engine up to ``EXACT_LIMIT`` nodes, a
    once-built :class:`~repro.qaoa.lightcone.LightconePlan` above.
    """
    ensure_graph(graph)
    gammas = np.atleast_2d(gammas)
    betas = np.atleast_2d(betas)
    if gammas.shape != betas.shape:
        raise ValueError(f"shape mismatch: {gammas.shape} vs {betas.shape}")
    return _ideal_batch(graph, gammas, betas)


def _ideal_batch(graph: nx.Graph, gammas: np.ndarray, betas: np.ndarray) -> np.ndarray:
    """Ideal energies of ``(batch, p)`` parameter sets, batched where it can be.

    The batched statevector up to ``EXACT_LIMIT`` nodes, else a once-built
    lightcone plan, else the dispatching scalar engine per point.
    """
    if graph.number_of_nodes() <= EXACT_LIMIT:
        return qaoa_expectation_batch(MaxCutHamiltonian(graph), gammas, betas)
    try:
        plan = LightconePlan.build(
            relabel_to_range(graph), gammas.shape[1], max_qubits=EXACT_LIMIT
        )
    except LightconeTooLargeError:
        return np.array([maxcut_expectation(graph, g, b) for g, b in zip(gammas, betas)])
    return plan.evaluate_batch(gammas, betas)


def normalize_landscape(values: np.ndarray) -> np.ndarray:
    """Rescale to [0, 1]; a constant landscape maps to all zeros."""
    values = np.asarray(values, dtype=float)
    low = values.min()
    span = values.max() - low
    if span <= 0:
        return np.zeros_like(values)
    return (values - low) / span


def landscape_mse(a: np.ndarray, b: np.ndarray) -> float:
    """MSE between two *normalized* landscapes (paper Eq. 12)."""
    a = normalize_landscape(a)
    b = normalize_landscape(b)
    if a.shape != b.shape:
        raise ValueError(f"landscape shapes differ: {a.shape} vs {b.shape}")
    return float(np.mean((a - b) ** 2))


def optimal_points(values: np.ndarray, tolerance: float = 1e-9) -> np.ndarray:
    """Grid indices of all points within ``tolerance`` of the maximum."""
    values = np.asarray(values, dtype=float)
    return np.argwhere(values >= values.max() - tolerance)


def optimal_point_distance(
    landscape_a: Landscape,
    landscape_b: Landscape,
    tolerance: float = 1e-6,
) -> float:
    """Mean toroidal parameter distance between the two optima sets.

    Both parameter axes are periodic (gamma period 2*pi, beta period pi),
    so distances wrap around.  For each optimum of ``a`` we take the
    distance to the nearest optimum of ``b`` and average (and symmetrize).
    """
    pts_a = _optimal_coords(landscape_a, tolerance)
    pts_b = _optimal_coords(landscape_b, tolerance)
    periods = np.array([GAMMA_RANGE[1], BETA_RANGE[1]])

    def directed(src: np.ndarray, dst: np.ndarray) -> float:
        dists = []
        for point in src:
            delta = np.abs(dst - point)
            delta = np.minimum(delta, periods - delta)
            dists.append(np.sqrt((delta**2).sum(axis=1)).min())
        return float(np.mean(dists))

    return 0.5 * (directed(pts_a, pts_b) + directed(pts_b, pts_a))


def _optimal_coords(landscape: Landscape, tolerance: float) -> np.ndarray:
    indices = optimal_points(landscape.values, tolerance)
    return np.array(
        [[landscape.gammas[i], landscape.betas[j]] for i, j in indices]
    )
