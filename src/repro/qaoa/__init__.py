"""QAOA for MaxCut: Hamiltonians, circuits, simulation engines, landscapes.

The public surface:

- :func:`repro.qaoa.maxcut.brute_force_maxcut` / ``approximation_ratio``
- :func:`repro.qaoa.expectation.maxcut_expectation` — ideal expectation with
  automatic engine choice (exact statevector, analytic p=1, lightcone)
- :func:`repro.qaoa.expectation.noisy_maxcut_expectation` — trajectory noise
- :mod:`repro.qaoa.landscape` — energy-landscape grids, normalization, MSE
- :mod:`repro.qaoa.optimizer` — COBYLA with restarts, grid search
- :func:`repro.qaoa.circuit_builder.build_qaoa_circuit` — gate-level IR for
  the transpiler and the generic simulators
"""

from repro.qaoa.hamiltonian import MaxCutHamiltonian, cut_values
from repro.qaoa.circuit_builder import build_qaoa_circuit
from repro.qaoa.expectation import (
    EngineLimitError,
    maxcut_expectation,
    noisy_maxcut_expectation,
)
from repro.qaoa.fast_sim import FastNoiseSpec, qaoa_probabilities, qaoa_statevector
from repro.qaoa.lightcone import LightconePlan
from repro.qaoa.landscape import (
    Landscape,
    compute_landscape,
    landscape_mse,
    normalize_landscape,
    optimal_points,
    sample_parameter_sets,
)
from repro.qaoa.maxcut import approximation_ratio, brute_force_maxcut
from repro.qaoa.optimizer import OptimizationTrace, cobyla_optimize, grid_search, multi_restart_optimize

__all__ = [
    "EngineLimitError",
    "FastNoiseSpec",
    "Landscape",
    "LightconePlan",
    "MaxCutHamiltonian",
    "OptimizationTrace",
    "approximation_ratio",
    "brute_force_maxcut",
    "build_qaoa_circuit",
    "cobyla_optimize",
    "compute_landscape",
    "cut_values",
    "grid_search",
    "landscape_mse",
    "maxcut_expectation",
    "multi_restart_optimize",
    "noisy_maxcut_expectation",
    "normalize_landscape",
    "optimal_points",
    "qaoa_probabilities",
    "qaoa_statevector",
    "sample_parameter_sets",
]
