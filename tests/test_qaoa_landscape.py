"""Tests for repro.qaoa.landscape."""

import networkx as nx
import numpy as np
import pytest

from repro.qaoa.fast_sim import FastNoiseSpec
from repro.qaoa.landscape import (
    Landscape,
    compute_landscape,
    compute_noisy_landscape,
    evaluate_parameter_sets,
    grid_axes,
    landscape_mse,
    normalize_landscape,
    optimal_point_distance,
    optimal_points,
    sample_parameter_sets,
)


class TestGrid:
    def test_axes_ranges(self):
        gammas, betas = grid_axes(16)
        assert gammas[0] == 0 and gammas[-1] < 2 * np.pi
        assert betas[0] == 0 and betas[-1] < np.pi
        assert len(gammas) == len(betas) == 16

    def test_width_validation(self):
        with pytest.raises(ValueError):
            grid_axes(1)


class TestComputeLandscape:
    def test_shape(self):
        scape = compute_landscape(nx.cycle_graph(5), width=8)
        assert scape.values.shape == (8, 8)
        assert scape.width == 8

    def test_values_bounded(self):
        g = nx.cycle_graph(6)
        scape = compute_landscape(g, width=8)
        assert scape.values.min() >= 0
        assert scape.values.max() <= g.number_of_edges()

    def test_cycle_landscape_concentration(self):
        """Paper Fig. 3: cycle graphs of different sizes share landscapes."""
        a = compute_landscape(nx.cycle_graph(7), width=12)
        b = compute_landscape(nx.cycle_graph(10), width=12)
        assert landscape_mse(a.values, b.values) < 1e-3

    def test_best_parameters_beat_random(self):
        g = nx.erdos_renyi_graph(7, 0.5, seed=2)
        scape = compute_landscape(g, width=12)
        gamma, beta = scape.best_parameters()
        from repro.qaoa.expectation import maxcut_expectation

        best = maxcut_expectation(g, [gamma], [beta])
        assert best >= scape.values.mean()

    def test_large_graph_falls_back_to_analytic(self):
        g = nx.random_regular_graph(3, 40, seed=0)
        scape = compute_landscape(g, width=6)
        assert scape.values.shape == (6, 6)

    def test_landscape_shape_validation(self):
        with pytest.raises(ValueError):
            Landscape(np.zeros(4), np.zeros(4), np.zeros((3, 4)))


class TestNormalizationAndMse:
    def test_normalize_range(self):
        values = np.array([[1.0, 3.0], [5.0, 2.0]])
        normed = normalize_landscape(values)
        assert normed.min() == 0.0
        assert normed.max() == 1.0

    def test_normalize_constant(self):
        assert (normalize_landscape(np.full((3, 3), 7.0)) == 0).all()

    def test_mse_identical_is_zero(self):
        values = np.random.default_rng(0).random((5, 5))
        assert landscape_mse(values, values) == 0.0

    def test_mse_scale_invariant(self):
        """Normalization makes MSE invariant to affine rescaling."""
        values = np.random.default_rng(1).random((6, 6))
        other = np.random.default_rng(2).random((6, 6))
        base = landscape_mse(values, other)
        scaled = landscape_mse(3.0 * values + 10.0, other)
        assert scaled == pytest.approx(base)

    def test_mse_shape_mismatch(self):
        with pytest.raises(ValueError):
            landscape_mse(np.zeros((2, 2)), np.zeros((3, 3)))

    def test_mse_bounded_by_one(self):
        a = np.array([[0.0, 1.0]])
        b = np.array([[1.0, 0.0]])
        assert landscape_mse(a, b) <= 1.0


class TestParameterSets:
    def test_shapes(self):
        gammas, betas = sample_parameter_sets(3, 50, seed=0)
        assert gammas.shape == (50, 3)
        assert betas.shape == (50, 3)

    def test_ranges(self):
        gammas, betas = sample_parameter_sets(2, 100, seed=1)
        assert gammas.min() >= 0 and gammas.max() <= 2 * np.pi
        assert betas.min() >= 0 and betas.max() <= np.pi

    def test_seeding(self):
        a = sample_parameter_sets(1, 10, seed=5)
        b = sample_parameter_sets(1, 10, seed=5)
        assert np.array_equal(a[0], b[0])

    def test_validation(self):
        with pytest.raises(ValueError):
            sample_parameter_sets(0, 10)

    def test_evaluate_matches_batch(self):
        g = nx.erdos_renyi_graph(6, 0.5, seed=0)
        gammas, betas = sample_parameter_sets(2, 12, seed=2)
        energies = evaluate_parameter_sets(g, gammas, betas)
        assert energies.shape == (12,)
        assert (energies >= 0).all()


class TestNoisyLandscape:
    def test_noisy_landscape_differs_from_ideal(self):
        g = nx.erdos_renyi_graph(7, 0.5, seed=4)
        ideal = compute_landscape(g, width=6)
        noise = FastNoiseSpec(edge_error=0.15, node_error=0.02, readout_error=0.05)
        noisy = compute_noisy_landscape(g, noise, width=6, trajectories=3, seed=0)
        assert landscape_mse(ideal.values, noisy.values) > 0

    def test_zero_noise_matches_ideal(self):
        g = nx.cycle_graph(5)
        ideal = compute_landscape(g, width=6)
        noisy = compute_noisy_landscape(g, FastNoiseSpec(), width=6, seed=0)
        assert np.allclose(ideal.values, noisy.values, atol=1e-10)


class TestOptimalPoints:
    def test_single_maximum(self):
        values = np.zeros((4, 4))
        values[2, 3] = 1.0
        points = optimal_points(values)
        assert points.tolist() == [[2, 3]]

    def test_ties_found(self):
        values = np.zeros((4, 4))
        values[0, 0] = values[3, 3] = 1.0
        assert len(optimal_points(values)) == 2

    def test_distance_identical_landscapes_zero(self):
        g = nx.cycle_graph(5)
        scape = compute_landscape(g, width=10)
        assert optimal_point_distance(scape, scape) == pytest.approx(0.0)

    def test_distance_respects_torus_wraparound(self):
        gammas, betas = grid_axes(8)
        a = np.zeros((8, 8))
        b = np.zeros((8, 8))
        a[0, 0] = 1.0
        b[7, 0] = 1.0  # adjacent across the gamma wrap, not 7 steps away
        dist = optimal_point_distance(Landscape(gammas, betas, a), Landscape(gammas, betas, b))
        assert dist == pytest.approx(2 * np.pi / 8, abs=1e-9)
