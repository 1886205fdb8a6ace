"""Tests for repro.mitigation (ZNE and readout mitigation)."""

import networkx as nx
import numpy as np
import pytest

from _gate_oracles import NoiseModel
from repro.mitigation import (
    ReadoutError,
    ReadoutMitigator,
    richardson_extrapolate,
    scale_noise,
    zne_maxcut_expectation,
)
from repro.qaoa.expectation import maxcut_expectation, noisy_maxcut_expectation
from repro.qaoa.fast_sim import FastNoiseSpec
from repro.utils.graphs import relabel_to_range


def _connected_er(n, p, seed):
    offset = 0
    while True:
        g = nx.erdos_renyi_graph(n, p, seed=seed + offset)
        if g.number_of_edges() and nx.is_connected(g):
            return g
        offset += 100


class TestScaleNoise:
    def test_scales_rates(self):
        noise = FastNoiseSpec(edge_error=0.05, node_error=0.01, readout_error=0.03)
        scaled = scale_noise(noise, 2.0)
        assert scaled.edge_error == pytest.approx(0.10)
        assert scaled.node_error == pytest.approx(0.02)

    def test_readout_not_scaled(self):
        noise = FastNoiseSpec(readout_error=0.03)
        assert scale_noise(noise, 3.0).readout_error == 0.03

    def test_scales_coherent_biases(self):
        noise = FastNoiseSpec(edge_phase_bias=(0.01, -0.02), node_mixer_bias=(0.03,))
        scaled = scale_noise(noise, 2.0)
        assert scaled.edge_phase_bias == (0.02, -0.04)
        assert scaled.node_mixer_bias == (0.06,)

    def test_probabilities_clipped(self):
        noise = FastNoiseSpec(edge_error=0.6)
        assert scale_noise(noise, 3.0).edge_error == 1.0

    def test_factor_validated(self):
        with pytest.raises(ValueError):
            scale_noise(FastNoiseSpec(), 0.5)


class TestRichardson:
    def test_linear_data_exact(self):
        # E(s) = 5 - 0.4 s -> E(0) = 5.
        scales = [1.0, 2.0]
        values = [4.6, 4.2]
        assert richardson_extrapolate(scales, values) == pytest.approx(5.0)

    def test_quadratic_data_exact(self):
        f = lambda s: 3.0 - 0.5 * s + 0.1 * s**2
        scales = [1.0, 2.0, 3.0]
        assert richardson_extrapolate(scales, [f(s) for s in scales]) == pytest.approx(3.0)

    def test_requires_two_scales(self):
        with pytest.raises(ValueError):
            richardson_extrapolate([1.0], [2.0])

    def test_rejects_duplicate_scales(self):
        with pytest.raises(ValueError):
            richardson_extrapolate([1.0, 1.0], [2.0, 2.1])

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            richardson_extrapolate([1.0, 2.0], [1.0])


class TestZneEndToEnd:
    @pytest.mark.parametrize("graph_seed", [0, 1, 2])
    def test_zne_corrects_coherent_noise(self, graph_seed):
        """Coherent-only noise is deterministic: Richardson must shrink the
        error by a large factor."""
        graph = relabel_to_range(_connected_er(8, 0.4, graph_seed))
        gammas, betas = [1.0], [0.45]
        ideal = maxcut_expectation(graph, gammas, betas)
        rng = np.random.default_rng(graph_seed)
        noise = FastNoiseSpec(
            edge_phase_bias=tuple(rng.normal(0, 0.06, graph.number_of_edges())),
            node_mixer_bias=tuple(rng.normal(0, 0.06, graph.number_of_nodes())),
        )
        raw = noisy_maxcut_expectation(graph, gammas, betas, noise, trajectories=1, seed=0)
        mitigated, per_scale = zne_maxcut_expectation(
            graph, gammas, betas, noise, scales=(1.0, 1.5, 2.0), trajectories=1, seed=0
        )
        assert len(per_scale) == 3
        assert abs(mitigated - ideal) < 0.3 * abs(raw - ideal)

    def test_zne_helps_on_average_with_stochastic_noise(self):
        """With Pauli noise the extrapolation is statistical; it should win
        on average across repetitions."""
        graph = relabel_to_range(_connected_er(8, 0.4, 3))
        gammas, betas = [1.0], [0.45]
        ideal = maxcut_expectation(graph, gammas, betas)
        rng = np.random.default_rng(0)
        noise = FastNoiseSpec(
            edge_error=0.04,
            edge_phase_bias=tuple(rng.normal(0, 0.05, graph.number_of_edges())),
            node_mixer_bias=tuple(rng.normal(0, 0.05, graph.number_of_nodes())),
        )
        raw_errs, zne_errs = [], []
        for seed in range(4):
            raw = noisy_maxcut_expectation(
                graph, gammas, betas, noise, trajectories=200, seed=seed
            )
            mitigated, _ = zne_maxcut_expectation(
                graph, gammas, betas, noise, scales=(1.0, 1.5, 2.0),
                trajectories=200, seed=seed,
            )
            raw_errs.append(abs(raw - ideal))
            zne_errs.append(abs(mitigated - ideal))
        assert np.mean(zne_errs) < np.mean(raw_errs)

    def test_zero_noise_is_fixed_point(self):
        graph = relabel_to_range(_connected_er(6, 0.5, 4))
        gammas, betas = [0.7], [0.3]
        ideal = maxcut_expectation(graph, gammas, betas)
        mitigated, _ = zne_maxcut_expectation(
            graph, gammas, betas, FastNoiseSpec(), scales=(1.0, 2.0), seed=0
        )
        assert mitigated == pytest.approx(ideal, abs=1e-9)


class TestReadoutMitigator:
    def test_exact_inversion(self):
        rng = np.random.default_rng(0)
        true = rng.random(8)
        true /= true.sum()
        model = NoiseModel()
        errors = [ReadoutError(0.03, 0.08), ReadoutError(0.02, 0.05), ReadoutError(0.01, 0.01)]
        for q, e in enumerate(errors):
            model.add_readout_error(e, q)
        observed = model.apply_readout_to_probs(true, 3)
        mitigator = ReadoutMitigator(errors)
        recovered = mitigator.apply(observed)
        assert np.allclose(recovered, true, atol=1e-10)

    def test_from_noise_model(self):
        model = NoiseModel()
        model.add_readout_error(ReadoutError(0.05, 0.05), 0)
        mitigator = ReadoutMitigator([model.readout_error(q) for q in range(2)])
        true = np.array([0.7, 0.1, 0.15, 0.05])
        observed = model.apply_readout_to_probs(true, 2)
        assert np.allclose(mitigator.apply(observed), true, atol=1e-10)

    def test_symmetric_constructor(self):
        mitigator = ReadoutMitigator.symmetric(0.04, 2)
        true = np.array([0.5, 0.2, 0.2, 0.1])
        observed = NoiseModel().apply_readout_to_probs(true, 2)  # no-op
        # Applying mitigation to clean data then its forward map is identity
        # only approximately; here just check simplex properties.
        out = mitigator.apply(true)
        assert out.sum() == pytest.approx(1.0)
        assert (out >= 0).all()

    def test_singular_confusion_rejected(self):
        with pytest.raises(ValueError):
            ReadoutMitigator([ReadoutError(0.5, 0.5)])

    def test_shape_checked(self):
        mitigator = ReadoutMitigator.symmetric(0.01, 2)
        with pytest.raises(ValueError):
            mitigator.apply(np.array([1.0, 0.0]))

    def test_expectation_diagonal(self):
        mitigator = ReadoutMitigator.symmetric(0.1, 1)
        # Observed distribution from true |1> under 10% symmetric flips.
        observed = np.array([0.1, 0.9])
        diag = np.array([0.0, 1.0])
        value = mitigator.expectation_diagonal(observed, diag)
        assert value == pytest.approx(1.0, abs=1e-9)

    def test_none_entries_skipped(self):
        mitigator = ReadoutMitigator([None, ReadoutError(0.05, 0.05)])
        probs = np.array([0.4, 0.3, 0.2, 0.1])
        out = mitigator.apply(probs)
        assert out.sum() == pytest.approx(1.0)
