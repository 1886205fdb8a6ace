"""Tests for the AND-difference objective oracle and repro.core.cooling."""

import networkx as nx
import numpy as np
import pytest
from _kernel_oracles import ReferenceAdaptiveCooling, and_difference_objective, subgraph_and

from repro.core.annealer import simulated_annealing
from repro.core.cooling import AdaptiveCooling, ConstantCooling


class TestSubgraphAnd:
    def test_full_graph(self):
        g = nx.cycle_graph(6)
        assert subgraph_and(g, range(6)) == 2.0

    def test_subset(self):
        g = nx.cycle_graph(6)
        # Three consecutive nodes of a cycle: path of 2 edges, AND = 4/3.
        assert subgraph_and(g, {0, 1, 2}) == pytest.approx(4 / 3)

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            subgraph_and(nx.path_graph(3), set())


class TestObjective:
    def test_perfect_match_is_zero(self):
        g = nx.cycle_graph(8)
        # Any sub-cycle... cycles have no proper sub-cycles; use whole graph.
        assert and_difference_objective(g, range(8)) == 0.0

    def test_deviation_positive(self):
        g = nx.complete_graph(6)
        assert and_difference_objective(g, {0, 1}) > 0

    def test_target_override(self):
        g = nx.path_graph(4)
        value = and_difference_objective(g, {0, 1}, target_and=1.0)
        assert value == pytest.approx(0.0)

    def test_symmetric_in_sign(self):
        g = nx.complete_graph(5)  # AND = 4
        # Subgraph K3 has AND 2 -> objective 2.
        assert and_difference_objective(g, {0, 1, 2}) == pytest.approx(2.0)


class TestConstantCooling:
    def test_geometric_decay(self):
        schedule = ConstantCooling(alpha=0.9)
        assert schedule.next_temperature(1.0, accepted=True) == pytest.approx(0.9)
        assert schedule.next_temperature(0.9, accepted=False) == pytest.approx(0.81)

    def test_alpha_validated(self):
        with pytest.raises(ValueError):
            ConstantCooling(alpha=1.0)
        with pytest.raises(ValueError):
            ConstantCooling(alpha=0.0)


class TestAdaptiveCooling:
    def test_accepting_cools_faster_than_rejecting(self):
        fast = AdaptiveCooling()
        slow = AdaptiveCooling()
        t_fast = 1.0
        t_slow = 1.0
        for _ in range(10):
            t_fast = fast.next_temperature(t_fast, accepted=True)
            t_slow = slow.next_temperature(t_slow, accepted=False)
        assert t_fast < t_slow

    def test_reset_clears_history(self):
        schedule = AdaptiveCooling(window=5)
        for _ in range(5):
            schedule.next_temperature(1.0, accepted=True)
        schedule.reset()
        # After reset, a single rejection gives the pure slow alpha.
        t = schedule.next_temperature(1.0, accepted=False)
        assert t == pytest.approx(schedule.slow_alpha)

    def test_window_limits_memory(self):
        schedule = AdaptiveCooling(window=2)
        schedule.next_temperature(1.0, accepted=True)
        schedule.next_temperature(1.0, accepted=True)
        # Window of 2: two rejections fully flush the accepts.
        schedule.next_temperature(1.0, accepted=False)
        t = schedule.next_temperature(1.0, accepted=False)
        assert t == pytest.approx(schedule.slow_alpha)

    def test_validation(self):
        with pytest.raises(ValueError):
            AdaptiveCooling(slow_alpha=1.5)
        with pytest.raises(ValueError):
            AdaptiveCooling(slow_alpha=0.9, fast_alpha=0.95)
        with pytest.raises(ValueError):
            AdaptiveCooling(window=0)

    @pytest.mark.parametrize("window", [1, 20])
    def test_temperatures_bit_identical_to_the_window_sum(self, window):
        """The running accept count gives the summed window's temperatures
        bit for bit, across a ``reset()`` between two runs."""
        rng = np.random.default_rng(window)
        fast = AdaptiveCooling(window=window)
        reference = ReferenceAdaptiveCooling(window=window)
        for run, accept_rate in enumerate((0.3, 0.8)):
            fast.reset()
            reference.reset()
            t_fast = t_reference = 1.0
            for accepted in rng.random(400 + 37 * run) < accept_rate:
                t_fast = fast.next_temperature(t_fast, bool(accepted))
                t_reference = reference.next_temperature(t_reference, bool(accepted))
                assert t_fast.hex() == t_reference.hex()

    def test_annealing_runs_identical_under_the_reference_schedule(self):
        g = nx.erdos_renyi_graph(18, 0.3, seed=4)
        for seed in (0, 1):
            fast = simulated_annealing(g, 11, cooling=AdaptiveCooling(window=5), seed=seed)
            reference = simulated_annealing(
                g, 11, cooling=ReferenceAdaptiveCooling(window=5), seed=seed
            )
            assert fast.nodes == reference.nodes
            assert fast.steps == reference.steps
            assert fast.history == reference.history

    def test_temperature_always_decreases(self):
        schedule = AdaptiveCooling()
        t = 1.0
        for step in range(20):
            new_t = schedule.next_temperature(t, accepted=step % 3 == 0)
            assert new_t < t
            t = new_t


class TestWeightedObjective:
    def _weighted_star(self):
        g = nx.star_graph(4)  # edges (0,1)..(0,4)
        for index, (u, v) in enumerate(g.edges()):
            g[u][v]["weight"] = float(index + 1)
        return g

    def test_subgraph_and_uses_strength(self):
        g = self._weighted_star()
        # Induced subgraph {0, 1} keeps only edge (0, 1) of weight 1.
        assert subgraph_and(g, {0, 1}) == pytest.approx(1.0)
        # {0, 4} keeps edge (0, 4) of weight 4: strength AND = 2*4/2.
        assert subgraph_and(g, {0, 4}) == pytest.approx(4.0)

    def test_objective_zero_when_strength_matches(self):
        g = self._weighted_star()
        assert and_difference_objective(g, set(g.nodes())) == 0.0

    def test_unit_weights_bit_identical(self):
        g = nx.erdos_renyi_graph(9, 0.4, seed=2)
        h = nx.Graph(g)
        for u, v in h.edges():
            h[u][v]["weight"] = 1.0
        for nodes in ({0, 1, 2}, set(range(6)), set(g.nodes())):
            assert and_difference_objective(g, nodes) == and_difference_objective(h, nodes)
