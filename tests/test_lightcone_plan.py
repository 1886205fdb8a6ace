"""LightconePlan equivalence with the per-call lightcone oracle.

The plan's compiled kernels (batched statevector, core density matrix with
exact frontier dephasing) must reproduce
``_kernel_oracles.lightcone_expectation_reference`` to 1e-12 --
including the cache ``stats`` -- on weighted and unweighted graphs, at
every depth, through both kernel paths.
"""

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _kernel_oracles import lightcone_expectation_reference
from repro.qaoa.landscape import (
    compute_landscape,
    evaluate_parameter_sets,
    sample_parameter_sets,
)
from repro.qaoa.lightcone import (
    LightconePlan,
    LightconeTooLargeError,
    _CoreDensityClass,
    _StatevectorClass,
)


def _params(p, seed):
    rng = np.random.default_rng(seed)
    return list(rng.uniform(0, 2 * np.pi, p)), list(rng.uniform(0, np.pi, p))


def _weighted_cycle(n, seed):
    g = nx.cycle_graph(n)
    rng = np.random.default_rng(seed)
    for u, v in g.edges():
        g[u][v]["weight"] = float(rng.uniform(-1.5, 1.5))
    return g


class TestPlanMatchesReference:
    @pytest.mark.parametrize("p", [1, 2, 3])
    def test_regular_graph(self, p):
        g = nx.random_regular_graph(3, 14, seed=1)
        gammas, betas = _params(p, p)
        plan_value = LightconePlan.build(g, p).evaluate(gammas, betas)
        reference = lightcone_expectation_reference(g, gammas, betas)
        assert plan_value == pytest.approx(reference, abs=1e-12)

    @pytest.mark.parametrize("p", [1, 2])
    def test_weighted_graphs(self, p):
        for g in (_weighted_cycle(12, 4), _weighted_cycle(9, 7)):
            gammas, betas = _params(p, 10 * p)
            plan_value = LightconePlan.build(g, p).evaluate(gammas, betas)
            reference = lightcone_expectation_reference(g, gammas, betas)
            assert plan_value == pytest.approx(reference, abs=1e-12)

    def test_stats_match_reference(self):
        g = nx.random_regular_graph(3, 40, seed=3)
        reference_stats = {}
        gammas, betas = _params(2, 5)
        plan_stats = LightconePlan.build(g, 2).stats
        lightcone_expectation_reference(g, gammas, betas, stats=reference_stats)
        assert plan_stats == reference_stats
        assert plan_stats["edges"] == 60
        assert plan_stats["hits"] > 0

    def test_both_kernels_are_exercised_and_agree(self):
        """A 3-regular graph at p=2 compiles mostly core-density classes; a
        star graph's lightcone has no frontier, forcing the statevector
        kernel.  Both must match the reference."""
        regular = nx.random_regular_graph(3, 24, seed=0)
        star = nx.star_graph(8)
        plan_r = LightconePlan.build(regular, 2)
        plan_s = LightconePlan.build(star, 2)
        kinds_r = {type(c) for c in plan_r.classes}
        kinds_s = {type(c) for c in plan_s.classes}
        assert _CoreDensityClass in kinds_r
        assert _StatevectorClass in kinds_s
        for graph, plan in ((regular, plan_r), (star, plan_s)):
            gammas, betas = _params(2, 8)
            assert plan.evaluate(gammas, betas) == pytest.approx(
                lightcone_expectation_reference(graph, gammas, betas), abs=1e-12
            )

    def test_batch_matches_per_point(self):
        g = nx.random_regular_graph(3, 30, seed=2)
        plan = LightconePlan.build(g, 2)
        gammas, betas = sample_parameter_sets(2, 24, seed=6)
        batch = plan.evaluate_batch(gammas, betas)
        for i in range(0, 24, 7):
            reference = lightcone_expectation_reference(
                g, list(gammas[i]), list(betas[i])
            )
            assert batch[i] == pytest.approx(reference, abs=1e-12)
        single = plan.evaluate(list(gammas[3]), list(betas[3]))
        assert single == pytest.approx(batch[3], abs=0.0)


class TestPlanValidation:
    def test_wrong_depth_rejected(self):
        plan = LightconePlan.build(nx.cycle_graph(8), 2)
        with pytest.raises(ValueError):
            plan.evaluate([0.1], [0.2])
        with pytest.raises(ValueError):
            plan.evaluate_batch(np.zeros((4, 3)), np.zeros((4, 3)))

    def test_shape_mismatch_rejected(self):
        plan = LightconePlan.build(nx.cycle_graph(8), 1)
        with pytest.raises(ValueError):
            plan.evaluate_batch(np.zeros((4, 1)), np.zeros((5, 1)))

    def test_too_dense_raises_at_build(self):
        with pytest.raises(LightconeTooLargeError):
            LightconePlan.build(nx.complete_graph(25), 2, max_qubits=10)

    def test_invalid_p(self):
        with pytest.raises(ValueError):
            LightconePlan.build(nx.cycle_graph(6), 0)


class TestLandscapeWiring:
    def test_parameter_sets_route_through_plan(self):
        """Above the statevector limit the default evaluator must equal the
        per-point reference engine."""
        g = nx.random_regular_graph(3, 26, seed=4)
        gammas, betas = sample_parameter_sets(2, 6, seed=1)
        batched = evaluate_parameter_sets(g, gammas, betas)
        reference = np.array(
            [
                lightcone_expectation_reference(g, list(gg), list(bb))
                for gg, bb in zip(gammas, betas)
            ]
        )
        np.testing.assert_allclose(batched, reference, atol=1e-12)

    def test_large_graph_landscape_grid(self):
        """compute_landscape beyond 20 nodes builds the plan once and still
        matches the scalar dispatcher."""
        g = nx.random_regular_graph(3, 24, seed=9)
        scape = compute_landscape(g, width=4)
        from repro.qaoa.expectation import maxcut_expectation

        expected = maxcut_expectation(g, [scape.gammas[1]], [scape.betas[2]])
        assert scape.values[1, 2] == pytest.approx(expected, abs=1e-9)


@settings(max_examples=10, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=10**5),
    p=st.integers(min_value=1, max_value=2),
    weighted=st.booleans(),
)
def test_property_plan_matches_reference(seed, p, weighted):
    """Random sparse graphs: plan and per-call reference agree to 1e-12."""
    rng = np.random.default_rng(seed)
    g = nx.random_regular_graph(3, 2 * int(rng.integers(5, 9)), seed=seed)
    if weighted:
        for u, v in g.edges():
            g[u][v]["weight"] = float(rng.normal(0.0, 1.0))
    gammas = list(rng.uniform(0, 2 * np.pi, p))
    betas = list(rng.uniform(0, np.pi, p))
    reference_stats = {}
    plan = LightconePlan.build(g, p)
    reference = lightcone_expectation_reference(g, gammas, betas, stats=reference_stats)
    assert plan.evaluate(gammas, betas) == pytest.approx(reference, abs=1e-12)
    assert plan.stats == reference_stats
