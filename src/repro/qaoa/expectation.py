"""Expectation-value dispatch: pick the right engine for the problem size.

``maxcut_expectation`` chooses among three exact engines, all of which
honor the ``weight`` edge attribute (weighted MaxCut / random Ising):

========================  =========  ==========================================
condition (``auto``)      engine     notes
========================  =========  ==========================================
``n <= exact_limit``      statevector  :mod:`repro.qaoa.fast_sim`; exact for
                                       any depth, weighted diagonal
``p == 1`` (any size)     analytic     :mod:`repro.qaoa.analytic`; O(|E|)
                                       unweighted closed form, or the weighted
                                       product form (Ozaeta et al. 2022) when
                                       any edge weight differs from 1
otherwise                 lightcone    :mod:`repro.qaoa.lightcone`; per-edge
                                       ``w_uv P(cut)`` terms on weighted
                                       distance-p subgraphs, memoized by a
                                       canonical weighted signature
========================  =========  ==========================================

``noisy_maxcut_expectation`` runs the fast Pauli-trajectory noisy path
(statevector-based, so it also honors weights).
"""

from __future__ import annotations

from collections.abc import Sequence

import networkx as nx
import numpy as np

from repro.qaoa.analytic import maxcut_p1_expectation
from repro.qaoa.fast_sim import (
    FastNoiseSpec,
    noisy_qaoa_expectation_fast,
    qaoa_expectation_fast,
)
from repro.qaoa.hamiltonian import MaxCutHamiltonian
from repro.qaoa.lightcone import (
    LightconePlan,
    LightconeTooLargeError,
    PlanCache,
    lightcone_expectation,
)
from repro.utils.graphs import ensure_graph, relabel_to_range

__all__ = [
    "EXACT_LIMIT",
    "EngineLimitError",
    "maxcut_evaluator",
    "maxcut_expectation",
    "noisy_maxcut_expectation",
]

#: Largest qubit count that ``auto`` dispatch prices on the dense statevector engine.
EXACT_LIMIT = 20


class EngineLimitError(ValueError):
    """No exact engine can handle the requested (size, depth) combination."""


def maxcut_expectation(
    graph: nx.Graph,
    gammas: Sequence[float],
    betas: Sequence[float],
    method: str = "auto",
    exact_limit: int = EXACT_LIMIT,
) -> float:
    """Ideal QAOA MaxCut expectation with automatic engine choice.

    ``method`` may be ``"auto"``, ``"statevector"``, ``"analytic"`` (p=1
    only) or ``"lightcone"``.
    """
    ensure_graph(graph)
    gammas = [float(g) for g in np.atleast_1d(gammas)]
    betas = [float(b) for b in np.atleast_1d(betas)]
    if len(gammas) != len(betas) or not gammas:
        raise ValueError("gammas and betas must be non-empty and equal length")
    p = len(gammas)
    n = graph.number_of_nodes()

    if method == "statevector" or (method == "auto" and n <= exact_limit):
        hamiltonian = MaxCutHamiltonian(graph)
        return qaoa_expectation_fast(hamiltonian, gammas, betas)
    if method == "analytic" or (method == "auto" and p == 1):
        if p != 1:
            raise ValueError("the analytic engine only supports p=1")
        return maxcut_p1_expectation(graph, gammas[0], betas[0])
    if method in ("lightcone", "auto"):
        relabeled = relabel_to_range(graph)
        try:
            return lightcone_expectation(relabeled, gammas, betas, max_qubits=exact_limit)
        except LightconeTooLargeError as exc:
            raise EngineLimitError(
                f"graph with {n} nodes at p={p} is beyond exact simulation: {exc}"
            ) from exc
    raise ValueError(f"unknown method {method!r}")


def maxcut_evaluator(
    graph: nx.Graph,
    p: int,
    method: str = "auto",
    exact_limit: int = EXACT_LIMIT,
    plan_cache: PlanCache | None = None,
):
    """One-time engine dispatch: a reusable ``f(gammas, betas) -> float``.

    The graph-side twin of :func:`repro.problems.expectation.problem_evaluator`:
    the engine choice -- and on the lightcone path the whole
    structure-discovery/compile cost -- is paid once, so optimizer loops
    price thousands of points without re-dispatching or rebuilding a plan
    per call.  Every path produces bit-identical values to
    :func:`maxcut_expectation` with the same ``method``.  ``plan_cache``
    optionally shares compiled :class:`~repro.qaoa.lightcone.LightconePlan`
    objects across evaluators (batch serving); pass canonically relabeled
    graphs when sharing, as plan keys embed node labels.

    Fails fast: :class:`EngineLimitError` is raised here, not at the first
    evaluation, when no exact engine can handle the graph at depth ``p``.
    The returned evaluator only accepts depth-``p`` parameter vectors.
    """
    ensure_graph(graph)
    if p < 1:
        raise ValueError(f"p must be >= 1, got {p}")
    n = graph.number_of_nodes()

    def coerce(gammas, betas) -> tuple[list[float], list[float]]:
        gammas = [float(g) for g in np.atleast_1d(gammas)]
        betas = [float(b) for b in np.atleast_1d(betas)]
        if len(gammas) != len(betas) or len(gammas) != p:
            raise ValueError(
                f"evaluator was built for p={p}, got {len(gammas)} gammas "
                f"and {len(betas)} betas"
            )
        return gammas, betas

    if method == "statevector" or (method == "auto" and n <= exact_limit):
        hamiltonian = MaxCutHamiltonian(graph)

        def statevector(gammas, betas):
            gammas, betas = coerce(gammas, betas)
            return qaoa_expectation_fast(hamiltonian, gammas, betas)

        return statevector
    if method == "analytic" or (method == "auto" and p == 1):
        if p != 1:
            raise ValueError("the analytic engine only supports p=1")

        def analytic(gammas, betas):
            gammas, betas = coerce(gammas, betas)
            return maxcut_p1_expectation(graph, gammas[0], betas[0])

        return analytic
    if method in ("lightcone", "auto"):
        relabeled = relabel_to_range(graph)
        try:
            plan = LightconePlan.build_cached(
                relabeled, p, max_qubits=exact_limit, cache=plan_cache
            )
        except LightconeTooLargeError as exc:
            raise EngineLimitError(
                f"graph with {n} nodes at p={p} is beyond exact simulation: {exc}"
            ) from exc

        def lightcone(gammas, betas):
            gammas, betas = coerce(gammas, betas)
            return plan.evaluate(gammas, betas)

        return lightcone
    raise ValueError(f"unknown method {method!r}")


def noisy_maxcut_expectation(
    graph: nx.Graph,
    gammas: Sequence[float],
    betas: Sequence[float],
    noise: FastNoiseSpec,
    trajectories: int = 8,
    shots: int | None = None,
    seed: int | np.random.Generator | None = None,
) -> float:
    """Noisy QAOA MaxCut expectation on the fast trajectory path.

    Noise is injected at QAOA-layer granularity (see
    :class:`~repro.qaoa.fast_sim.FastNoiseSpec`); readout error and optional
    finite-``shots`` sampling apply at the end.
    """
    ensure_graph(graph)
    hamiltonian = MaxCutHamiltonian(graph)
    gammas = [float(g) for g in np.atleast_1d(gammas)]
    betas = [float(b) for b in np.atleast_1d(betas)]
    return noisy_qaoa_expectation_fast(
        hamiltonian, gammas, betas, noise, trajectories=trajectories, shots=shots, seed=seed
    )
