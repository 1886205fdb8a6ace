"""Expectation-value dispatch: one engine policy for every diagonal instance.

:func:`dispatch_evaluator` is the single policy behind both ideal
evaluators -- :func:`maxcut_evaluator` here and
:func:`repro.problems.expectation.problem_evaluator` -- and hence behind
:func:`maxcut_expectation` and
:func:`~repro.problems.expectation.problem_expectation`, which are one
dispatch plus one evaluation.  Every job gets exactly one engine: the
first that applies wins.

========================  ===========  ======================================
condition                 engine       notes
========================  ===========  ======================================
``n <= EXACT_LIMIT``      statevector  :mod:`repro.qaoa.fast_sim`; exact for
                                       any depth and any diagonal (weights,
                                       linear fields)
``p == 1``, graphs only   analytic     :mod:`repro.qaoa.analytic`; O(|E|)
                                       unweighted closed form, or the
                                       weighted product form (Ozaeta et al.
                                       2022) when any weight differs from 1
field-free instance       lightcone    :mod:`repro.qaoa.lightcone`; per-edge
                                       ``w_uv P(cut)`` terms on weighted
                                       distance-p subgraphs, compiled once
                                       into a :class:`LightconePlan`
``n <= 26``               statevector  dense fallback (``MAX_DENSE_QUBITS``)
                                       when lightcones are too large or the
                                       instance carries linear fields
otherwise                 --           :class:`EngineLimitError`, raised at
                                       dispatch, before any evaluation
========================  ===========  ======================================

Every engine honors the ``weight`` edge attribute (weighted MaxCut /
random Ising).  Only what the chosen engine uses is built: callers pass
builders, so a lightcone evaluator builds no Hamiltonian and a
statevector evaluator compiles no plan.  There is no engine selector:
code that needs one engine in particular calls it directly
(``LightconePlan.build(g, p).evaluate``, :func:`maxcut_p1_expectation`,
``qaoa_expectation_fast(MaxCutHamiltonian(g), ...)``).

``noisy_maxcut_expectation`` runs the fast Pauli-trajectory noisy path
(statevector-based, so it also honors weights).
"""

from __future__ import annotations

from collections.abc import Callable, Sequence

import networkx as nx
import numpy as np

from repro.qaoa.analytic import maxcut_p1_expectation
from repro.qaoa.fast_sim import (
    FastNoiseSpec,
    noisy_qaoa_expectation_fast,
    qaoa_expectation_fast,
)
from repro.qaoa.hamiltonian import MAX_DENSE_QUBITS, MaxCutHamiltonian
from repro.qaoa.lightcone import LightconePlan, LightconeTooLargeError, PlanCache
from repro.utils.graphs import ensure_graph, relabel_to_range

__all__ = [
    "EXACT_LIMIT",
    "EngineLimitError",
    "coerce_params",
    "dispatch_evaluator",
    "maxcut_evaluator",
    "maxcut_expectation",
    "noisy_maxcut_expectation",
]

#: Largest qubit count dispatch prices on the dense statevector engine, and
#: the largest lightcone the lightcone engine simulates.
EXACT_LIMIT = 20


class EngineLimitError(ValueError):
    """No exact engine can handle the requested (size, depth) combination."""


def coerce_params(gammas, betas, p: int | None = None) -> tuple[list[float], list[float]]:
    """``gammas``/``betas`` as float lists of one non-empty length (``p`` if given)."""
    gammas = [float(g) for g in np.atleast_1d(gammas)]
    betas = [float(b) for b in np.atleast_1d(betas)]
    if len(gammas) != len(betas) or not gammas:
        raise ValueError("gammas and betas must be non-empty and equal length")
    if p is not None and len(gammas) != p:
        raise ValueError(
            f"evaluator was built for p={p}, got {len(gammas)} gammas "
            f"and {len(betas)} betas"
        )
    return gammas, betas


def dispatch_evaluator(
    num_qubits: int,
    p: int,
    *,
    dense: Callable[[], object],
    lightcone: Callable[[], Callable[[list, list], float]],
    field_free: bool = True,
    analytic: Callable[[list, list], float] | None = None,
    name: str = "instance",
):
    """The one engine-dispatch policy: a reusable ``f(gammas, betas) -> float``.

    ``dense()`` builds the statevector target (anything with
    ``num_qubits`` and ``diagonal``); ``lightcone()`` compiles a plan and
    returns its raw evaluator, raising
    :class:`~repro.qaoa.lightcone.LightconeTooLargeError` when some
    lightcone is too large; ``analytic`` is the raw p=1 evaluator (graphs
    only, ``None`` elsewhere).  The policy is the table in the module
    docstring, with ``EXACT_LIMIT`` and ``MAX_DENSE_QUBITS`` as its two
    thresholds.

    The engine choice -- and on the lightcone path the whole plan compile
    -- is paid here, once; so is the failure: :class:`EngineLimitError`
    is raised at dispatch when no exact engine applies.  The returned
    evaluator only accepts depth-``p`` parameter vectors.
    """
    if p < 1:
        raise ValueError(f"p must be >= 1, got {p}")

    def checked(engine):
        return lambda gammas, betas: engine(*coerce_params(gammas, betas, p))

    def statevector():
        target = dense()
        return checked(lambda gammas, betas: qaoa_expectation_fast(target, gammas, betas))

    if num_qubits <= EXACT_LIMIT:
        return statevector()
    if analytic is not None and p == 1:
        return checked(analytic)
    if field_free:
        try:
            return checked(lightcone())
        except LightconeTooLargeError as exc:
            if num_qubits <= MAX_DENSE_QUBITS:
                return statevector()
            raise EngineLimitError(
                f"{name} with {num_qubits} qubits at p={p} is beyond exact "
                f"simulation: {exc}"
            ) from exc
    if num_qubits <= MAX_DENSE_QUBITS:
        return statevector()
    raise EngineLimitError(
        f"{name} with {num_qubits} qubits carries linear fields; "
        f"no exact engine beyond {MAX_DENSE_QUBITS} qubits"
    )


def maxcut_evaluator(graph: nx.Graph, p: int, plan_cache: PlanCache | None = None):
    """One-time engine dispatch on a MaxCut graph: ``f(gammas, betas) -> float``.

    :func:`dispatch_evaluator` with the graph's engines: the statevector
    on :class:`MaxCutHamiltonian`, the analytic p=1 form, and a lightcone
    plan (``EXACT_LIMIT`` qubits per lightcone) on the relabeled graph.
    ``plan_cache`` optionally shares compiled
    :class:`~repro.qaoa.lightcone.LightconePlan` objects across evaluators
    (batch serving); pass canonically relabeled graphs when sharing, as
    plan keys embed node labels.
    """
    ensure_graph(graph)

    def lightcone():
        plan = LightconePlan.build_cached(
            relabel_to_range(graph), p, max_qubits=EXACT_LIMIT, cache=plan_cache
        )
        return plan.evaluate

    return dispatch_evaluator(
        graph.number_of_nodes(), p,
        dense=lambda: MaxCutHamiltonian(graph),
        lightcone=lightcone,
        analytic=lambda gammas, betas: maxcut_p1_expectation(graph, gammas[0], betas[0]),
        name="graph",
    )


def maxcut_expectation(
    graph: nx.Graph,
    gammas: Sequence[float],
    betas: Sequence[float],
) -> float:
    """Ideal QAOA MaxCut expectation with automatic engine choice.

    One point, one dispatch; callers pricing many points on one graph
    should hold on to :func:`maxcut_evaluator` instead.
    """
    gammas, betas = coerce_params(gammas, betas)
    return maxcut_evaluator(graph, len(gammas))(gammas, betas)


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
    gammas, betas = coerce_params(gammas, betas)
    return noisy_qaoa_expectation_fast(
        hamiltonian, gammas, betas, noise, trajectories=trajectories, shots=shots, seed=seed
    )
