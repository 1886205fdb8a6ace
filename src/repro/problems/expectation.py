"""QAOA expectation dispatch for diagonal problems.

Two exact paths, mirroring :mod:`repro.qaoa.expectation`:

- **statevector** (the parity oracle): the problem diagonal drops straight
  into the fast statevector engine -- :class:`DiagonalProblem` duck-types
  as a Hamiltonian (``.num_qubits`` + ``.diagonal``), so linear-Z fields
  cost nothing extra (they are phase-table entries like any other diagonal
  value).  Dense, hence guarded at ``n <= 26``.
- **lightcone**: for *field-free* problems only.  The phase diagonal
  ``constant + sum J_uv s_u s_v`` differs from the weighted-MaxCut diagonal
  of the coupling graph (``w_uv = -2 J_uv``) by an additive constant, i.e.
  a global phase, so the existing :class:`~repro.qaoa.lightcone.LightconePlan`
  machinery evaluates the state exactly; the expectation maps back via
  ``<value> = <cut> + constant + sum_uv J_uv`` (from
  ``<s_u s_v> = 1 - 2 P(cut)``).  For a MaxCut-encoded problem the
  coupling graph *is* the original weighted graph and the offset is zero,
  so this path is bit-identical to the graph-based engine.

``auto`` prefers the statevector up to ``exact_limit`` qubits, then the
lightcone when the problem is field-free, and falls back cleanly to the
dense path (up to the hard 26-qubit cap) when lightcones are too large --
raising :class:`~repro.qaoa.expectation.EngineLimitError` only when no
exact engine applies.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.problems.base import MAX_DENSE_QUBITS, DiagonalProblem
from repro.qaoa.expectation import EXACT_LIMIT, EngineLimitError
from repro.qaoa.fast_sim import qaoa_expectation_fast
from repro.qaoa.lightcone import LightconePlan, LightconeTooLargeError, PlanCache

__all__ = [
    "problem_evaluator",
    "problem_expectation",
    "problem_expectation_reference",
    "problem_lightcone_plan",
]


def _check_params(gammas, betas) -> tuple[list[float], list[float]]:
    gammas = [float(g) for g in np.atleast_1d(gammas)]
    betas = [float(b) for b in np.atleast_1d(betas)]
    if len(gammas) != len(betas) or not gammas:
        raise ValueError("gammas and betas must be non-empty and equal length")
    return gammas, betas


def problem_expectation_reference(
    problem: DiagonalProblem,
    gammas: Sequence[float],
    betas: Sequence[float],
) -> float:
    """Dense-diagonal statevector expectation -- the per-problem parity oracle.

    Always exact and engine-free (one statevector evolution against the
    problem's own diagonal); every other path must match it to high
    precision on small instances.
    """
    gammas, betas = _check_params(gammas, betas)
    if problem.num_qubits > MAX_DENSE_QUBITS:
        raise EngineLimitError(
            f"dense reference is limited to {MAX_DENSE_QUBITS} qubits, "
            f"got {problem.num_qubits}"
        )
    return qaoa_expectation_fast(problem, gammas, betas)


def problem_lightcone_plan(
    problem: DiagonalProblem,
    p: int,
    max_qubits: int = 20,
    plan_cache: "PlanCache | None" = None,
) -> tuple[LightconePlan, float]:
    """Compiled lightcone plan plus the additive offset for a field-free problem.

    ``plan.evaluate(gammas, betas) + offset`` is the exact expectation.
    Raises ``ValueError`` for field-carrying problems (their mixer-coupled
    linear terms break the per-edge decomposition) and
    :class:`~repro.qaoa.lightcone.LightconeTooLargeError` for dense
    coupling graphs.  ``plan_cache`` optionally shares compiled plans
    across problems with identical coupling structure (batch serving);
    reuse is result-neutral since a plan is a pure function of the graph.
    """
    if not problem.is_field_free:
        raise ValueError(
            f"problem {problem.name!r} has {len(problem.fields)} linear fields; "
            "the lightcone engine only supports field-free problems"
        )
    plan = LightconePlan.build_cached(
        problem.coupling_graph(), p, max_qubits=max_qubits, cache=plan_cache
    )
    offset = problem.constant + sum(problem.couplings.values())
    return plan, offset


def problem_evaluator(
    problem: DiagonalProblem,
    p: int,
    method: str = "auto",
    exact_limit: int = EXACT_LIMIT,
    max_qubits: int = 20,
    plan_cache: "PlanCache | None" = None,
):
    """One-time engine dispatch: a reusable ``f(gammas, betas) -> float``.

    Pays the engine choice -- and, on the lightcone path, the whole
    structure-discovery/compile cost of the plan -- once, so optimizer
    loops evaluate thousands of points without rebuilding anything.  Also
    *fails fast*: when no exact engine can handle the problem at all, the
    :class:`~repro.qaoa.expectation.EngineLimitError` is raised here,
    before any caller spends an optimization budget.  The returned
    evaluator is only valid for depth-``p`` parameter vectors.
    """
    if p < 1:
        raise ValueError(f"p must be >= 1, got {p}")
    n = problem.num_qubits

    def dense(gammas, betas):
        return problem_expectation_reference(problem, gammas, betas)

    if method == "statevector" or (method == "auto" and n <= exact_limit):
        if n > MAX_DENSE_QUBITS:
            raise EngineLimitError(
                f"dense reference is limited to {MAX_DENSE_QUBITS} qubits, got {n}"
            )
        return dense
    if method == "lightcone" or (method == "auto" and problem.is_field_free):
        try:
            plan, offset = problem_lightcone_plan(
                problem, p, max_qubits=max_qubits, plan_cache=plan_cache
            )
            return lambda gammas, betas: plan.evaluate(
                [float(g) for g in np.atleast_1d(gammas)],
                [float(b) for b in np.atleast_1d(betas)],
            ) + offset
        except LightconeTooLargeError as exc:
            if method == "auto" and n <= MAX_DENSE_QUBITS:
                return dense
            raise EngineLimitError(
                f"problem with {n} qubits at p={p} is beyond exact "
                f"simulation: {exc}"
            ) from exc
    if method == "auto":
        if n <= MAX_DENSE_QUBITS:
            return dense
        raise EngineLimitError(
            f"problem {problem.name!r} with {n} qubits carries linear fields; "
            f"no exact engine beyond {MAX_DENSE_QUBITS} qubits"
        )
    raise ValueError(f"unknown method {method!r}")


def problem_expectation(
    problem: DiagonalProblem,
    gammas: Sequence[float],
    betas: Sequence[float],
    method: str = "auto",
    exact_limit: int = EXACT_LIMIT,
    max_qubits: int = 20,
) -> float:
    """Ideal QAOA expectation of ``problem`` with automatic engine choice.

    ``method`` is ``"auto"``, ``"statevector"`` or ``"lightcone"``.  One
    point, one dispatch; callers pricing many points on one problem should
    hold on to :func:`problem_evaluator` instead.
    """
    gammas, betas = _check_params(gammas, betas)
    evaluate = problem_evaluator(
        problem, len(gammas), method=method,
        exact_limit=exact_limit, max_qubits=max_qubits,
    )
    return evaluate(gammas, betas)
