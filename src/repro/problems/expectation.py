"""QAOA expectation for diagonal problems: the problem side of one dispatch.

:func:`problem_evaluator` hands the problem's engines to
:func:`repro.qaoa.expectation.dispatch_evaluator`, the policy graphs use
too (statevector up to ``EXACT_LIMIT``, lightcone when field-free, dense
fallback up to the 26-qubit cap, else
:class:`~repro.qaoa.expectation.EngineLimitError` at dispatch); problems
just have no analytic p=1 engine.  The engines:

- **statevector**: the problem diagonal drops straight into the fast
  statevector engine -- :class:`DiagonalProblem` duck-types as a
  Hamiltonian (``.num_qubits`` + ``.diagonal``), so linear-Z fields cost
  nothing extra (they are phase-table entries like any other diagonal
  value).  Dense, hence guarded at ``n <= 26``;
  ``qaoa_expectation_fast(problem, ...)`` is the parity oracle.
- **lightcone**: for *field-free* problems only.  The phase diagonal
  ``constant + sum J_uv s_u s_v`` differs from the weighted-MaxCut diagonal
  of the coupling graph (``w_uv = -2 J_uv``) by an additive constant, i.e.
  a global phase, so the existing :class:`~repro.qaoa.lightcone.LightconePlan`
  machinery evaluates the state exactly; the expectation maps back via
  ``<value> = <cut> + constant + sum_uv J_uv`` (from
  ``<s_u s_v> = 1 - 2 P(cut)``).  For a MaxCut-encoded problem the
  coupling graph *is* the original weighted graph and the offset is zero,
  so this path evaluates the same plan as the graph-based engine.
"""

from __future__ import annotations

from collections.abc import Sequence

from repro.problems.base import DiagonalProblem
from repro.qaoa.expectation import EXACT_LIMIT, coerce_params, dispatch_evaluator
from repro.qaoa.lightcone import LightconePlan, PlanCache

__all__ = [
    "problem_evaluator",
    "problem_expectation",
    "problem_lightcone_plan",
]


def problem_lightcone_plan(
    problem: DiagonalProblem,
    p: int,
    plan_cache: "PlanCache | None" = None,
) -> tuple[LightconePlan, float]:
    """Compiled lightcone plan plus the additive offset for a field-free problem.

    ``plan.evaluate(gammas, betas) + offset`` is the exact expectation.
    Raises ``ValueError`` for field-carrying problems (their mixer-coupled
    linear terms break the per-edge decomposition) and
    :class:`~repro.qaoa.lightcone.LightconeTooLargeError` for coupling
    graphs with a lightcone above ``EXACT_LIMIT`` qubits.  ``plan_cache``
    optionally shares compiled plans across problems with identical
    coupling structure (batch serving); reuse is result-neutral since a
    plan is a pure function of the graph.
    """
    if not problem.is_field_free:
        raise ValueError(
            f"problem {problem.name!r} has {len(problem.fields)} linear fields; "
            "the lightcone engine only supports field-free problems"
        )
    plan = LightconePlan.build_cached(
        problem.coupling_graph(), p, max_qubits=EXACT_LIMIT, cache=plan_cache
    )
    offset = problem.constant + sum(problem.couplings.values())
    return plan, offset


def problem_evaluator(
    problem: DiagonalProblem,
    p: int,
    plan_cache: "PlanCache | None" = None,
):
    """One-time engine dispatch on a problem: ``f(gammas, betas) -> float``.

    :func:`~repro.qaoa.expectation.dispatch_evaluator` with the problem's
    engines: the statevector on the problem's own diagonal and, for
    field-free problems, a lightcone plan plus the additive offset.  Pays
    the engine choice -- and the plan compile -- once, and *fails fast*:
    the :class:`~repro.qaoa.expectation.EngineLimitError` is raised here,
    before any caller spends an optimization budget.  The returned
    evaluator only accepts depth-``p`` parameter vectors.
    """

    def lightcone():
        plan, offset = problem_lightcone_plan(problem, p, plan_cache=plan_cache)
        return lambda gammas, betas: plan.evaluate(gammas, betas) + offset

    return dispatch_evaluator(
        problem.num_qubits, p,
        dense=lambda: problem,
        lightcone=lightcone,
        field_free=problem.is_field_free,
        name=f"problem {problem.name!r}",
    )


def problem_expectation(
    problem: DiagonalProblem,
    gammas: Sequence[float],
    betas: Sequence[float],
) -> float:
    """Ideal QAOA expectation of ``problem`` with automatic engine choice.

    One point, one dispatch; callers pricing many points on one problem
    should hold on to :func:`problem_evaluator` instead.
    """
    gammas, betas = coerce_params(gammas, betas)
    return problem_evaluator(problem, len(gammas))(gammas, betas)
