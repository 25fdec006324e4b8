"""The exhaustive-search baseline family.

``es`` is the paper's baseline (§4.1): expand the physical road network to
the end of every branch and verify each visited segment's Eq. 3.1
probability against the trajectory time lists.  ``es_pruned`` stops each
branch once historical support vanishes (ablation comparator, not in the
paper).  ``es_each`` answers an m-query as n independent ``es`` runs.
"""

from __future__ import annotations

from repro.core.baseline import exhaustive_search, exhaustive_search_pruned
from repro.core.executors import (
    ExecutionContext,
    ExecutionOutcome,
    register_executor,
)
from repro.core.executors.sqmb_tbs import execute_each, start_estimators
from repro.core.query import MQuery, SQuery


def execute_exhaustive(
    ctx: ExecutionContext, plan, query: SQuery
) -> ExecutionOutcome:
    """The ES pipeline, forward or reverse: the shared front half, then
    verification of every road-connected segment (``es_pruned``: of every
    segment with historical support)."""
    outcome, live = start_estimators(ctx, plan, query)
    if not live:
        return outcome
    (estimator,) = live.values()
    with ctx.stage("exhaustive search") as stage:
        if plan.executor == "es_pruned":
            es = exhaustive_search_pruned(ctx.network, estimator, query.prob)
        else:
            es = exhaustive_search(ctx.network, estimator, query.prob)
        stage.note(passed=len(es.region), failed=len(es.failed))
    outcome.result.segments = es.region
    outcome.result.probabilities = es.probabilities
    outcome.examined = es.examined
    outcome.wave_sizes = es.wave_sizes
    return outcome


@register_executor("s", "es")
def execute_es(ctx: ExecutionContext, plan, query: SQuery) -> ExecutionOutcome:
    """The paper's ES baseline: verify every road-connected segment."""
    return execute_exhaustive(ctx, plan, query)


@register_executor("s", "es_pruned")
def execute_es_pruned(
    ctx: ExecutionContext, plan, query: SQuery
) -> ExecutionOutcome:
    """Support-pruned exhaustive search (ablation baseline)."""
    return execute_exhaustive(ctx, plan, query)


@register_executor("m", "es_each")
def execute_es_each(
    ctx: ExecutionContext, plan, query: MQuery
) -> ExecutionOutcome:
    """n independent exhaustive searches, unioned."""
    return execute_each(ctx, plan, query, "es")
