"""Algorithms 1–3 as one pipeline: bounding regions, then trace-back search.

:func:`execute_bounded` is the paper's query method for every kind: an
s-query is the one-location case of an m-query, a reverse query swaps in
the reverse estimator and the backward bounds (chosen from the plan).  The
s-query registrations live here, next to ``sqmb_tbs_each`` — the paper's
m-query baseline (one SQMB+TBS run per location, unioned); the m- and
reverse registrations are in :mod:`~repro.core.executors.mqmb_tbs` and
:mod:`~repro.core.executors.reverse`.
"""

from __future__ import annotations

from repro.core.executors import (
    ExecutionContext,
    ExecutionOutcome,
    register_executor,
)
from repro.core.prob_kernel import ColumnarEq31Estimator
from repro.core.probability import ProbabilityEstimator
from repro.core.query import MQuery, QueryResult, SQuery
from repro.core.reverse import ReverseProbabilityEstimator
from repro.core.tbs import trace_back_search


def start_estimators(
    ctx: ExecutionContext, plan, query: SQuery | MQuery
) -> tuple[ExecutionOutcome, dict[int, ColumnarEq31Estimator]]:
    """The front half every executor shares: start segments, then one
    Eq. 3.1 estimator per distinct start segment.

    Returns the outcome to fill in (start segments and every estimator
    already on it, so their reads are charged) and the *live* estimators
    by start segment: a segment no trajectory ever left in the first slot
    (``start_days == 0``) vouches for nothing at any ``Prob > 0`` and is
    dropped.
    """
    st = ctx.st_index()
    locations = (
        query.locations if isinstance(query, MQuery) else (query.location,)
    )
    with ctx.stage("start-segment lookup") as stage:
        segments = list(
            dict.fromkeys(st.find_start_segment(loc) for loc in locations)
        )
        stage.note(r0=segments)
    num_days = ctx.database.num_days

    def estimator(seed: int) -> ColumnarEq31Estimator:
        # Both constructors are called by name (not through a class held
        # in a variable) so repro-lint's call graph reaches them.
        if plan.kind == "r":
            return ReverseProbabilityEstimator(
                st, seed, query.start_time_s, query.duration_s, num_days
            )
        return ProbabilityEstimator(
            st, seed, query.start_time_s, query.duration_s, num_days
        )

    with ctx.stage("start time-list read") as stage:
        estimators = {seed: estimator(seed) for seed in segments}
        stage.note(
            start_days=[e.start_days for e in estimators.values()],
            num_days=num_days,
        )
    outcome = ExecutionOutcome(
        result=QueryResult(start_segments=tuple(segments)),
        estimators=list(estimators.values()),
    )
    return outcome, {
        seed: est for seed, est in estimators.items() if est.start_days > 0
    }


def execute_bounded(
    ctx: ExecutionContext, plan, query: SQuery | MQuery
) -> ExecutionOutcome:
    """Far and Near bounding regions from the Con-Index, then TBS."""
    outcome, live = start_estimators(ctx, plan, query)
    if not live:
        return outcome
    seeds = tuple(live)
    with ctx.stage("max bounding region") as stage:
        max_region = ctx.bounding_region(
            plan.bounding_strategy, seeds, query.start_time_s,
            query.duration_s, "far",
        )
        stage.note(
            cover=len(max_region.cover), boundary=len(max_region.boundary)
        )
    with ctx.stage("min bounding region") as stage:
        min_region = ctx.bounding_region(
            plan.bounding_strategy, seeds, query.start_time_s,
            query.duration_s, "near",
        )
        stage.note(cover=len(min_region.cover))
    with ctx.stage("trace-back search") as stage:
        tbs = trace_back_search(
            ctx.network, live, query.prob, max_region, min_region
        )
        stage.note(passed=len(tbs.passed), failed=len(tbs.failed))
    result = outcome.result
    result.segments = tbs.region
    result.probabilities = tbs.probabilities
    result.max_region = max_region
    result.min_region = min_region
    outcome.examined = tbs.examined
    outcome.wave_sizes = tbs.wave_sizes
    return outcome


@register_executor("s", "sqmb_tbs")
def execute_sqmb_tbs(
    ctx: ExecutionContext, plan, query: SQuery
) -> ExecutionOutcome:
    """Algorithms 1+2: SQMB bounds, then trace-back."""
    return execute_bounded(ctx, plan, query)


def execute_each(
    ctx: ExecutionContext, plan, query: MQuery, sub_algorithm: str
) -> ExecutionOutcome:
    """One independent s-query per distinct location, unioned (the paper's
    m-query baselines).

    Each sub-query is an independent s-query (the whole point of the
    baseline): it pays its own cold I/O, including re-reading whatever
    overlaps earlier sub-queries already fetched.  A repeated location is
    the same s-query and runs once.
    """
    merged = ExecutionOutcome()
    starts: list[int] = []
    for sub_query in dict.fromkeys(query.as_s_queries()):
        sub = ctx.run_subquery("s", sub_query, sub_algorithm, plan.warm)
        merged.result.segments |= sub.result.segments
        merged.result.probabilities.update(sub.result.probabilities)
        starts.extend(sub.result.start_segments)
        merged.estimators.extend(sub.estimators)
        merged.examined += sub.examined
        merged.wave_sizes.extend(sub.wave_sizes)
    merged.result.start_segments = tuple(dict.fromkeys(starts))
    return merged


@register_executor("m", "sqmb_tbs_each")
def execute_sqmb_tbs_each(
    ctx: ExecutionContext, plan, query: MQuery
) -> ExecutionOutcome:
    return execute_each(ctx, plan, query, "sqmb_tbs")
