"""Algorithms 1–3 as one pipeline: a bounding region, then trace-back search.

:func:`execute_bounded` is the paper's query method for every kind: an
s-query is the one-location case of an m-query, a reverse query swaps in
the reverse estimator and the backward bounds (chosen from the plan).  The
s-query registrations live here, next to ``sqmb_tbs_each`` — the paper's
m-query baseline (one SQMB+TBS run per location, unioned); the m- and
reverse registrations are in :mod:`~repro.core.executors.mqmb_tbs` and
:mod:`~repro.core.executors.reverse`.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np

from repro.core.executors import (
    ExecutionContext,
    ExecutionOutcome,
    charge_cost,
    register_executor,
)
from repro.core.prob_kernel import ColumnarEq31Estimator
from repro.core.probability import ProbabilityEstimator
from repro.core.query import MQuery, QueryResult, SQuery
from repro.core.reverse import ReverseProbabilityEstimator
from repro.core.tbs import LockstepSearch, TraceBackResult, trace_back_search

#: The plans of :func:`execute_bounded`: a batch runs each run of them in lock step,
#: unless it is shorter than the measured break-even against the per-query path
#: (lock step 1.20–1.33× at 1, 0.86–0.88× at 2, 0.74–0.75× at 3; docs/architecture.md).
LOCKSTEP = frozenset({("s", "sqmb_tbs"), ("m", "mqmb_tbs"), ("r", "sqmb_tbs")})
LOCKSTEP_MIN_RUN = 2


def locations_of(query: SQuery | MQuery) -> tuple:
    return query.locations if isinstance(query, MQuery) else (query.location,)


def start_estimators(
    ctx: ExecutionContext, plan, query: SQuery | MQuery, segments=None, charges=None, floor=0.0
) -> tuple[ExecutionOutcome, dict[int, ColumnarEq31Estimator]]:
    """The front half every executor shares: start segments (``segments`` if a lock-step
    run located them), then one Eq. 3.1 estimator per distinct start segment, their
    fixed sides read with one gather and one charge.

    Returns the outcome to fill in (start segments and every estimator
    already on it, so their reads are charged) and the *live* estimators
    by start segment: a segment no trajectory ever left in the first slot
    (``start_days == 0``) vouches for nothing at any ``Prob > 0`` and is
    dropped, and so is one whose cap ``start_days / num_days`` is below
    ``floor``: Eq. 3.1's ``m*`` counts a subset of the fixed side's days.
    """
    st = ctx.st_index()
    with ctx.stage("start-segment lookup") as stage:
        if segments is None:
            segments = [st.find_start_segment(loc) for loc in locations_of(query)]
        segments = list(dict.fromkeys(segments))
        stage.note(r0=segments)
    num_days = ctx.database.num_days
    with ctx.stage("start time-list read") as stage:
        # Both classes are named (not held in a variable) so repro-lint's
        # call graph reaches their constructor.
        args = (st, segments, query.start_time_s, query.duration_s, num_days, charges)
        if plan.kind == "r":
            built = ReverseProbabilityEstimator.for_seeds(*args)
        else:
            built = ProbabilityEstimator.for_seeds(*args)
        estimators = dict(zip(segments, built))
        capped = [seed for seed, e in estimators.items() if e.start_days / num_days < floor]
        stage.note(
            start_days=[e.start_days for e in estimators.values()],
            num_days=num_days,
            below_cap=capped,
        )
    outcome = ExecutionOutcome(
        result=QueryResult(start_segments=tuple(segments)),
        estimators=list(estimators.values()),
    )
    return outcome, {
        seed: est for seed, est in estimators.items() if est.start_days > 0 and seed not in capped
    }


def bounded_front(
    ctx: ExecutionContext, plan, query: SQuery | MQuery, segments=None, charges=None
) -> tuple[ExecutionOutcome, LockstepSearch | None]:
    """:func:`start_estimators` without the seeds capped below ``Prob`` (they reach
    nothing), then the live seeds' maximum bounding region from the Con-Index:
    the trace-back's inputs (``None``, an empty answer, when no seed is live)."""
    outcome, live = start_estimators(ctx, plan, query, segments, charges, query.prob)
    if not live:
        return outcome, None
    seeds = tuple(live)
    with ctx.stage("max bounding region") as stage:
        max_region = ctx.bounding_region(
            plan.bounding_strategy, seeds, query.start_time_s, query.duration_s
        )
        stage.note(cover=len(max_region.cover))
    outcome.result.max_region = max_region
    return outcome, LockstepSearch(live, query.prob, max_region, charges)


def finish_bounded(outcome: ExecutionOutcome, tbs: TraceBackResult) -> ExecutionOutcome:
    outcome.result.segments, outcome.result.probabilities = tbs.region, tbs.probabilities
    outcome.examined, outcome.wave_sizes = tbs.examined, tbs.wave_sizes
    return outcome


def execute_bounded(
    ctx: ExecutionContext, plan, query: SQuery | MQuery
) -> ExecutionOutcome:
    """The maximum bounding region from the Con-Index, then TBS."""
    outcome, search = bounded_front(ctx, plan, query)
    if search is None:
        return outcome
    with ctx.stage("TBS (ring probe)") as stage:
        tbs = trace_back_search(
            ctx.network, search.estimators, query.prob, search.max_region
        )
        stage.note(passed=len(tbs.region), failed=len(tbs.failed))
    return finish_bounded(outcome, tbs)


def execute_lockstep(engine, members: list) -> list:
    """Run consecutive bounded batch members ``[(plan, query, context)]`` in lock
    step: their front halves in submission order (one ``locate`` for all locations;
    fixed-side page ids recorded, not charged), one :func:`trace_back_search` probing
    all their rings, then one ``get_pages`` per member over its recorded page ids,
    in submission order and in its own accounting window — so every cost but the wall
    time (front half, replay and a ring-rows share of the lock step) equals serial
    execution.  Returns ``(result, regions computed, regions reused)`` per member, up
    to the first whose front half raised: its exception."""
    disk = engine.disk
    starts = members[0][2].st_index().locator.locate(
        [location for _, query, _ in members for location in locations_of(query)]
    )
    # One snapshot and clock reading per window boundary: nothing charges between windows.
    fronts, started, before = [], perf_counter(), disk.snapshot()
    for plan, query, ctx in members:
        regions = ctx.regions_computed, ctx.regions_reused
        own, starts = starts[: len(locations_of(query))], starts[len(locations_of(query)) :]
        charges: list[np.ndarray] = []
        try:
            outcome, search = bounded_front(ctx, plan, query, own, charges)
        except Exception as error:  # the member's own failure: the run ends there
            fronts.append((error, None, charges, None, 0.0, None))
            break
        regions = ctx.regions_computed - regions[0], ctx.regions_reused - regions[1]
        ended, after = perf_counter(), disk.snapshot()
        fronts.append((outcome, search, charges, after - before, ended - started, regions))
        started, before = ended, after
    searches = [search for _, search, *_ in fronts if search is not None]
    traced = iter(trace_back_search(engine.network, searches) if searches else ())
    out: list = []
    started, before = perf_counter(), disk.snapshot()
    for (_, _, ctx), (outcome, search, charges, io, wall_s, regions) in zip(members, fronts):
        if charges:
            ctx.st_index().pool.get_pages(np.concatenate(charges))
        if isinstance(outcome, Exception):
            return [*out, outcome]
        if search is not None:
            outcome, wall_s = finish_bounded(outcome, next(traced)), wall_s + search.wall_s
        ended, after = perf_counter(), disk.snapshot()
        out.append((charge_cost(outcome, io + after - before, wall_s + ended - started), *regions))
        started, before = ended, after
    return out


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
