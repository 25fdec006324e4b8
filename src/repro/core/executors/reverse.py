"""Reverse-reachability executors: who can reach the query location?

The dual the paper's location-based-advertising application needs
(Fig 1.2): backward bounding regions over predecessor expansion, or the
reverse exhaustive baseline.  Both pipelines pick the reverse estimator
and bounds from ``plan.kind``.
"""

from __future__ import annotations

from repro.core.executors import (
    ExecutionContext,
    ExecutionOutcome,
    register_executor,
)
from repro.core.executors.es import execute_exhaustive
from repro.core.executors.sqmb_tbs import execute_bounded
from repro.core.query import SQuery
from repro.core.tbs import trace_back_search  # noqa: F401 - resolved by benchmarks/perf/spans.py


@register_executor("r", "sqmb_tbs")
def execute_reverse_sqmb_tbs(
    ctx: ExecutionContext, plan, query: SQuery
) -> ExecutionOutcome:
    """Reverse bounds (backward Con-Index expansion) + trace-back."""
    return execute_bounded(ctx, plan, query)


@register_executor("r", "es")
def execute_reverse_es(
    ctx: ExecutionContext, plan, query: SQuery
) -> ExecutionOutcome:
    """Reverse ES baseline: verify the whole road network."""
    return execute_exhaustive(ctx, plan, query)
