"""The paper's m-query method: MQMB unified bounds + trace-back search."""

from __future__ import annotations

from repro.core.executors import (
    ExecutionContext,
    ExecutionOutcome,
    register_executor,
)
from repro.core.executors.sqmb_tbs import execute_bounded
from repro.core.query import MQuery
from repro.core.tbs import trace_back_search  # noqa: F401 - resolved by benchmarks/perf/spans.py


@register_executor("m", "mqmb_tbs")
def execute_mqmb_tbs(
    ctx: ExecutionContext, plan, query: MQuery
) -> ExecutionOutcome:
    """Algorithm 3 + trace-back over the unified bounding regions."""
    return execute_bounded(ctx, plan, query)
