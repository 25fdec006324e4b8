"""Query planning: from a query to an inspectable :class:`QueryPlan`.

The planner is the routing layer of the query service.  Given a query, an
algorithm name and an index granularity it decides *how* the query will be
executed — which registered executor runs, which bounding-region strategy
feeds trace-back, how many Δt hops the bounding search will take — and
records those decisions in a plain data object.  Everything downstream
(:mod:`~repro.core.executors`, :class:`~repro.core.service.QueryService`,
``EXPLAIN`` rendering) consumes the plan instead of re-deriving the routing
from algorithm strings, so adding an algorithm means registering an
executor, not editing dispatch chains.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.executors import executor_names, has_executor
from repro.core.query import MQuery, SQuery
from repro.trajectory.model import SECONDS_PER_DAY

#: Query kinds the planner routes: single-location, multi-location and
#: reverse ("who can reach this location").
QUERY_KINDS = ("s", "m", "r")


@dataclass(frozen=True)
class QueryPlan:
    """One query's routing decisions, ready for execution or display.

    Attributes:
        kind: ``"s"``, ``"m"`` or ``"r"``.
        algorithm: the algorithm name the user asked for.
        executor: registry key of the executor that will run (usually the
            algorithm name itself).
        delta_t_s: index granularity Δt in seconds.
        bounding_strategy: ``"sqmb"``, ``"mqmb"``, ``"reverse"`` or None
            when the executor verifies without bounds (ES family).
        uses_con_index: whether execution will touch the Connection Index.
        steps: Δt hops the bounding-region search will take (0 for ES).
        start_slot: temporal slot of the query start time ``T``.
        num_locations: query locations (1 for s/r-queries).
        warm: keep buffer pools from previous queries instead of paying
            cold I/O.
    """

    kind: str
    algorithm: str
    executor: str
    delta_t_s: int
    bounding_strategy: str | None
    uses_con_index: bool
    steps: int
    start_slot: int
    num_locations: int
    warm: bool = False

    def describe(self) -> str:
        """One-line routing summary (rendered by ``EXPLAIN``)."""
        bounds = (
            f"bounds={self.bounding_strategy} ({self.steps} Δt hops)"
            if self.bounding_strategy
            else "bounds=none (exhaustive verification)"
        )
        return (
            f"{self.kind}-query -> executor {self.executor!r} | "
            f"Δt={self.delta_t_s}s slot={self.start_slot} | {bounds} | "
            f"{self.num_locations} location(s) | "
            f"{'warm' if self.warm else 'cold'} buffer pools"
        )


#: Routing table: executor name -> (bounding strategy, uses Con-Index).
#: Executors absent from this table verify exhaustively without bounds.
_STRATEGY_OF: dict[str, tuple[str | None, bool]] = {
    "sqmb_tbs": ("sqmb", True),
    "mqmb_tbs": ("mqmb", True),
    "sqmb_tbs_each": ("sqmb", True),
    "es": (None, False),
    "es_pruned": (None, False),
    "es_each": (None, False),
}

_KIND_LABEL = {"s": "s-query", "m": "m-query", "r": "r-query"}


def plan_query(
    kind: str,
    query: SQuery | MQuery,
    algorithm: str,
    delta_t_s: int = 300,
    warm: bool = False,
) -> QueryPlan:
    """Plan one query: validate the algorithm and fix the routing.

    Args:
        kind: ``"s"``, ``"m"`` or ``"r"``.
        query: the query to plan for.
        algorithm: registered executor name for the kind.
        delta_t_s: index granularity Δt in seconds.
        warm: keep buffer pools warm across queries.

    Returns:
        The frozen plan.

    Raises:
        ValueError: unknown kind, unregistered algorithm, or bad Δt.
    """
    if kind not in QUERY_KINDS:
        raise ValueError(f"unknown query kind {kind!r}, want one of {QUERY_KINDS}")
    if not has_executor(kind, algorithm):
        known = ", ".join(executor_names(kind))
        raise ValueError(
            f"unknown {_KIND_LABEL[kind]} algorithm {algorithm!r} "
            f"(registered: {known})"
        )
    if delta_t_s <= 0 or delta_t_s > SECONDS_PER_DAY:
        raise ValueError(f"bad index granularity {delta_t_s}")
    strategy, uses_con = _STRATEGY_OF.get(algorithm, (None, False))
    if kind == "r" and strategy is not None:
        strategy = "reverse"
    locations = (
        len(query.locations) if isinstance(query, MQuery) else 1
    )
    return QueryPlan(
        kind=kind,
        algorithm=algorithm,
        executor=algorithm,
        delta_t_s=delta_t_s,
        bounding_strategy=strategy,
        uses_con_index=uses_con,
        steps=(
            max(1, int(query.duration_s // delta_t_s)) if strategy else 0
        ),
        start_slot=int(
            min(max(0.0, query.start_time_s), SECONDS_PER_DAY - 1) // delta_t_s
        ),
        num_locations=locations,
        warm=warm,
    )
