"""The frozen request/response envelopes of the client API.

One query used to travel through the system as a loose bundle of kwargs
(``algorithm=``, ``delta_t_s=``, ``kind=``, ``warm=``) repeated across
``QueryService``, the engine facade, the CLI and every app — and a batch
could not even express per-query intent, because ``kind`` and
``algorithm`` were batch-global.  The envelope fixes the shape once:

* :class:`QueryOptions` — everything about *how* to answer a query
  (direction, algorithm incl. ``"auto"``, Δt, cache policy, a tag for
  correlation, an optional cost budget);
* :class:`Request` — a query plus its options, the one unit every client
  entry point (``send`` / ``stream`` / ``run_batch``) accepts;
* :class:`Response` — the result plus the plan that ran, the
  :class:`~repro.api.router.RouteDecision` that chose it, and per-query
  cost/cache metrics.

Requests are frozen and hashable, so they can key caches and cross
thread boundaries safely.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.core.query import MQuery, QueryCost, QueryResult, SQuery
from repro.core.slots import check_delta_t

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.api.router import RouteDecision
    from repro.core.planner import QueryPlan

#: Query directions: ``forward`` ("where can I reach from S?") and
#: ``reverse`` ("from where can S be reached?", Fig 1.2).
DIRECTIONS = ("forward", "reverse")

#: The algorithm name that asks the router to choose (the default).
AUTO = "auto"


@dataclass(frozen=True)
class QueryOptions:
    """Per-request execution intent.

    Attributes:
        direction: ``"forward"`` or ``"reverse"`` (reverse asks who can
            reach the query location; single-location queries only).
        algorithm: a registered executor name, or ``"auto"`` (default) to
            let the :class:`~repro.api.router.Router` pick the cheapest
            correct route for the request's shape.
        delta_t_s: index granularity Δt, or None for the client default.
        warm: keep buffer pools from previous queries instead of paying
            cold I/O (ignored inside batches, which manage warmth at the
            batch level).
        reuse_regions: serve bounding regions from the service-lifetime
            cache when an identically-shaped query already computed them.
            Disable to reproduce the paper's cold per-query protocol.
        tag: opaque correlation id echoed on the response (multi-tenant
            streams use it to match responses to submitters).
        cost_budget_ms: advisory cost ceiling; the router avoids
            unbounded exhaustive routes when set, and the response
            reports whether the actual cost stayed within it.
    """

    direction: str = "forward"
    algorithm: str = AUTO
    delta_t_s: int | None = None
    warm: bool = False
    reuse_regions: bool = True
    tag: str = ""
    cost_budget_ms: float | None = None

    def __post_init__(self) -> None:
        if self.direction not in DIRECTIONS:
            raise ValueError(
                f"unknown direction {self.direction!r}, want one of {DIRECTIONS}"
            )
        if self.delta_t_s is not None:
            check_delta_t(self.delta_t_s)
        if self.cost_budget_ms is not None and self.cost_budget_ms <= 0:
            raise ValueError(f"bad cost budget {self.cost_budget_ms}")


@dataclass(frozen=True)
class Request:
    """One query plus how to answer it — the client API's unit of work.

    Attributes:
        query: an :class:`~repro.core.query.SQuery` or
            :class:`~repro.core.query.MQuery`.
        options: the execution intent; defaults to auto-routed forward
            execution at the client's Δt.
    """

    query: SQuery | MQuery
    options: QueryOptions = field(default_factory=QueryOptions)

    def __post_init__(self) -> None:
        if not isinstance(self.query, (SQuery, MQuery)):
            raise TypeError(f"not a query: {self.query!r}")
        if self.options.direction == "reverse" and isinstance(self.query, MQuery):
            raise ValueError("reverse queries take a single location")

    @property
    def kind(self) -> str:
        """The planner kind the request resolves to (``s``/``m``/``r``)."""
        if self.options.direction == "reverse":
            return "r"
        return "m" if isinstance(self.query, MQuery) else "s"

    @property
    def tag(self) -> str:
        return self.options.tag


def as_request(request: Request | SQuery | MQuery) -> Request:
    """Wrap a bare query in a default (auto-routed, forward) envelope."""
    if isinstance(request, Request):
        return request
    return Request(query=request)


@dataclass
class Response:
    """What comes back for one :class:`Request`.

    Attributes:
        request: the request this answers (its tag, options, query).
        result: the Prob-reachable region plus per-query cost metrics.
        plan: the frozen :class:`~repro.core.planner.QueryPlan` that ran.
        route: the routing decision that chose the plan (inspectable:
            rule, reason, classified features).
        sequence: submission index within a ``stream``/``run_batch``
            pipeline (0 for single sends).
        regions_computed: bounding regions this query expanded itself.
        regions_reused: bounding regions served from the shared cache.
            Both counters are exact for single sends and pipelines.
    """

    request: Request
    result: QueryResult
    plan: "QueryPlan"
    route: "RouteDecision"
    sequence: int = 0
    regions_computed: int = 0
    regions_reused: int = 0

    @property
    def segments(self) -> set[int]:
        return self.result.segments

    @property
    def cost(self) -> QueryCost:
        return self.result.cost

    @property
    def tag(self) -> str:
        return self.request.tag

    @property
    def within_budget(self) -> bool | None:
        """Whether the cost met the request's budget (None if unbudgeted)."""
        budget = self.request.options.cost_budget_ms
        if budget is None:
            return None
        return self.result.cost.total_cost_ms <= budget

    def describe(self) -> str:
        """One progress line (the CLI's streaming batch output)."""
        tag = f" tag={self.tag}" if self.tag else ""
        budget = ""
        if self.within_budget is not None:
            budget = " within-budget" if self.within_budget else " OVER-BUDGET"
        return (
            f"#{self.sequence}{tag} {self.request.options.direction}"
            f" {self.plan.kind}/{self.plan.algorithm}"
            f" -> {len(self.result.segments)} segments in"
            f" {self.result.cost.total_cost_ms:.0f} ms{budget}"
        )
