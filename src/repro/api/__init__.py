"""The stable public API: request/response client with adaptive routing.

This package is the single front door to the query system.  Callers
build a frozen :class:`Request` (query + :class:`QueryOptions`: direction,
algorithm incl. ``"auto"``, Δt, warmth, tag, cost budget), hand it to a
:class:`ReachabilityClient`, and get a :class:`Response` back (result +
plan + per-query cost + the :class:`RouteDecision` that picked the
execution route).  Batches are streams: ``client.stream(requests)``
yields responses as they complete over a bounded-window worker pool, and
``client.run_batch`` aggregates the same pipeline into a
:class:`~repro.core.service.BatchReport`.

Quickstart::

    from repro.api import QueryOptions, ReachabilityClient, Request

    client = ReachabilityClient(engine)
    response = client.send(Request(query))          # auto-routed
    print(response.route.describe(), len(response.segments))

    requests = [
        Request(q, QueryOptions(direction="reverse", tag="ads")),
        Request(m_query),                            # auto -> MQMB+TBS
    ]
    for response in client.stream(requests, max_workers=4):
        print(response.describe())
"""

from repro.api.client import BatchStream, ReachabilityClient, as_client
from repro.api.envelope import AUTO, QueryOptions, Request, Response
from repro.api.router import (
    ROUTING_TABLE,
    RouteDecision,
    Router,
    RouterConfig,
)

__all__ = [
    "AUTO",
    "BatchStream",
    "QueryOptions",
    "ROUTING_TABLE",
    "ReachabilityClient",
    "Request",
    "Response",
    "RouteDecision",
    "Router",
    "RouterConfig",
    "as_client",
]
