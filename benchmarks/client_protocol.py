"""The paper's measurement protocol over the client API, for benchmarks and tests.

The figure benchmarks and the test suite both measure the paper's cold
one-call-per-query protocol.  These helpers issue it through
:class:`repro.api.ReachabilityClient` — the only way to ask a question —
with explicit algorithms (a measurement must pin what it measures: no
auto-routing; the default is the paper's method for the query's type) and
``reuse_regions=False`` so repeated sweep points pay their own
bounding-region work.  ``client`` may be a client, a
:class:`~repro.core.service.QueryService` or a bare engine.
"""

from __future__ import annotations

from repro.api import QueryOptions, Request, as_client
from repro.core.query import MQuery

__all__ = ["m_query", "r_query", "request", "run_batch", "s_query"]


def request(
    query, algorithm=None, delta_t_s=None, warm=False, direction="forward"
):
    """``query`` in an envelope that pins the algorithm and shares no regions."""
    if algorithm is None:
        algorithm = "mqmb_tbs" if isinstance(query, MQuery) else "sqmb_tbs"
    return Request(
        query,
        QueryOptions(
            direction=direction,
            algorithm=algorithm,
            delta_t_s=delta_t_s,
            warm=warm,
            reuse_regions=False,
        ),
    )


def s_query(client, query, algorithm=None, delta_t_s=None, warm=False):
    """One forward query, cold by default (the paper's protocol)."""
    return as_client(client).send(request(query, algorithm, delta_t_s, warm)).result


m_query = s_query


def r_query(client, query, algorithm=None, delta_t_s=None, warm=False):
    """One reverse (who-can-reach-me) query, cold by default."""
    return (
        as_client(client)
        .send(request(query, algorithm, delta_t_s, warm, direction="reverse"))
        .result
    )


def run_batch(client, queries, warm=False, **options):
    """Bare queries as one batch with pinned algorithms (``options`` as
    :func:`request`); members share warm pools and the region cache."""
    return as_client(client).run_batch(
        [request(query, **options) for query in queries], warm=warm
    )
