"""Business coverage analysis (§1.1, application 3).

"A chained company, such as UPS and McDonald's, can find their overall
business spatial coverage of their branches."

:func:`analyze_coverage` runs one m-query over all branch locations and
reports: total covered road length, the coverage fraction of the city, and
each branch's *marginal contribution* (how much coverage would be lost if
that branch closed) — the figure a planner looks at before opening or
consolidating branches.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.api.client import ReachabilityClient, as_client
from repro.api.envelope import QueryOptions, Request
from repro.core.engine import ReachabilityEngine
from repro.core.query import MQuery
from repro.core.service import QueryService
from repro.spatial.geometry import Point


@dataclass
class BranchCoverage:
    """Per-branch coverage attribution.

    Attributes:
        location: branch location.
        own_segments: size of the branch's own Prob-reachable region.
        exclusive_segments: segments only this branch covers.
        marginal_road_km: road length lost if the branch closed.
    """

    location: Point
    own_segments: int = 0
    exclusive_segments: int = 0
    marginal_road_km: float = 0.0


@dataclass
class CoverageReport:
    """Combined chain coverage.

    Attributes:
        segments: the union Prob-reachable segment set.
        road_km: total covered road length.
        coverage_fraction: covered road length / total network road length.
        branches: per-branch attribution, in input order.
    """

    segments: set[int] = field(default_factory=set)
    road_km: float = 0.0
    coverage_fraction: float = 0.0
    branches: list[BranchCoverage] = field(default_factory=list)


def analyze_coverage(
    engine: ReachabilityClient | ReachabilityEngine | QueryService,
    branches: list[Point],
    start_time_s: float,
    duration_s: float,
    prob: float = 0.2,
    delta_t_s: int = 300,
) -> CoverageReport:
    """Compute chain-wide coverage and per-branch marginal contributions.

    Runs the union m-query and the per-branch attribution s-queries as one
    auto-routed client batch: the s-queries share warm buffer pools and
    deduplicated bounding regions with each other, so the whole analysis
    costs little more than the m-query itself.

    Args:
        engine: a built reachability engine, service or client.
        branches: branch locations.
        start_time_s / duration_s / prob: query parameters (e.g. "reachable
            within 15 minutes on 20% of days at 10:00").
        delta_t_s: index granularity.
    """
    if not branches:
        raise ValueError("coverage analysis needs at least one branch")
    client = as_client(engine)
    network = client.network
    union_query = MQuery(
        locations=tuple(branches),
        start_time_s=start_time_s,
        duration_s=duration_s,
        prob=prob,
    )
    options = QueryOptions(delta_t_s=delta_t_s)
    batch = client.run_batch(
        [
            Request(union_query, options),
            *(Request(q, options) for q in union_query.as_s_queries()),
        ]
    )
    combined, per_branch = batch.results[0], batch.results[1:]
    report = CoverageReport(segments=set(combined.segments))
    report.road_km = network.road_length_m(report.segments) / 1000.0
    total_km = network.total_length() / 1000.0
    report.coverage_fraction = report.road_km / total_km if total_km else 0.0
    for index, (location, result) in enumerate(zip(branches, per_branch)):
        others: set[int] = set()
        for other_index, other in enumerate(per_branch):
            if other_index != index:
                others |= other.segments
        exclusive = result.segments - others
        report.branches.append(
            BranchCoverage(
                location=location,
                own_segments=len(result.segments),
                exclusive_segments=len(exclusive),
                marginal_road_km=network.road_length_m(exclusive) / 1000.0,
            )
        )
    return report
