"""Parameter sweeps regenerating every figure of Chapter 4.

Each ``run_*`` function executes one figure's sweep and returns a list of
:class:`SweepPoint` rows carrying both evaluation metrics (running time,
reachable road length) for each algorithm at each x-axis value.  The
benchmark modules print these rows as the paper-style series and feed
representative queries to pytest-benchmark.

All sweeps go through the :class:`~repro.api.ReachabilityClient`
request/response path; each function accepts a client, a service or a
bare engine (adapted on the fly), and every sweep point is measured with
cold buffer pools *and* fresh bounding regions
(``reuse_regions=False``), matching the paper's per-query running-time
protocol — the service-lifetime region cache would otherwise hide the
Con-Index expansion cost of repeated same-shape sweep points.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.api.client import ReachabilityClient, as_client
from repro.api.envelope import QueryOptions, Request
from repro.core.engine import ReachabilityEngine
from repro.core.query import MQuery, SQuery
from repro.core.service import QueryService
from repro.eval.metrics import region_road_length_km
from repro.spatial.geometry import Point


@dataclass
class SweepPoint:
    """One (x, algorithm) cell of a figure.

    Attributes:
        x: the x-axis value (minutes, probability, seconds-of-day, count).
        algorithm: which algorithm produced the numbers.
        running_time_ms: the headline running-time metric (wall + simulated
            I/O), cf. §4.1.
        wall_ms / io_ms: its components.
        road_length_km: total length of the Prob-reachable result.
        region_segments: result size in segments.
        probability_checks: trajectory verifications performed.
        label: extra curve discriminator (e.g. "Δt=5min" or "L=10min").
    """

    x: float
    algorithm: str
    running_time_ms: float
    wall_ms: float
    io_ms: float
    road_length_km: float
    region_segments: int
    probability_checks: int
    label: str = ""


def _measure(
    target: ReachabilityClient | QueryService | ReachabilityEngine,
    query: SQuery | MQuery,
    algorithm: str,
    delta_t_s: int,
    x: float,
    label: str = "",
) -> SweepPoint:
    client = as_client(target)
    response = client.send(
        Request(
            query,
            QueryOptions(
                algorithm=algorithm, delta_t_s=delta_t_s,
                # The paper's protocol: every point pays its own
                # bounding-region expansion.
                reuse_regions=False,
            ),
        )
    )
    result = response.result
    return SweepPoint(
        x=x,
        algorithm=algorithm,
        running_time_ms=result.cost.total_cost_ms,
        wall_ms=result.cost.wall_time_s * 1e3,
        io_ms=result.cost.simulated_io_ms,
        road_length_km=region_road_length_km(result, client.network),
        region_segments=len(result.segments),
        probability_checks=result.cost.probability_checks,
        label=label,
    )


_measure_s = _measure
_measure_m = _measure


def run_duration_sweep(
    engine: ReachabilityClient | ReachabilityEngine | QueryService,
    location: Point,
    durations_s: tuple[int, ...],
    start_time_s: float,
    prob: float,
    delta_ts: tuple[int, ...] = (300, 600),
    include_es: bool = True,
) -> list[SweepPoint]:
    """Fig 4.1: running time and road length as duration L grows."""
    points: list[SweepPoint] = []
    for duration_s in durations_s:
        minutes = duration_s / 60.0
        for delta_t in delta_ts:
            query = SQuery(location, start_time_s, duration_s, prob)
            points.append(
                _measure_s(
                    engine, query, "sqmb_tbs", delta_t, minutes,
                    label=f"Δt={delta_t // 60}min",
                )
            )
        if include_es:
            query = SQuery(location, start_time_s, duration_s, prob)
            points.append(
                _measure_s(engine, query, "es", delta_ts[0], minutes, label="ES")
            )
    return points


def run_probability_sweep(
    engine: ReachabilityClient | ReachabilityEngine | QueryService,
    location: Point,
    probabilities: tuple[float, ...],
    start_time_s: float,
    durations_s: tuple[int, ...] = (600, 900),
    delta_t_s: int = 300,
    include_es: bool = True,
) -> list[SweepPoint]:
    """Fig 4.3: effect of the query probability Prob."""
    points: list[SweepPoint] = []
    for prob in probabilities:
        for duration_s in durations_s:
            query = SQuery(location, start_time_s, duration_s, prob)
            points.append(
                _measure_s(
                    engine, query, "sqmb_tbs", delta_t_s, prob * 100,
                    label=f"L={duration_s // 60}min",
                )
            )
        if include_es:
            query = SQuery(location, start_time_s, durations_s[0], prob)
            points.append(
                _measure_s(engine, query, "es", delta_t_s, prob * 100, label="ES")
            )
    return points


def run_start_time_sweep(
    engine: ReachabilityClient | ReachabilityEngine | QueryService,
    location: Point,
    start_times_s: tuple[int, ...],
    durations_s: tuple[int, ...] = (300, 600),
    prob: float = 0.8,
    delta_t_s: int = 300,
) -> list[SweepPoint]:
    """Fig 4.5: effect of the start time T over the day (rush-hour dips)."""
    points: list[SweepPoint] = []
    for start_time_s in start_times_s:
        for duration_s in durations_s:
            query = SQuery(location, start_time_s, duration_s, prob)
            points.append(
                _measure_s(
                    engine, query, "sqmb_tbs", delta_t_s, start_time_s,
                    label=f"L={duration_s // 60}min",
                )
            )
    return points


def run_interval_sweep(
    engine: ReachabilityClient | ReachabilityEngine | QueryService,
    location: Point,
    intervals_s: tuple[int, ...],
    start_time_s: float,
    durations_s: tuple[int, ...] = (300, 600),
    prob: float = 0.2,
    include_es: bool = True,
) -> list[SweepPoint]:
    """Fig 4.7: effect of the index granularity Δt."""
    points: list[SweepPoint] = []
    for delta_t_s in intervals_s:
        minutes = delta_t_s / 60.0
        for duration_s in durations_s:
            query = SQuery(location, start_time_s, duration_s, prob)
            points.append(
                _measure_s(
                    engine, query, "sqmb_tbs", delta_t_s, minutes,
                    label=f"L={duration_s // 60}min",
                )
            )
        if include_es:
            query = SQuery(location, start_time_s, durations_s[0], prob)
            points.append(
                _measure_s(engine, query, "es", delta_t_s, minutes, label="ES")
            )
    return points


def run_mquery_duration_sweep(
    engine: ReachabilityClient | ReachabilityEngine | QueryService,
    locations: tuple[Point, ...],
    durations_s: tuple[int, ...],
    start_time_s: float,
    prob: float = 0.2,
    delta_t_s: int = 300,
) -> list[SweepPoint]:
    """Fig 4.8(a): m-query vs repeated s-query over duration."""
    points: list[SweepPoint] = []
    for duration_s in durations_s:
        minutes = duration_s / 60.0
        query = MQuery(locations, start_time_s, duration_s, prob)
        points.append(
            _measure_m(engine, query, "mqmb_tbs", delta_t_s, minutes, "m-query")
        )
        points.append(
            _measure_m(
                engine, query, "sqmb_tbs_each", delta_t_s, minutes, "s-query"
            )
        )
    return points


def run_location_count_sweep(
    engine: ReachabilityClient | ReachabilityEngine | QueryService,
    locations: tuple[Point, ...],
    counts: tuple[int, ...],
    start_time_s: float,
    duration_s: int = 1200,
    prob: float = 0.2,
    delta_t_s: int = 300,
) -> list[SweepPoint]:
    """Fig 4.8(b): m-query vs repeated s-query over #locations."""
    points: list[SweepPoint] = []
    for count in counts:
        subset = tuple(locations[:count])
        query = MQuery(subset, start_time_s, duration_s, prob)
        points.append(
            _measure_m(engine, query, "mqmb_tbs", delta_t_s, count, "m-query")
        )
        points.append(
            _measure_m(
                engine, query, "sqmb_tbs_each", delta_t_s, count, "s-query"
            )
        )
    return points
