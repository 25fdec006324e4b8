"""Multi-duration reachability contours (isochrones).

The paper's map figures (4.2, 4.4, 4.6) each show one region at one
duration.  A map product wants the whole family — the 5/10/15/... minute
contours around a location.  :func:`isochrones` computes the family over
one shared candidate set: the maximum bounding region of the *longest*
duration is found once, and each contour is the s-query's own Eq. 3.1
over ``[T, T + duration]`` evaluated on it.

Every contour is evaluated by the engine's
:class:`~repro.core.probability.ProbabilityEstimator`, so it shares the
engine's departure window ``[T, T + min(300 s, duration)]`` — independent
of the index Δt — and a band equals the ``es`` answer to
``SQuery(location, T, duration, prob)`` restricted to the longest
duration's Far cover, at every Δt.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.api.client import ReachabilityClient, as_client
from repro.core.engine import ReachabilityEngine
from repro.core.probability import ProbabilityEstimator
from repro.core.service import QueryService
from repro.core.sqmb import sqmb_bounding_region
from repro.spatial.geometry import Point


@dataclass
class IsochroneBand:
    """One contour: everything reachable within ``duration_s``.

    Attributes:
        duration_s: the travel budget of this band.
        segments: the Prob-reachable segments within the budget
            (cumulative: each band contains the previous ones).
        road_km: total road length of the band.
    """

    duration_s: int
    segments: set[int] = field(default_factory=set)
    road_km: float = 0.0


def isochrones(
    engine: ReachabilityClient | ReachabilityEngine | QueryService,
    location: Point,
    start_time_s: float,
    durations_s: list[int],
    prob: float = 0.2,
    delta_t_s: int = 300,
) -> list[IsochroneBand]:
    """Compute nested Prob-reachable contours for several durations.

    One maximum bounding region (for the longest duration) is traced; each
    requested duration keeps the segments of it whose Eq. 3.1 probability
    over ``[T, T + duration]`` meets ``prob``.  Windows nest, so bands do.

    Args:
        engine: a built reachability engine, service or client.
        location: contour centre.
        start_time_s: ``T``.
        durations_s: travel budgets (seconds), in any order.
        prob: confidence threshold.
        delta_t_s: index granularity.

    Returns:
        One band per requested duration, ascending, cumulative.
    """
    if not durations_s:
        return []
    ordered = sorted(durations_s)
    engine = as_client(engine).engine
    st = engine.st_index(delta_t_s)
    network = engine.network
    start_segment = st.find_start_segment(location)
    max_region = sqmb_bounding_region(
        engine.con_index(delta_t_s), start_segment, start_time_s, ordered[-1], "far"
    )
    candidates = sorted(max_region.cover)
    bands: list[IsochroneBand] = []
    for duration in ordered:
        estimator = ProbabilityEstimator(
            st, start_segment, start_time_s, duration, engine.database.num_days
        )
        segments = {
            segment_id
            for segment_id, probability in zip(
                candidates, estimator.probabilities(candidates)
            )
            if probability >= prob
        }
        bands.append(
            IsochroneBand(
                duration_s=duration,
                segments=segments,
                road_km=network.road_length_m(segments) / 1000.0,
            )
        )
    return bands
