"""Historical arrival-time profiles between two locations.

The same time lists that answer reachability queries also contain *when*
reachability happened: for each day, the earliest Δt-window in which some
trajectory that left the origin in the departure window shows up at the
destination.  :func:`arrival_profile` extracts that per-day distribution
and summarises it into the numbers a dispatcher or navigation feature
wants: how many minutes until the destination is reachable on a typical /
bad day, and on what fraction of days it is reachable at all.

Each window is the engine's own Eq. 3.1 (``m*`` read as a set of days
from a :class:`~repro.core.probability.ProbabilityEstimator`), so the
profile shares the engine's departure window ``[T, T + min(300 s, L)]`` —
independent of the index Δt — and its ``reachability`` is the Eq. 3.1
probability at the horizon.  The time lists do store a visit second per
id, but the profile probes whole Δt windows, so estimates are upper
bounds rounded up to whole slots.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro.api.client import ReachabilityClient, as_client
from repro.core.engine import ReachabilityEngine
from repro.core.probability import ProbabilityEstimator
from repro.core.service import QueryService
from repro.spatial.geometry import Point


@dataclass
class ArrivalProfile:
    """Per-day earliest arrival estimates between two locations.

    Attributes:
        origin_segment / target_segment: resolved road segments.
        horizon_s: search horizon (arrival beyond it counts as a miss).
        per_day_s: day -> earliest arrival bound in seconds (slot-rounded);
            days with no connecting trajectory are absent.
        reachable_days / total_days: support counts.
    """

    origin_segment: int
    target_segment: int
    horizon_s: int
    per_day_s: dict[int, int] = field(default_factory=dict)
    reachable_days: int = 0
    total_days: int = 0

    @property
    def reachability(self) -> float:
        """Fraction of days with any connection within the horizon."""
        return self.reachable_days / self.total_days if self.total_days else 0.0

    def percentile_s(self, fraction: float) -> int | None:
        """Arrival-time bound at the given percentile over *reachable* days.

        Args:
            fraction: e.g. ``0.5`` for the median day, ``0.9`` for a bad day.

        Returns:
            Seconds, or None when no day connects.
        """
        if not 0 < fraction <= 1:
            raise ValueError(f"fraction must be in (0, 1], got {fraction}")
        values = sorted(self.per_day_s.values())
        if not values:
            return None
        index = min(len(values) - 1, math.ceil(fraction * len(values)) - 1)
        return values[index]


def arrival_profile(
    engine: ReachabilityClient | ReachabilityEngine | QueryService,
    origin: Point,
    target: Point,
    start_time_s: float,
    horizon_s: int = 3600,
    delta_t_s: int = 300,
) -> ArrivalProfile:
    """Per-day earliest-arrival distribution from ``origin`` to ``target``.

    For each day, finds the smallest ``k`` such that a trajectory that
    passed the origin road during the departure window also passed the
    target road within ``[T, T+k·Δt]`` (the last window stops at the
    horizon); the bound reported is ``k·Δt``.

    Args:
        engine: a built reachability engine, service or client.
        origin / target: the two locations.
        start_time_s: departure time ``T``.
        horizon_s: give up after this long.
        delta_t_s: index granularity (also the estimate resolution).
    """
    engine = as_client(engine).engine
    st = engine.st_index(delta_t_s)
    origin_segment = st.find_start_segment(origin)
    target_segment = st.find_start_segment(target)
    profile = ArrivalProfile(
        origin_segment=origin_segment,
        target_segment=target_segment,
        horizon_s=horizon_s,
        total_days=engine.database.num_days,
    )
    steps = -(-horizon_s // delta_t_s)  # ceil
    for k in range(1, steps + 1):
        estimator = ProbabilityEstimator(
            st,
            origin_segment,
            start_time_s,
            min(k * delta_t_s, horizon_s),
            profile.total_days,
        )
        for date in estimator.reached_days(target_segment):
            profile.per_day_s.setdefault(date, k * delta_t_s)
    profile.reachable_days = len(profile.per_day_s)
    return profile
