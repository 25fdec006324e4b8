"""Synthetic taxi-fleet trajectory generator.

Stand-in for the Shenzhen dataset (Table 4.1): a fleet of taxis, each
producing *one trajectory per day* (§3.1), driving purposeful trips through
the road network.  Two movement models:

* ``"trips"`` (default) — each taxi repeatedly picks a destination (biased
  toward the city centre, where real taxi demand concentrates) and follows
  the shortest-time route there, with short idle gaps between trips.
  Purposeful routing is what makes historical reach *ballistic* — a taxi
  passing a segment keeps going outward — which is the geometric property
  the Con-Index's Far bounds rely on.
* ``"walk"`` — a speed-weighted random walk; cheaper, diffusive reach; kept
  for unit tests and ablations.

Speeds come from the time-of-day
:class:`~repro.trajectory.speed_profile.SpeedProfile` (rush-hour dips), with
two noise components: tight lognormal jitter, and an occasional *slow
traversal* (traffic light, passenger pickup).  The slow tail is what keeps
the minimum observed speeds far below the typical speeds, exactly as in
real traffic.

The generator can emit both ground-truth matched trajectories (consumed
directly by index construction) and raw ~30-second GPS samples (used to
exercise the §3.1 map-matching pipeline).
"""

from __future__ import annotations

import bisect
import math
import random
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from repro.network.model import RoadLevel, RoadNetwork
from repro.spatial.geometry import interpolate_along
from repro.trajectory.model import (
    SECONDS_PER_DAY,
    GPSPoint,
    MatchedTrajectory,
    RawTrajectory,
    SegmentVisit,
    make_trajectory_id,
)
from repro.trajectory.speed_profile import SpeedProfile


@dataclass
class FleetConfig:
    """Knobs for the synthetic fleet.

    Attributes:
        num_taxis: taxis in the fleet (21,385 in the paper; far fewer here).
        num_days: days of data (30 in the paper).
        seed: master RNG seed; everything downstream is deterministic.
        mode: ``"trips"`` (shortest-path trips) or ``"walk"`` (random walk).
        gps_interval_s: raw GPS sampling period (~30 s in the paper).
        day_start_s / day_end_s: active window of each taxi-day; narrowing
            it bounds generation cost for tests.
        primary_preference: walk mode only — junction preference for
            primary roads (1.0 = indifferent).
        center_bias: walk mode — preference for turns toward downtown;
            trips mode — strength of the centre bias in origin/destination
            sampling (larger = more concentrated downtown).
        idle_mean_s: trips mode — mean idle gap between trips.
        dest_uniform_mix: trips mode — fraction of destinations drawn
            uniformly (so the periphery still sees traffic).
        taxi_speed_sigma: per-taxi persistent speed factor (driver style).
        slow_prob: probability a traversal is a slow one (light/pickup).
        slow_range: multiplicative speed factor range for slow traversals.
    """

    num_taxis: int = 40
    num_days: int = 30
    seed: int = 42
    mode: str = "trips"
    gps_interval_s: float = 30.0
    day_start_s: float = 0.0
    day_end_s: float = float(SECONDS_PER_DAY)
    primary_preference: float = 3.0
    center_bias: float = 2.5
    idle_mean_s: float = 180.0
    dest_uniform_mix: float = 0.25
    taxi_speed_sigma: float = 0.05
    slow_prob: float = 0.08
    slow_range: tuple[float, float] = (0.2, 0.45)

    def __post_init__(self) -> None:
        if self.num_taxis <= 0 or self.num_days <= 0:
            raise ValueError("fleet needs >= 1 taxi and >= 1 day")
        if not 0 <= self.day_start_s < self.day_end_s <= SECONDS_PER_DAY:
            raise ValueError(
                f"bad active window [{self.day_start_s}, {self.day_end_s}]"
            )
        if self.mode not in ("trips", "walk"):
            raise ValueError(f"unknown fleet mode {self.mode!r}")
        if not 0 <= self.slow_prob < 1:
            raise ValueError(f"slow_prob must be in [0, 1), got {self.slow_prob}")


class TaxiFleetGenerator:
    """Generates matched (and optionally raw) taxi trajectories.

    Args:
        network: the (re-segmented) road network to drive on.
        profile: time-of-day speed model.
        config: fleet parameters.
    """

    def __init__(
        self,
        network: RoadNetwork,
        profile: SpeedProfile | None = None,
        config: FleetConfig | None = None,
    ) -> None:
        self.network = network
        self.profile = profile if profile is not None else SpeedProfile()
        self.config = config if config is not None else FleetConfig()
        self._segment_ids = sorted(network.segment_ids())
        if not self._segment_ids:
            raise ValueError("cannot generate trajectories on an empty network")
        self._index_of = {sid: i for i, sid in enumerate(self._segment_ids)}
        self._successors: dict[int, list[int]] = {
            sid: network.successors(sid) for sid in self._segment_ids
        }
        self._length: dict[int, float] = {
            sid: network.segment(sid).length for sid in self._segment_ids
        }
        self._level: dict[int, RoadLevel] = {
            sid: network.segment(sid).level for sid in self._segment_ids
        }
        self._free_flow: dict[int, float] = {
            sid: self.profile.free_flow_mps[self._level[sid]]
            for sid in self._segment_ids
        }
        # Per-minute congestion table; the analytic profile is smooth at
        # that resolution and table lookups keep the hot loop cheap.
        self._factor_table = [
            self.profile.congestion_factor(minute * 60.0) for minute in range(1441)
        ]
        if self.config.mode == "trips":
            self._prepare_trips()
        else:
            self._prepare_walk()

    # -- public API -------------------------------------------------------

    def generate_matched(self) -> Iterator[MatchedTrajectory]:
        """Yield one matched trajectory per taxi-day, deterministic order."""
        for date in range(self.config.num_days):
            for taxi_id in range(self.config.num_taxis):
                yield self._one_day(taxi_id, date)

    def generate_raw(self) -> Iterator[tuple[RawTrajectory, MatchedTrajectory]]:
        """Yield (raw GPS, ground-truth matched) pairs per taxi-day."""
        for date in range(self.config.num_days):
            for taxi_id in range(self.config.num_taxis):
                matched = self._one_day(taxi_id, date)
                yield self._sample_gps(matched), matched

    def generate_into(self, database) -> None:
        """Fast path: stream the whole fleet into a TrajectoryDatabase."""
        for date in range(self.config.num_days):
            for taxi_id in range(self.config.num_taxis):
                segs, times, speeds = self._one_day_lists(taxi_id, date)
                database.add_arrays(
                    trajectory_id=make_trajectory_id(
                        taxi_id, date, self.config.num_taxis
                    ),
                    taxi_id=taxi_id,
                    date=date,
                    segments=segs,
                    times=times,
                    speeds=speeds,
                )
        database.finalize()

    # -- preparation ---------------------------------------------------------

    def _prepare_trips(self) -> None:
        """All-pairs shortest routes + centre-biased endpoint sampling."""
        from scipy.sparse import csr_matrix
        from scipy.sparse.csgraph import dijkstra

        n = len(self._segment_ids)
        rows, cols, weights = [], [], []
        for sid, succs in self._successors.items():
            i = self._index_of[sid]
            for succ in succs:
                rows.append(i)
                cols.append(self._index_of[succ])
                weights.append(self._length[succ] / self._free_flow[succ])
        graph = csr_matrix((weights, (rows, cols)), shape=(n, n))
        dist, predecessors = dijkstra(graph, return_predecessors=True)
        self._trip_dist = dist
        self._predecessors = predecessors.astype(np.int32)
        # Centre-biased endpoint distribution (mixture with uniform).
        center = self.network.bounds().center
        bounds = self.network.bounds()
        scale = max(bounds.width, bounds.height) / 5.0
        raw_weights = []
        for sid in self._segment_ids:
            d = self.network.segment(sid).midpoint.distance_to(center)
            biased = math.exp(-d / scale) ** math.log1p(self.config.center_bias)
            raw_weights.append(
                self.config.dest_uniform_mix
                + (1.0 - self.config.dest_uniform_mix) * biased
            )
        cumulative = []
        total = 0.0
        for w in raw_weights:
            total += w
            cumulative.append(total)
        self._endpoint_cdf = [c / total for c in cumulative]

    def _prepare_walk(self) -> None:
        center = self.network.bounds().center
        center_dist = {
            sid: self.network.segment(sid).midpoint.distance_to(center)
            for sid in self._segment_ids
        }
        bias = self.config.center_bias

        def turn_weight(from_id: int, to_id: int) -> float:
            weight = (
                self.config.primary_preference
                if self._level[to_id] == RoadLevel.PRIMARY
                else 1.0
            )
            if bias != 1.0:
                if center_dist[to_id] < center_dist[from_id]:
                    weight *= bias
                else:
                    weight /= bias
            return weight

        self._walk_weights: dict[int, list[float]] = {
            sid: [turn_weight(sid, succ) for succ in succs]
            for sid, succs in self._successors.items()
        }

    # -- internals ---------------------------------------------------------

    def _rng_for(self, taxi_id: int, date: int) -> random.Random:
        return random.Random(f"{self.config.seed}:{taxi_id}:{date}")

    def _taxi_style(self, taxi_id: int) -> float:
        """Persistent per-driver speed multiplier."""
        rng = random.Random(f"{self.config.seed}:style:{taxi_id}")
        return max(0.7, rng.gauss(1.0, self.config.taxi_speed_sigma))

    def _sample_endpoint(self, rng: random.Random) -> int:
        index = bisect.bisect_left(self._endpoint_cdf, rng.random())
        if index >= len(self._segment_ids):
            index = len(self._segment_ids) - 1
        return index  # dense index, not segment id

    def _route(self, src_index: int, dst_index: int) -> list[int] | None:
        """Segment-id route from src to dst via the predecessor matrix."""
        if not np.isfinite(self._trip_dist[src_index, dst_index]):
            return None
        path_indices = [dst_index]
        predecessors = self._predecessors
        node = dst_index
        while node != src_index:
            node = int(predecessors[src_index, node])
            if node < 0:
                return None
            path_indices.append(node)
        path_indices.reverse()
        ids = self._segment_ids
        return [ids[i] for i in path_indices]

    def _sample_speed(
        self, segment: int, time_now: float, style: float, rng: random.Random
    ) -> float:
        minute = int(time_now // 60.0)
        if minute > 1440:
            minute = 1440
        base = self._free_flow[segment] * self._factor_table[minute] * style
        if rng.random() < self.config.slow_prob:
            lo, hi = self.config.slow_range
            speed = base * rng.uniform(lo, hi)
        else:
            z = rng.gauss(0.0, self.profile.noise_sigma)
            if z > 1.0:
                z = 1.0
            elif z < -1.0:
                z = -1.0
            speed = base * math.exp(z)
        return speed if speed > 0.5 else 0.5

    def _one_day_lists(
        self, taxi_id: int, date: int
    ) -> tuple[list[int], list[float], list[float]]:
        if self.config.mode == "trips":
            return self._one_day_trips(taxi_id, date)
        return self._one_day_walk(taxi_id, date)

    def _one_day_trips(
        self, taxi_id: int, date: int
    ) -> tuple[list[int], list[float], list[float]]:
        """One taxi-day of shortest-path trips with idle gaps."""
        cfg = self.config
        rng = self._rng_for(taxi_id, date)
        style = self._taxi_style(taxi_id)
        time_now = cfg.day_start_s
        day_end = cfg.day_end_s
        segs: list[int] = []
        times: list[float] = []
        speeds: list[float] = []
        lengths = self._length
        sample_speed = self._sample_speed
        position = self._sample_endpoint(rng)
        while time_now < day_end:
            destination = self._sample_endpoint(rng)
            if destination == position:
                continue
            route = self._route(position, destination)
            if route is None or len(route) < 2:
                position = self._sample_endpoint(rng)
                continue
            for segment in route:
                if time_now >= day_end:
                    break
                speed = sample_speed(segment, time_now, style, rng)
                segs.append(segment)
                times.append(time_now)
                speeds.append(speed)
                time_now += lengths[segment] / speed
            position = destination
            time_now += rng.expovariate(1.0 / cfg.idle_mean_s)
        return segs, times, speeds

    def _one_day_walk(
        self, taxi_id: int, date: int
    ) -> tuple[list[int], list[float], list[float]]:
        """One taxi-day as a weighted random walk (test/ablation mode)."""
        cfg = self.config
        rng = self._rng_for(taxi_id, date)
        style = self._taxi_style(taxi_id)
        segment = rng.choice(self._segment_ids)
        time_now = cfg.day_start_s
        day_end = cfg.day_end_s
        segs: list[int] = []
        times: list[float] = []
        speeds: list[float] = []
        lengths = self._length
        successors_of = self._successors
        weights_of = self._walk_weights
        sample_speed = self._sample_speed
        choices = rng.choices
        while time_now < day_end:
            speed = sample_speed(segment, time_now, style, rng)
            segs.append(segment)
            times.append(time_now)
            speeds.append(speed)
            time_now += lengths[segment] / speed
            successors = successors_of[segment]
            if not successors:
                segment = rng.choice(self._segment_ids)
            elif len(successors) == 1:
                segment = successors[0]
            else:
                segment = choices(successors, weights=weights_of[segment])[0]
        return segs, times, speeds

    def _one_day(self, taxi_id: int, date: int) -> MatchedTrajectory:
        segs, times, speeds = self._one_day_lists(taxi_id, date)
        return MatchedTrajectory(
            trajectory_id=make_trajectory_id(
                taxi_id, date, self.config.num_taxis
            ),
            taxi_id=taxi_id,
            date=date,
            visits=[
                SegmentVisit(s, t, v) for s, t, v in zip(segs, times, speeds)
            ],
        )

    def _sample_gps(self, matched: MatchedTrajectory) -> RawTrajectory:
        """Raw GPS points every ``gps_interval_s`` along the matched route."""
        cfg = self.config
        rng = random.Random(f"{cfg.seed}:gps:{matched.trajectory_id}")
        points: list[GPSPoint] = []
        next_sample = matched.visits[0].time_s if matched.visits else 0.0
        for visit in matched.visits:
            segment = self.network.segment(visit.segment_id)
            duration = segment.length / visit.speed_mps
            if next_sample < visit.time_s:
                # Idle gap (between trips): resume sampling at entry.
                next_sample = visit.time_s
            while next_sample < visit.time_s + duration:
                progress = (next_sample - visit.time_s) * visit.speed_mps
                pos = interpolate_along(segment.shape, progress)
                noisy = pos.translated(rng.gauss(0, 12.0), rng.gauss(0, 12.0))
                points.append(
                    GPSPoint(
                        trajectory_id=matched.trajectory_id,
                        position=noisy,
                        time_s=next_sample,
                        speed_mps=visit.speed_mps,
                    )
                )
                next_sample += cfg.gps_interval_s
        return RawTrajectory(
            trajectory_id=matched.trajectory_id,
            taxi_id=matched.taxi_id,
            date=matched.date,
            points=points,
        )
