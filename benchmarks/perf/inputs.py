"""Seeded, stratified inputs: one config dataclass, one generator.

Every number a run reports is compared across seeds, so a seed must change
*which* roads and times are asked about without changing *how much work*
is asked for.  What a request costs depends on its kind, its duration, the
hour of day (speed statistics are hourly: the same 20-minute query reads 3x
the pages at 11:00 that it reads in the 08:00 rush) and where it starts.
Traffic volume alone predicts the last poorly (roads of one volume slice
differ by 25 % in page reads), but cost is smooth in space, so the generator
fixes, independently of the seed, the count of every (kind, duration) cell,
an *anchor* road per request (spread evenly over the road-volume ranking) and
the request's hour (spread evenly over the day window); the seed picks the
concrete road among the anchor's neighbours of the same road level, the point
on it and the second inside a ten-minute window.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.api.envelope import QueryOptions, Request
from repro.core.query import MQuery, SQuery
from repro.datasets.shenzhen_like import TEST_CONFIG, ShenzhenLikeConfig
from repro.network.model import RoadNetwork
from repro.spatial.geometry import Point
from repro.trajectory.model import MatchedTrajectory, SegmentVisit
from repro.trajectory.store import TrajectoryDatabase

MINUTE = 60

#: Appended trajectories get ids far above the fleet's ``date * taxis + taxi``.
APPEND_ID_BASE = 1_000_000


@dataclass(frozen=True)
class WorkloadConfig:
    """The regime knobs of all four workloads.

    Attributes:
        city: dataset configuration (the default ShenzhenLike city).
        delta_t_s / prob: index granularity and probability threshold.
        interactive_cells: ``(kind, minutes, count)`` cells of the
            ``interactive_unique`` pass; kind is ``s``, ``r`` (reverse) or
            ``m`` (``m_locations`` locations).  Weighted to short durations
            (cost grows 40x from 5 to 30 minutes), and so that the 12th
            slowest of the 240 positions — the 95th percentile — falls
            inside the 20 requests of one cell (25-minute s-queries) and not
            on the edge between two.
        day_window_h: start hours cycle over this window.
        start_jitter_s: the seed moves a start time by up to this much.
        anchor_radius_m: the seed picks a start road among the anchor's
            same-level neighbours whose midpoints lie this close.
        batches / batch_s / batch_m: the hot batches — ``batch_s``
            s-queries of ``batch_s_minutes`` plus ``batch_m`` m-queries of
            ``batch_m_minutes`` each, all starting at ``batch_hour``.
        appends / trajectories_per_append / visits_per_trajectory: the
            acknowledged ingest calls of a ``durable_cycle`` pass.
        es_sample: answers re-derived through the exhaustive route.
        shards: spatial shards of ``sharded_batch``.
    """

    city: ShenzhenLikeConfig = field(default_factory=ShenzhenLikeConfig)
    delta_t_s: int = 300
    prob: float = 0.2
    interactive_cells: tuple[tuple[str, int, int], ...] = (
        ("s", 5, 33), ("s", 10, 33), ("s", 15, 26),
        ("s", 20, 18), ("s", 25, 20), ("s", 30, 2),
        ("r", 5, 15), ("r", 10, 15), ("r", 15, 12),
        ("r", 20, 9), ("r", 25, 6), ("r", 30, 3),
        ("m", 5, 12), ("m", 10, 12), ("m", 15, 10),
        ("m", 20, 10), ("m", 25, 2), ("m", 30, 2),
    )
    day_window_h: tuple[int, int] = (6, 22)
    start_jitter_s: int = 600
    anchor_radius_m: float = 900.0
    m_locations: int = 3
    batches: int = 5
    batch_s: int = 32
    batch_m: int = 8
    batch_s_minutes: int = 10
    batch_m_minutes: int = 20
    batch_hour: int = 11
    appends: int = 10
    trajectories_per_append: int = 5
    visits_per_trajectory: int = 12
    es_sample: int = 4
    shards: int = 4


#: The committed benchmark.
DEFAULT = WorkloadConfig()

#: The same code paths on the sub-second test city (the Tier-1 smoke test).
SMOKE = WorkloadConfig(
    city=TEST_CONFIG,
    interactive_cells=(
        ("s", 5, 4), ("s", 10, 4), ("s", 15, 2),
        ("r", 5, 2), ("r", 10, 2),
        ("m", 5, 2), ("m", 10, 2),
    ),
    batches=2,
    batch_s=6,
    batch_m=2,
    batch_s_minutes=5,
    batch_m_minutes=10,
    appends=3,
    trajectories_per_append=2,
    visits_per_trajectory=4,
    es_sample=3,
    shards=2,
)


@dataclass
class WorkloadInputs:
    """Everything a run feeds the program, generated before set-up."""

    interactive: list[Request]
    batches: list[list[Request]]
    appends: list[list[MatchedTrajectory]]
    crash_append: list[MatchedTrajectory]
    es_sample: list[int]
    batch_es_sample: list[int]
    indexed_visits: int


def road_volumes(network: RoadNetwork, database: TrajectoryDatabase) -> np.ndarray:
    """Recorded segment visits per CSR row (the load proxy of a start road)."""
    csr = network.csr()
    volume = np.zeros(csr.n, dtype=np.int64)
    for _, _, segments, _ in database.iter_compact():
        volume += np.bincount(csr.rows_of(segments), minlength=csr.n)
    return volume


class InputGenerator:
    """Stratified request, batch and trajectory generator for one seed."""

    def __init__(
        self,
        network: RoadNetwork,
        database: TrajectoryDatabase,
        config: WorkloadConfig,
        seed: int,
    ) -> None:
        self.network = network
        self.config = config
        self.num_days = database.num_days
        self.num_taxis = database.num_taxis
        self.rng = np.random.default_rng(seed)
        csr = network.csr()
        volume = road_volumes(network, database)
        self.indexed_visits = int(volume.sum())
        # A two-way road is one choice: both carriageways' traffic, named by
        # the smaller id (the one find_start_segment resolves a point on the
        # shared polyline to).
        twin = csr.twin_row
        rows = np.arange(csr.n)
        canonical = rows[(twin < 0) | (rows < twin)]
        road_volume = volume[canonical] + np.where(
            twin[canonical] >= 0, volume[twin[canonical]], 0
        )
        order = np.lexsort((csr.ids[canonical], road_volume))
        #: Segment ids of the roads, ascending by traffic volume.
        self.ranked_roads = csr.ids[canonical][order]
        ranked_rows = canonical[order]
        self._mid = np.column_stack((csr.mid_x[ranked_rows], csr.mid_y[ranked_rows]))
        self._level = np.array(
            [int(network.segment(int(road)).level) for road in self.ranked_roads]
        )
        self._cells = 0

    # -- strata ------------------------------------------------------------

    def _roads(self, count: int) -> list[int]:
        """``count`` start roads: fixed anchors, seed-chosen neighbours.

        The anchors sit one in each of ``count`` equal slices of the
        volume ranking, at offsets drawn from a generator that depends on
        the call's position in the run but not on the seed; the seed picks,
        for each anchor, one road among the anchor itself and the roads of
        its level within ``anchor_radius_m``.
        """
        ranked = self.ranked_roads
        fixed = np.random.default_rng(0xA2C402 + self._cells)
        self._cells += 1
        edges = np.linspace(0, ranked.size, count + 1)
        picked = []
        for j in range(count):
            lo = int(edges[j])
            hi = max(int(edges[j + 1]), lo + 1)
            anchor = (lo + int(fixed.integers(hi - lo))) % ranked.size
            near = np.hypot(*(self._mid - self._mid[anchor]).T) <= self.config.anchor_radius_m
            candidates = np.flatnonzero(near & (self._level == self._level[anchor]))
            picked.append(int(ranked[candidates[int(self.rng.integers(candidates.size))]]))
        return picked

    def _point_on(self, segment_id: int) -> Point:
        shape = self.network.segment(segment_id).shape
        edge = int(self.rng.integers(len(shape) - 1))
        t = float(self.rng.uniform(0.25, 0.75))
        a, b = shape[edge], shape[edge + 1]
        return Point(a.x + t * (b.x - a.x), a.y + t * (b.y - a.y))

    def _time_at(self, position: int) -> float:
        """The ``position``-th hour of the day window, moved by the seed."""
        lo_h, hi_h = self.config.day_window_h
        hour = lo_h + position % (hi_h - lo_h)
        return float(hour * 3600 + int(self.rng.integers(self.config.start_jitter_s)))

    def _m_locations(self, count: int) -> list[tuple[Point, ...]]:
        """Location tuples whose members span the volume ranking evenly."""
        k = self.config.m_locations
        roads = self._roads(count * k)
        return [
            tuple(self._point_on(roads[j * count + i]) for j in range(k))
            for i in range(count)
        ]

    # -- the three input families -------------------------------------------

    def interactive(self) -> list[Request]:
        """The distinct auto-routed requests of one ``interactive_unique`` pass."""
        cfg = self.config
        requests: list[Request] = []
        for cell, (kind, minutes, count) in enumerate(cfg.interactive_cells):
            duration = float(minutes * MINUTE)
            if kind == "m":
                for i, locations in enumerate(self._m_locations(count)):
                    requests.append(
                        Request(
                            MQuery(locations, self._time_at(7 * i + 3 * cell), duration, cfg.prob)
                        )
                    )
                continue
            options = QueryOptions(direction="reverse" if kind == "r" else "forward")
            for i, road in enumerate(self._roads(count)):
                query = SQuery(
                    self._point_on(road), self._time_at(7 * i + 3 * cell), duration, cfg.prob
                )
                requests.append(Request(query, options))
        # A fixed interleaving (not the seed's): heavy cells are spread over
        # the pass the same way for every seed.
        order = np.random.default_rng(0xC0FFEE).permutation(len(requests))
        return [requests[i] for i in order]

    def batches(self) -> list[list[Request]]:
        """The fixed mixed batches shared by the three batch workloads."""
        cfg = self.config
        start = float(cfg.batch_hour * 3600)
        s_roads = self._roads(cfg.batches * cfg.batch_s)
        m_locations = self._m_locations(cfg.batches * cfg.batch_m)
        order = np.random.default_rng(0xBA7C4).permutation(cfg.batch_s + cfg.batch_m)
        out: list[list[Request]] = []
        for b in range(cfg.batches):
            members: list[Request] = [
                Request(
                    SQuery(
                        self._point_on(road), start,
                        float(cfg.batch_s_minutes * MINUTE), cfg.prob,
                    )
                )
                for road in s_roads[b :: cfg.batches]
            ]
            members.extend(
                Request(
                    MQuery(locations, start, float(cfg.batch_m_minutes * MINUTE), cfg.prob)
                )
                for locations in m_locations[b :: cfg.batches]
            )
            out.append([members[i] for i in order])
        return out

    def append_calls(self) -> list[list[MatchedTrajectory]]:
        """``appends + 1`` ingest calls; the last one is the crash victim."""
        cfg = self.config
        per_call = cfg.trajectories_per_append
        calls = cfg.appends + 1
        roads = self._roads(calls * per_call)
        start = float(cfg.batch_hour * 3600)
        out: list[list[MatchedTrajectory]] = []
        for call in range(calls):
            trajectories = []
            for k in range(per_call):
                index = call * per_call + k
                trajectories.append(self._trajectory(index, roads[index], start))
            out.append(trajectories)
        return out

    def _trajectory(self, index: int, road: int, start_s: float) -> MatchedTrajectory:
        """A short drive from ``road`` entering it within the first slot."""
        rng = self.rng
        speed = float(rng.uniform(4.0, 8.0))
        time_s = start_s + float(np.floor(rng.uniform(0, self.config.delta_t_s)))
        segment = road
        visits = []
        for _ in range(self.config.visits_per_trajectory):
            visits.append(SegmentVisit(segment, time_s, speed))
            successors = self.network.successors(segment)
            if not successors:
                break
            time_s += float(np.ceil(self.network.segment(segment).length / speed))
            segment = int(successors[int(rng.integers(len(successors)))])
        return MatchedTrajectory(
            trajectory_id=APPEND_ID_BASE + index,
            taxi_id=index % self.num_taxis,
            date=int(rng.integers(self.num_days)),
            visits=visits,
        )

    def generate(self) -> WorkloadInputs:
        cfg = self.config
        interactive = self.interactive()
        batches = self.batches()
        calls = self.append_calls()
        return WorkloadInputs(
            interactive=interactive,
            batches=batches,
            appends=calls[:-1],
            crash_append=calls[-1],
            es_sample=sorted(
                int(i)
                for i in self.rng.choice(
                    len(interactive), size=min(cfg.es_sample, len(interactive)), replace=False
                )
            ),
            batch_es_sample=sorted(
                int(i)
                for i in self.rng.choice(
                    len(batches[0]), size=min(cfg.es_sample, len(batches[0])), replace=False
                )
            ),
            indexed_visits=self.indexed_visits,
        )
