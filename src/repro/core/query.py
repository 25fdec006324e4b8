"""Query and result models (§2.2, Table 2.1).

An s-query is ``q = (S, T, L, Prob)`` with one location; an m-query carries
``S = {s1, ..., sn}``.  Results report the Prob-reachable segment set plus
the cost metrics the paper's evaluation uses: running time and (here,
additionally) simulated disk I/O.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from operator import add
from typing import TYPE_CHECKING, Iterable

from repro.spatial.geometry import Point, require_finite
from repro.storage.disk import DiskStats
from repro.trajectory.model import SECONDS_PER_DAY

if TYPE_CHECKING:  # import cycle: network.model imports nothing from core
    from repro.network.model import RoadNetwork


def _check_envelope(
    locations: tuple[Point, ...], start_time_s: float, duration_s: float, prob: float
) -> None:
    """The range checks an s-query and an m-query share.

    A non-finite coordinate fails here as it would in the start-segment
    lookup (:func:`~repro.spatial.geometry.require_finite`); a non-finite
    duration would die inside the planner.
    """
    for location in locations:
        require_finite(location)
    if not 0 <= start_time_s < SECONDS_PER_DAY:
        raise ValueError(f"start time {start_time_s} outside one day")
    if not 0 < duration_s < math.inf:
        raise ValueError(f"duration must be positive and finite, got {duration_s}")
    if not 0 < prob <= 1:
        raise ValueError(f"prob must be in (0, 1], got {prob}")


@dataclass(frozen=True)
class SQuery:
    """Single-location spatio-temporal reachability query.

    Attributes:
        location: query location ``s`` in the local metric plane.
        start_time_s: ``T``, seconds since midnight.
        duration_s: ``L``, the prediction time length in seconds.
        prob: reachability probability threshold in (0, 1].
    """

    location: Point
    start_time_s: float
    duration_s: float
    prob: float

    def __post_init__(self) -> None:
        _check_envelope((self.location,), self.start_time_s, self.duration_s, self.prob)


@dataclass(frozen=True)
class MQuery:
    """Multi-location spatio-temporal reachability query (§3.3.2)."""

    locations: tuple[Point, ...]
    start_time_s: float
    duration_s: float
    prob: float

    def __post_init__(self) -> None:
        if not self.locations:
            raise ValueError("m-query needs at least one location")
        _check_envelope(self.locations, self.start_time_s, self.duration_s, self.prob)

    def as_s_queries(self) -> list[SQuery]:
        """The n independent s-queries of the naive decomposition."""
        return [
            SQuery(
                location=location,
                start_time_s=self.start_time_s,
                duration_s=self.duration_s,
                prob=self.prob,
            )
            for location in self.locations
        ]


@dataclass
class BoundingRegion:
    """Output of SQMB/MQMB: the cover and outer boundary of one bound.

    Attributes:
        cover: every segment reachable within the bound (``B`` accumulated
            over Algorithm 1's steps, as an area).
        boundary: the outer frontier — the solid circles of Fig. 3.4.
    """

    cover: set[int] = field(default_factory=set)
    boundary: set[int] = field(default_factory=set)


@dataclass
class QueryCost:
    """Cost metrics for one query execution.

    Attributes:
        probability_checks: Eq. 3.1 evaluations requested across the
            query's estimators (cache and twin hits excluded).
        kernel_probability_evals / scalar_probability_evals: how many of
            those evaluations ran through the vectorized columnar kernel
            vs the tiny-input scalar fast path (their sum can fall short
            of ``probability_checks`` when an empty start set
            short-circuits candidates to probability 0 without reads).
        probability_waves: batched evaluation waves (one per
            trace-back: its ring; ES frontier levels) the search ran.
        max_wave_size: largest single wave, the batching depth the
            kernel actually exploited.
        batched_record_reads: time-list records the evaluations read
            (gathered by ``STIndex.gather_window_columns``, charged in
            one ``BufferPool.get_pages`` per search — each road once,
            however many seeds value it), read-for-read like the
            sequential scalar loop.
        prefetched_pages: page accesses charged for those records (pool
            hits included, of which ``io.page_reads`` were actual misses).

    :meth:`merged` is the one statement of how costs combine: a field
    sums unless its ``metadata["merge"]`` names another rule.
    """

    wall_time_s: float = 0.0
    io: DiskStats = field(default_factory=DiskStats)
    simulated_io_ms: float = 0.0
    probability_checks: int = 0
    segments_expanded: int = 0
    kernel_probability_evals: int = 0
    scalar_probability_evals: int = 0
    probability_waves: int = 0
    max_wave_size: int = field(default=0, metadata={"merge": max})
    batched_record_reads: int = 0
    prefetched_pages: int = 0

    @classmethod
    def merged(cls, costs: Iterable["QueryCost"]) -> "QueryCost":
        """The combined cost of several executions (batch totals, the
        per-location parts of a sharded ``*_each`` m-query); ``QueryCost()`` for none."""
        rules = [(spec.name, spec.metadata.get("merge", add)) for spec in fields(cls)]
        total = cls()
        for cost in costs:
            for name, combine in rules:
                setattr(total, name, combine(getattr(total, name), getattr(cost, name)))
        return total

    @property
    def total_cost_ms(self) -> float:
        """Wall time plus accounted I/O, the headline 'running time'."""
        return self.wall_time_s * 1e3 + self.simulated_io_ms

    def path_lines(self) -> list[str]:
        """The "probability path" and "batched I/O" lines of the CLI and
        ``EXPLAIN`` output (none for a query that verified nothing)."""
        lines: list[str] = []
        if self.probability_checks:
            lines.append(
                f"probability path: {self.kernel_probability_evals} kernel / "
                f"{self.scalar_probability_evals} scalar evals over "
                f"{self.probability_waves} waves (max {self.max_wave_size})"
            )
        if self.batched_record_reads:
            lines.append(
                f"batched I/O: {self.batched_record_reads} record gathers / "
                f"{self.prefetched_pages} pages prefetched"
            )
        return lines


@dataclass
class QueryResult:
    """A Prob-reachable region plus how much it cost to compute.

    Attributes:
        segments: the Prob-reachable road segments.
        probabilities: probabilities actually computed during the search
            (TBS only examines the shell, so this is a subset of segments).
        start_segments: the start segment(s) ``r0`` resolved from ``S``.
        max_region / min_region: the bounding regions, when the algorithm
            produced them (None for the ES baseline).
        cost: running-time/I/O metrics.
    """

    segments: set[int] = field(default_factory=set)
    probabilities: dict[int, float] = field(default_factory=dict)
    start_segments: tuple[int, ...] = ()
    max_region: BoundingRegion | None = None
    min_region: BoundingRegion | None = None
    cost: QueryCost = field(default_factory=QueryCost)

    def road_length_m(self, network: RoadNetwork) -> float:
        """Total length of the result segments, deduplicating two-way twins.

        This is the paper's effectiveness metric ("total length of covered
        road segments", §4.2).
        """
        return network.road_length_m(self.segments)
