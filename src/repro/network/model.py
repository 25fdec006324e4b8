"""The directed road-network graph of §2.1.

Each road segment has a unique ID, an adjacency list of connected segments,
a list of intermediate shape points (two terminal points at the ends), a
length, a direction indicator (one-way or two-way — two-way roads are stored
as a pair of directed twin segments), a level (primary or secondary) and an
MBR describing its spatial range.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Iterable, Iterator

from repro.spatial.geometry import (
    BBox,
    Point,
    point_segment_distance,
    polyline_length,
)


class RoadLevel(enum.IntEnum):
    """Road class: primary roads are the fast arterials/highways."""

    PRIMARY = 1
    SECONDARY = 2


@dataclass(frozen=True)
class RoadSegment:
    """One directed road segment.

    Attributes:
        segment_id: unique dense integer ID.
        start_node: graph node the segment leaves from.
        end_node: graph node the segment arrives at.
        shape: polyline from start to end (>= 2 points).
        level: primary (fast) or secondary (local) road.
        twin_id: the opposite-direction twin for a two-way road, or None
            for a one-way segment.
    """

    segment_id: int
    start_node: int
    end_node: int
    shape: tuple[Point, ...]
    level: RoadLevel = RoadLevel.SECONDARY
    twin_id: int | None = None

    def __post_init__(self) -> None:
        if len(self.shape) < 2:
            raise ValueError(f"segment {self.segment_id} needs >= 2 shape points")

    @property
    def length(self) -> float:
        return polyline_length(self.shape)

    @property
    def bbox(self) -> BBox:
        return BBox.from_points(self.shape)

    @property
    def midpoint(self) -> Point:
        return self.shape[0].midpoint(self.shape[-1])

    @property
    def one_way(self) -> bool:
        return self.twin_id is None

    def distance_to_point(self, point: Point) -> float:
        """Minimum distance from ``point`` to the segment polyline."""
        return min(
            point_segment_distance(point, self.shape[i], self.shape[i + 1])
            for i in range(len(self.shape) - 1)
        )

    def canonical_id(self) -> int:
        """Shared ID for a two-way pair; used to avoid double-counting length."""
        if self.twin_id is None:
            return self.segment_id
        return min(self.segment_id, self.twin_id)


class RoadNetwork:
    """A directed graph of road segments.

    Nodes are intersections (integer IDs mapped to planar points); edges are
    :class:`RoadSegment` objects.  Adjacency is maintained at both the node
    level (segments leaving/entering a node) and the segment level
    (:meth:`successors` / :meth:`predecessors` / :meth:`neighbors`).
    """

    def __init__(self) -> None:
        self._nodes: dict[int, Point] = {}
        self._segments: dict[int, RoadSegment] = {}
        self._out: dict[int, list[int]] = {}
        self._in: dict[int, list[int]] = {}
        self._csr = None
        self._neighbors: dict[int, tuple[int, ...]] = {}

    # -- construction ---------------------------------------------------------

    def add_node(self, node_id: int, point: Point) -> None:
        if node_id in self._nodes:
            raise ValueError(f"node {node_id} already exists")
        self._nodes[node_id] = point
        self._out[node_id] = []
        self._in[node_id] = []

    def add_segment(self, segment: RoadSegment) -> None:
        if segment.segment_id in self._segments:
            raise ValueError(f"segment {segment.segment_id} already exists")
        if segment.start_node not in self._nodes:
            raise ValueError(f"unknown start node {segment.start_node}")
        if segment.end_node not in self._nodes:
            raise ValueError(f"unknown end node {segment.end_node}")
        self._segments[segment.segment_id] = segment
        self._out[segment.start_node].append(segment.segment_id)
        self._in[segment.end_node].append(segment.segment_id)
        self._csr = None  # adjacency changed; rebuild the CSR view lazily
        self._neighbors.clear()

    def next_node_id(self) -> int:
        return max(self._nodes, default=-1) + 1

    def next_segment_id(self) -> int:
        return max(self._segments, default=-1) + 1

    # -- accessors ------------------------------------------------------------

    @property
    def num_nodes(self) -> int:
        return len(self._nodes)

    @property
    def num_segments(self) -> int:
        return len(self._segments)

    def node_point(self, node_id: int) -> Point:
        return self._nodes[node_id]

    def nodes(self) -> Iterator[tuple[int, Point]]:
        return iter(self._nodes.items())

    def segment(self, segment_id: int) -> RoadSegment:
        return self._segments[segment_id]

    def segments(self) -> Iterator[RoadSegment]:
        return iter(self._segments.values())

    def segment_ids(self) -> Iterator[int]:
        return iter(self._segments.keys())

    def has_segment(self, segment_id: int) -> bool:
        return segment_id in self._segments

    def bounds(self) -> BBox:
        """Bounding box of the whole network."""
        return BBox.from_points(self._nodes.values())

    def road_length_m(self, segment_ids: Iterable[int]) -> float:
        """Total length of the given segments, each two-way road once.

        This is the paper's effectiveness metric ("total length of covered
        road segments", §4.2): a road is counted when either carriageway
        is in ``segment_ids``.
        """
        seen: set[int] = set()
        total = 0.0
        for segment_id in segment_ids:
            segment = self._segments[segment_id]
            canonical = segment.canonical_id()
            if canonical in seen:
                continue
            seen.add(canonical)
            total += segment.length
        return total

    def total_length(self, deduplicate_twins: bool = True) -> float:
        """Total road length in metres.

        Args:
            deduplicate_twins: count each two-way road once (default), as a
                map-derived "road length" figure would.
        """
        if deduplicate_twins:
            return self.road_length_m(self._segments)
        return sum(seg.length for seg in self._segments.values())

    # -- topology ----------------------------------------------------------------

    def successors(self, segment_id: int) -> list[int]:
        """Segments a traveller can continue onto after ``segment_id``."""
        seg = self._segments[segment_id]
        result = []
        for succ_id in self._out[seg.end_node]:
            # Do not immediately U-turn onto the twin.
            if seg.twin_id is not None and succ_id == seg.twin_id:
                continue
            result.append(succ_id)
        return result

    def predecessors(self, segment_id: int) -> list[int]:
        """Segments from which a traveller can enter ``segment_id``."""
        seg = self._segments[segment_id]
        result = []
        for pred_id in self._in[seg.start_node]:
            if seg.twin_id is not None and pred_id == seg.twin_id:
                continue
            result.append(pred_id)
        return result

    def neighbors(self, segment_id: int) -> tuple[int, ...]:
        """Undirected segment adjacency (successors + predecessors + twins).

        This is the ``neighbor(r)`` relation that the trace-back search
        (Algorithm 2, line 9) expands.  Memoized per segment (as a
        read-only tuple) until the topology changes — TBS touches the
        same shell segments for every query in a batch.
        """
        cached = self._neighbors.get(segment_id)
        if cached is not None:
            return cached
        seg = self._segments[segment_id]
        seen: set[int] = {segment_id}
        result: list[int] = []
        candidates = self.successors(segment_id) + self.predecessors(segment_id)
        if seg.twin_id is not None and self.has_segment(seg.twin_id):
            candidates.append(seg.twin_id)
        for other in candidates:
            if other not in seen:
                seen.add(other)
                result.append(other)
        frozen = tuple(result)
        self._neighbors[segment_id] = frozen
        return frozen

    def csr(self):
        """The cached CSR adjacency view (see :mod:`repro.network.csr`).

        Built on first use and invalidated whenever a segment is added, so
        the expansion kernels always see the current topology.
        """
        if self._csr is None:
            from repro.network.csr import build_csr

            self._csr = build_csr(self)
        return self._csr

    # -- geometry ----------------------------------------------------------------

    def nearest_segment_linear(self, point: Point) -> int:
        """Brute-force nearest segment (reference for index-based lookup)."""
        if not self._segments:
            raise ValueError("empty network")
        return min(
            self._segments.values(), key=lambda s: s.distance_to_point(point)
        ).segment_id

    def euclidean_distance(self, seg_a: int, seg_b: int) -> float:
        """Straight-line distance between two segment midpoints."""
        return self._segments[seg_a].midpoint.distance_to(
            self._segments[seg_b].midpoint
        )

    # -- validation -----------------------------------------------------------------

    def check_invariants(self) -> None:
        """Raise AssertionError if graph bookkeeping is inconsistent."""
        for seg in self._segments.values():
            assert seg.segment_id in self._out[seg.start_node]
            assert seg.segment_id in self._in[seg.end_node]
            assert seg.shape[0].distance_to(self._nodes[seg.start_node]) < 1e-6
            assert seg.shape[-1].distance_to(self._nodes[seg.end_node]) < 1e-6
            if seg.twin_id is not None:
                twin = self._segments[seg.twin_id]
                assert twin.twin_id == seg.segment_id
                assert twin.start_node == seg.end_node
                assert twin.end_node == seg.start_node

    def __repr__(self) -> str:  # pragma: no cover - debug convenience
        return (
            f"RoadNetwork(nodes={self.num_nodes}, segments={self.num_segments}, "
            f"length_km={self.total_length() / 1000.0:.1f})"
        )
