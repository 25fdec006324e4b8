"""Planar geometry primitives.

The synthetic city lives in a local projected coordinate system measured in
metres; :func:`to_lonlat` / :func:`from_lonlat` convert to WGS84 around a
reference origin (defaulting to the Shenzhen query location used throughout
the paper's evaluation, §4.2.1) so GeoJSON exports land on a plausible map.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence


#: Reference origin for lon/lat conversion: the paper's s-query location
#: ``s = (22.5311, 114.0550)`` (§4.2.1).
REFERENCE_LAT = 22.5311
REFERENCE_LON = 114.0550

_EARTH_RADIUS_M = 6_371_008.8
_M_PER_DEG_LAT = math.pi * _EARTH_RADIUS_M / 180.0


@dataclass(frozen=True, order=True)
class Point:
    """A point in the local metric plane (metres east/north of the origin)."""

    x: float
    y: float

    def distance_to(self, other: "Point") -> float:
        return math.hypot(self.x - other.x, self.y - other.y)

    def midpoint(self, other: "Point") -> "Point":
        return Point((self.x + other.x) / 2.0, (self.y + other.y) / 2.0)

    def translated(self, dx: float, dy: float) -> "Point":
        return Point(self.x + dx, self.y + dy)

    def as_tuple(self) -> tuple[float, float]:
        return (self.x, self.y)


@dataclass(frozen=True)
class BBox:
    """An axis-aligned bounding box (the paper's MBR, §2.1)."""

    min_x: float
    min_y: float
    max_x: float
    max_y: float

    def __post_init__(self) -> None:
        if self.min_x > self.max_x or self.min_y > self.max_y:
            raise ValueError(f"degenerate bbox: {self}")

    # -- constructors ----------------------------------------------------

    @staticmethod
    def from_points(points: Iterable[Point]) -> "BBox":
        pts = list(points)
        if not pts:
            raise ValueError("cannot build a bbox from no points")
        xs = [p.x for p in pts]
        ys = [p.y for p in pts]
        return BBox(min(xs), min(ys), max(xs), max(ys))

    @staticmethod
    def around(point: Point, radius: float) -> "BBox":
        """A square box of half-width ``radius`` centred on ``point``."""
        if radius < 0:
            raise ValueError(f"radius must be >= 0, got {radius}")
        return BBox(
            point.x - radius, point.y - radius, point.x + radius, point.y + radius
        )

    # -- measures ----------------------------------------------------------

    @property
    def width(self) -> float:
        return self.max_x - self.min_x

    @property
    def height(self) -> float:
        return self.max_y - self.min_y

    @property
    def area(self) -> float:
        return self.width * self.height

    @property
    def center(self) -> Point:
        return Point((self.min_x + self.max_x) / 2.0, (self.min_y + self.max_y) / 2.0)

    # -- predicates ---------------------------------------------------------

    def intersects(self, other: "BBox") -> bool:
        return not (
            other.min_x > self.max_x
            or other.max_x < self.min_x
            or other.min_y > self.max_y
            or other.max_y < self.min_y
        )

    def contains_point(self, point: Point) -> bool:
        return (
            self.min_x <= point.x <= self.max_x
            and self.min_y <= point.y <= self.max_y
        )

    def contains_bbox(self, other: "BBox") -> bool:
        return (
            self.min_x <= other.min_x
            and self.min_y <= other.min_y
            and self.max_x >= other.max_x
            and self.max_y >= other.max_y
        )

    # -- combinators ---------------------------------------------------------

    def union(self, other: "BBox") -> "BBox":
        return BBox(
            min(self.min_x, other.min_x),
            min(self.min_y, other.min_y),
            max(self.max_x, other.max_x),
            max(self.max_y, other.max_y),
        )

    def enlargement(self, other: "BBox") -> float:
        """Area growth needed for this box to absorb ``other``."""
        return self.union(other).area - self.area

    def distance_to_point(self, point: Point) -> float:
        """Minimum distance from ``point`` to this box (0 if inside)."""
        dx = max(self.min_x - point.x, 0.0, point.x - self.max_x)
        dy = max(self.min_y - point.y, 0.0, point.y - self.max_y)
        return math.hypot(dx, dy)


def require_finite(point: Point) -> Point:
    """``point``, or ``ValueError`` when a coordinate is NaN or infinite.

    A query location must pass this: every distance from a non-finite
    point is ``inf`` or NaN, so a nearest-segment lookup would answer
    arbitrarily instead of failing.
    """
    if not (math.isfinite(point.x) and math.isfinite(point.y)):
        raise ValueError(f"location must be finite, got {point}")
    return point


def point_segment_distance(point: Point, start: Point, end: Point) -> float:
    """Distance from ``point`` to the line segment ``start``–``end``."""
    sx, sy = start.x, start.y
    dx, dy = end.x - sx, end.y - sy
    length_sq = dx * dx + dy * dy
    if length_sq == 0.0:
        return point.distance_to(start)
    t = ((point.x - sx) * dx + (point.y - sy) * dy) / length_sq
    t = max(0.0, min(1.0, t))
    return math.hypot(point.x - (sx + t * dx), point.y - (sy + t * dy))


def polyline_length(points: Sequence[Point]) -> float:
    """Total length of a polyline through ``points``."""
    return sum(points[i].distance_to(points[i + 1]) for i in range(len(points) - 1))


def interpolate_along(points: Sequence[Point], distance: float) -> Point:
    """The point at arc-length ``distance`` along a polyline (clamped)."""
    if not points:
        raise ValueError("empty polyline")
    if distance <= 0:
        return points[0]
    remaining = distance
    for i in range(len(points) - 1):
        seg = points[i].distance_to(points[i + 1])
        if remaining <= seg and seg > 0:
            t = remaining / seg
            return Point(
                points[i].x + t * (points[i + 1].x - points[i].x),
                points[i].y + t * (points[i + 1].y - points[i].y),
            )
        remaining -= seg
    return points[-1]


def haversine_m(lat1: float, lon1: float, lat2: float, lon2: float) -> float:
    """Great-circle distance in metres between two WGS84 coordinates."""
    phi1, phi2 = math.radians(lat1), math.radians(lat2)
    dphi = math.radians(lat2 - lat1)
    dlam = math.radians(lon2 - lon1)
    a = (
        math.sin(dphi / 2.0) ** 2
        + math.cos(phi1) * math.cos(phi2) * math.sin(dlam / 2.0) ** 2
    )
    return 2.0 * _EARTH_RADIUS_M * math.asin(min(1.0, math.sqrt(a)))


def to_lonlat(
    point: Point, origin_lat: float = REFERENCE_LAT, origin_lon: float = REFERENCE_LON
) -> tuple[float, float]:
    """Convert a local metric point to (lon, lat) around the origin."""
    lat = origin_lat + point.y / _M_PER_DEG_LAT
    lon = origin_lon + point.x / (_M_PER_DEG_LAT * math.cos(math.radians(origin_lat)))
    return lon, lat


def from_lonlat(
    lon: float,
    lat: float,
    origin_lat: float = REFERENCE_LAT,
    origin_lon: float = REFERENCE_LON,
) -> Point:
    """Convert WGS84 (lon, lat) to the local metric plane."""
    y = (lat - origin_lat) * _M_PER_DEG_LAT
    x = (lon - origin_lon) * _M_PER_DEG_LAT * math.cos(math.radians(origin_lat))
    return Point(x, y)
