"""Spatial substrate built from scratch.

No third-party spatial libraries are used in this reproduction.  The
ST-Index answers its one spatial query, location → start segment, with the
exact vector pass of :mod:`repro.network.locator`, and its temporal lookups
are the slot arithmetic of :mod:`repro.core.slots`; the paper's R-tree and
B-tree live on as comparators under ``tests/reference/``.

* :mod:`~repro.spatial.geometry` — points, bounding boxes, metric helpers.
* :mod:`~repro.spatial.grid` — a uniform grid index (map matching, and an
  ablation comparator).
* :mod:`~repro.spatial.hull` — convex hulls and point-in-polygon tests for
  reachable-region area reporting and visualisation.
"""

from repro.spatial.geometry import (
    BBox,
    Point,
    haversine_m,
    point_segment_distance,
    polyline_length,
)
from repro.spatial.grid import GridIndex
from repro.spatial.hull import convex_hull, point_in_polygon, polygon_area

__all__ = [
    "Point",
    "BBox",
    "haversine_m",
    "point_segment_distance",
    "polyline_length",
    "GridIndex",
    "convex_hull",
    "point_in_polygon",
    "polygon_area",
]
