"""Spatial index substrate built from scratch.

The paper's ST-Index uses an R-tree over the re-segmented road network
(§3.2.1) and a B-tree over time slots; no third-party spatial libraries are
used in this reproduction, so this package provides them (the ST-Index
answers its one spatial query, location → start segment, with the exact
vector pass of :mod:`repro.network.locator`; the R-tree stays as the
comparator of ``benchmarks/test_ablation_spatial.py``):

* :mod:`~repro.spatial.geometry` — points, bounding boxes, metric helpers.
* :mod:`~repro.spatial.rtree` — an R-tree with STR bulk loading and
  quadratic-split dynamic inserts.
* :mod:`~repro.spatial.btree` — a B+-tree used as the temporal index.
* :mod:`~repro.spatial.grid` — a uniform grid index (ablation comparator).
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
from repro.spatial.rtree import RTree
from repro.spatial.btree import BPlusTree
from repro.spatial.grid import GridIndex
from repro.spatial.hull import convex_hull, point_in_polygon, polygon_area

__all__ = [
    "Point",
    "BBox",
    "haversine_m",
    "point_segment_distance",
    "polyline_length",
    "RTree",
    "BPlusTree",
    "GridIndex",
    "convex_hull",
    "point_in_polygon",
    "polygon_area",
]
