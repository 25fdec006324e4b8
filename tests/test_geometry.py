"""Unit and property tests for repro.spatial.geometry."""

import math

import pytest
from hypothesis import given, strategies as st

from repro.spatial.geometry import (
    BBox,
    Point,
    from_lonlat,
    haversine_m,
    interpolate_along,
    point_segment_distance,
    polyline_length,
    to_lonlat,
)

coords = st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False)
points = st.builds(Point, coords, coords)


class TestPoint:
    def test_distance_is_euclidean(self):
        assert Point(0, 0).distance_to(Point(3, 4)) == pytest.approx(5.0)

    def test_distance_to_self_is_zero(self):
        assert Point(1.5, -2.5).distance_to(Point(1.5, -2.5)) == 0.0

    def test_midpoint(self):
        assert Point(0, 0).midpoint(Point(2, 4)) == Point(1, 2)

    def test_translated(self):
        assert Point(1, 1).translated(2, -3) == Point(3, -2)

    def test_as_tuple(self):
        assert Point(1.0, 2.0).as_tuple() == (1.0, 2.0)

    @given(points, points)
    def test_distance_symmetric(self, a, b):
        assert a.distance_to(b) == pytest.approx(b.distance_to(a))

    @given(points, points, points)
    def test_triangle_inequality(self, a, b, c):
        assert a.distance_to(c) <= a.distance_to(b) + b.distance_to(c) + 1e-6


class TestBBox:
    def test_degenerate_rejected(self):
        with pytest.raises(ValueError):
            BBox(1, 0, 0, 1)

    def test_from_points(self):
        box = BBox.from_points([Point(1, 5), Point(-2, 3), Point(0, 7)])
        assert (box.min_x, box.min_y, box.max_x, box.max_y) == (-2, 3, 1, 7)

    def test_from_points_empty_raises(self):
        with pytest.raises(ValueError):
            BBox.from_points([])

    def test_around_negative_radius_raises(self):
        with pytest.raises(ValueError):
            BBox.around(Point(0, 0), -1.0)

    def test_around(self):
        box = BBox.around(Point(1, 2), 3)
        assert box == BBox(-2, -1, 4, 5)

    def test_measures(self):
        box = BBox(0, 0, 4, 3)
        assert box.width == 4
        assert box.height == 3
        assert box.area == 12
        assert box.center == Point(2, 1.5)

    def test_intersects_touching_edges(self):
        assert BBox(0, 0, 1, 1).intersects(BBox(1, 1, 2, 2))

    def test_disjoint(self):
        assert not BBox(0, 0, 1, 1).intersects(BBox(2, 2, 3, 3))

    def test_contains_point_boundary(self):
        assert BBox(0, 0, 1, 1).contains_point(Point(1, 0))

    def test_contains_bbox(self):
        assert BBox(0, 0, 4, 4).contains_bbox(BBox(1, 1, 2, 2))
        assert not BBox(0, 0, 4, 4).contains_bbox(BBox(1, 1, 5, 2))

    def test_union(self):
        assert BBox(0, 0, 1, 1).union(BBox(2, 2, 3, 3)) == BBox(0, 0, 3, 3)

    def test_enlargement_zero_for_contained(self):
        assert BBox(0, 0, 4, 4).enlargement(BBox(1, 1, 2, 2)) == 0.0

    def test_distance_to_point_inside_is_zero(self):
        assert BBox(0, 0, 2, 2).distance_to_point(Point(1, 1)) == 0.0

    def test_distance_to_point_outside(self):
        assert BBox(0, 0, 1, 1).distance_to_point(Point(4, 5)) == pytest.approx(5.0)

    @given(st.lists(points, min_size=1, max_size=20))
    def test_from_points_contains_all(self, pts):
        box = BBox.from_points(pts)
        assert all(box.contains_point(p) for p in pts)

    @given(st.lists(points, min_size=2, max_size=8))
    def test_union_is_commutative_and_covering(self, pts):
        a = BBox.from_points(pts[:1])
        b = BBox.from_points(pts[1:])
        u = a.union(b)
        assert u == b.union(a)
        assert u.contains_bbox(a) and u.contains_bbox(b)


class TestSegmentGeometry:
    def test_point_on_segment_distance_zero(self):
        assert point_segment_distance(
            Point(1, 1), Point(0, 0), Point(2, 2)
        ) == pytest.approx(0.0)

    def test_perpendicular_distance(self):
        assert point_segment_distance(
            Point(1, 1), Point(0, 0), Point(2, 0)
        ) == pytest.approx(1.0)

    def test_beyond_endpoint_clamps(self):
        assert point_segment_distance(
            Point(5, 0), Point(0, 0), Point(2, 0)
        ) == pytest.approx(3.0)

    def test_degenerate_segment(self):
        assert point_segment_distance(
            Point(3, 4), Point(0, 0), Point(0, 0)
        ) == pytest.approx(5.0)

    @given(points, points, points)
    def test_distance_never_negative(self, p, a, b):
        assert point_segment_distance(p, a, b) >= 0.0

    @given(points, points, points)
    def test_distance_at_most_endpoint_distance(self, p, a, b):
        d = point_segment_distance(p, a, b)
        assert d <= min(p.distance_to(a), p.distance_to(b)) + 1e-6


class TestPolyline:
    def test_length(self):
        pts = [Point(0, 0), Point(3, 0), Point(3, 4)]
        assert polyline_length(pts) == pytest.approx(7.0)

    def test_length_single_point(self):
        assert polyline_length([Point(0, 0)]) == 0.0

    def test_interpolate_start_and_end(self):
        pts = [Point(0, 0), Point(10, 0)]
        assert interpolate_along(pts, 0) == Point(0, 0)
        assert interpolate_along(pts, 100) == Point(10, 0)

    def test_interpolate_midway_across_vertices(self):
        pts = [Point(0, 0), Point(3, 0), Point(3, 4)]
        assert interpolate_along(pts, 5.0) == Point(3, 2)

    def test_interpolate_empty_raises(self):
        with pytest.raises(ValueError):
            interpolate_along([], 1.0)


class TestCoordinateConversion:
    def test_roundtrip(self):
        p = Point(1234.5, -678.9)
        lon, lat = to_lonlat(p)
        back = from_lonlat(lon, lat)
        assert back.x == pytest.approx(p.x, abs=0.5)
        assert back.y == pytest.approx(p.y, abs=0.5)

    def test_origin_maps_to_reference(self):
        lon, lat = to_lonlat(Point(0, 0))
        assert lat == pytest.approx(22.5311)
        assert lon == pytest.approx(114.0550)

    def test_local_distance_matches_haversine(self):
        a, b = Point(0, 0), Point(3000, 4000)
        lon_a, lat_a = to_lonlat(a)
        lon_b, lat_b = to_lonlat(b)
        assert haversine_m(lat_a, lon_a, lat_b, lon_b) == pytest.approx(
            5000.0, rel=0.01
        )

    def test_haversine_zero(self):
        assert haversine_m(22.5, 114.0, 22.5, 114.0) == 0.0

    def test_haversine_known_degree(self):
        # One degree of latitude is ~111.2 km.
        assert haversine_m(0, 0, 1, 0) == pytest.approx(111_195, rel=0.01)
