"""Tests for the grid index and the convex hull / polygon helpers."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.spatial.geometry import BBox, Point
from repro.spatial.grid import GridIndex
from repro.spatial.hull import convex_hull, point_in_polygon, polygon_area

BOUNDS = BBox(0, 0, 1000, 1000)


def random_items(n: int, seed: int) -> list[tuple[BBox, int]]:
    rng = random.Random(seed)
    out = []
    for i in range(n):
        x, y = rng.uniform(0, 990), rng.uniform(0, 990)
        s = rng.uniform(1, 30)
        out.append((BBox(x, y, min(1000, x + s), min(1000, y + s)), i))
    return out


class TestGridIndex:
    def test_invalid_cell_size(self):
        with pytest.raises(ValueError):
            GridIndex(BOUNDS, 0)

    def test_empty(self):
        grid = GridIndex(BOUNDS, 100)
        assert len(grid) == 0
        assert grid.search(BOUNDS) == []
        assert grid.nearest(Point(1, 1)) == []

    def test_insert_search(self):
        grid = GridIndex(BOUNDS, 100)
        grid.insert(BBox(10, 10, 20, 20), "a")
        grid.insert(BBox(500, 500, 520, 520), "b")
        assert grid.search(BBox(0, 0, 100, 100)) == ["a"]
        assert sorted(grid.search(BOUNDS)) == ["a", "b"]

    def test_item_spanning_cells_not_duplicated(self):
        grid = GridIndex(BOUNDS, 100)
        grid.insert(BBox(50, 50, 350, 350), "wide")
        assert grid.search(BBox(0, 0, 400, 400)) == ["wide"]

    def test_search_point(self):
        grid = GridIndex(BOUNDS, 100)
        grid.insert(BBox(10, 10, 30, 30), "a")
        assert grid.search(BBox(20, 20, 20, 20)) == ["a"]
        assert grid.search(BBox(90, 90, 90, 90)) == []

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 10_000))
    def test_window_matches_brute_force(self, seed):
        rng = random.Random(seed)
        items = random_items(rng.randint(1, 100), seed)
        grid = GridIndex(BOUNDS, rng.choice([50, 100, 250]))
        for box, item in items:
            grid.insert(box, item)
        window = BBox(
            rng.uniform(0, 500), rng.uniform(0, 500),
            rng.uniform(500, 1000), rng.uniform(500, 1000),
        )
        expected = sorted(i for box, i in items if box.intersects(window))
        assert sorted(grid.search(window)) == expected

    def test_nearest_finds_closest(self):
        grid = GridIndex(BOUNDS, 100)
        for i in range(10):
            grid.insert(BBox(i * 100, 0, i * 100 + 5, 5), i)
        got = grid.nearest(
            Point(420, 0), k=1,
            distance=lambda p, item: abs(p.x - item * 100),
        )
        assert got == [4]

    def test_items_iteration_unique(self):
        grid = GridIndex(BOUNDS, 50)
        grid.insert(BBox(0, 0, 400, 400), "big")
        grid.insert(BBox(10, 10, 20, 20), "small")
        assert sorted(grid.items()) == ["big", "small"]


class TestConvexHull:
    def test_triangle(self):
        pts = [Point(0, 0), Point(4, 0), Point(2, 3), Point(2, 1)]
        hull = convex_hull(pts)
        assert set(hull) == {Point(0, 0), Point(4, 0), Point(2, 3)}

    def test_degenerate_cases(self):
        assert convex_hull([]) == []
        assert convex_hull([Point(1, 1)]) == [Point(1, 1)]
        assert convex_hull([Point(1, 1), Point(1, 1)]) == [Point(1, 1)]
        two = convex_hull([Point(0, 0), Point(1, 1)])
        assert len(two) == 2

    def test_collinear(self):
        pts = [Point(0, 0), Point(1, 1), Point(2, 2), Point(3, 3)]
        hull = convex_hull(pts)
        assert hull == sorted(set(pts))

    @settings(max_examples=30, deadline=None)
    @given(st.lists(
        st.builds(Point, st.floats(-100, 100), st.floats(-100, 100)),
        min_size=3, max_size=60,
    ))
    def test_hull_contains_all_points(self, pts):
        hull = convex_hull(pts)
        if len(hull) < 3:
            return  # collinear input
        for p in pts:
            assert point_in_polygon(p, hull)

    @settings(max_examples=30, deadline=None)
    @given(st.lists(
        st.builds(Point, st.floats(-100, 100), st.floats(-100, 100)),
        min_size=3, max_size=40,
    ))
    def test_hull_idempotent(self, pts):
        hull = convex_hull(pts)
        assert set(convex_hull(hull)) == set(hull)


class TestPolygon:
    UNIT_SQUARE = [Point(0, 0), Point(1, 0), Point(1, 1), Point(0, 1)]

    def test_area_square(self):
        assert polygon_area(self.UNIT_SQUARE) == pytest.approx(1.0)

    def test_area_triangle(self):
        tri = [Point(0, 0), Point(4, 0), Point(0, 3)]
        assert polygon_area(tri) == pytest.approx(6.0)

    def test_area_degenerate(self):
        assert polygon_area([Point(0, 0), Point(1, 1)]) == 0.0

    def test_point_inside(self):
        assert point_in_polygon(Point(0.5, 0.5), self.UNIT_SQUARE)

    def test_point_outside(self):
        assert not point_in_polygon(Point(2, 0.5), self.UNIT_SQUARE)

    def test_point_on_edge_counts_inside(self):
        assert point_in_polygon(Point(0.5, 0.0), self.UNIT_SQUARE)

    def test_point_on_vertex_counts_inside(self):
        assert point_in_polygon(Point(0, 0), self.UNIT_SQUARE)

    def test_too_few_vertices(self):
        assert not point_in_polygon(Point(0, 0), [Point(0, 0), Point(1, 1)])
